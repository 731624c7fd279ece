#include "engine/aggregation.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "blas/block_ops.h"

namespace distme::engine {

namespace {

// Folds one output block's partials into the first in ascending k_origin,
// freeing each once it is folded, and puts the total unless it is zero.
Status FoldBlock(BlockIndex idx, std::map<int64_t, Block>* by_k,
                 const std::function<Status(BlockIndex, Block)>& put) {
  auto it = by_k->begin();
  Block total = std::move(it->second);
  for (++it; it != by_k->end(); ++it) {
    DISTME_RETURN_NOT_OK(blas::AddInto(&total, std::move(it->second)));
  }
  if (total.IsZero()) return Status::OK();
  return put(idx, std::move(total));
}

}  // namespace

Status PartialTable::Add(BlockIndex idx, int64_t k_origin, Block block) {
  const size_t shard = BlockIndexHash()(idx) % kShards;
  std::lock_guard<std::mutex> lock(mutexes_[shard]);
  auto [it, inserted] =
      shards_[shard][idx].try_emplace(k_origin, std::move(block));
  if (inserted) return Status::OK();
  // Same (block, k_origin) twice: not produced by any current method, but
  // reduce defensively rather than drop a partial.
  return blas::AddInto(&it->second, std::move(block));
}

Status PartialTable::Reduce(
    int max_threads, const std::function<Status(BlockIndex, Block)>& put) {
  std::vector<std::pair<BlockIndex, ByK>> blocks;
  for (size_t shard = 0; shard < kShards; ++shard) {
    std::lock_guard<std::mutex> lock(mutexes_[shard]);
    for (auto& [idx, by_k] : shards_[shard]) {
      blocks.emplace_back(idx, std::move(by_k));
    }
    shards_[shard].clear();
  }
  // Ascending block index, so the first failure in `results` is the
  // lowest one whatever thread hit it.
  std::sort(blocks.begin(), blocks.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  std::vector<Status> results(blocks.size());
  std::atomic<size_t> next{0};
  auto fold_blocks = [&]() {
    for (size_t b = next.fetch_add(1, std::memory_order_relaxed);
         b < blocks.size(); b = next.fetch_add(1, std::memory_order_relaxed)) {
      results[b] = FoldBlock(blocks[b].first, &blocks[b].second, put);
    }
  };
  const size_t num_threads =
      std::min(static_cast<size_t>(std::max(max_threads, 1)), blocks.size());
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < num_threads; ++t) helpers.emplace_back(fold_blocks);
  fold_blocks();
  for (std::thread& helper : helpers) helper.join();
  for (Status& st : results) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

}  // namespace distme::engine
