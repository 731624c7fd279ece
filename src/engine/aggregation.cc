#include "engine/aggregation.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "blas/block_ops.h"
#include "engine/parallel_for.h"

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
  // Ascending block index, so ParallelFor's lowest failing item is the
  // lowest failing block.
  std::sort(blocks.begin(), blocks.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  return ParallelFor(blocks.size(), max_threads, [&](size_t b) {
    return FoldBlock(blocks[b].first, &blocks[b].second, put);
  });
}

}  // namespace distme::engine
