// The aggregation step of CuboidMM: a reduce-by-key over partial output
// blocks (the R·|C| term of Table 2). Emitters add partials from any
// thread; Reduce folds each output block's partials in ascending k_origin,
// so the result bits depend neither on which worker, attempt or emit thread
// delivered a partial first, nor on how many threads reduce.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "matrix/block.h"

namespace distme::engine {

class PartialTable {
 public:
  /// \brief Stores `block` as output block `idx`'s partial from k
  /// coordinate `k_origin`. A second partial with the same key is summed
  /// into the first.
  [[nodiscard]] Status Add(BlockIndex idx, int64_t k_origin, Block block);

  /// \brief Folds every output block's partials in ascending k_origin and
  /// hands each non-zero total to `put`, then leaves the table empty.
  ///
  /// Runs on min(max_threads, #output blocks) threads, the calling thread
  /// among them, so `put` must be thread-safe. Each output block is folded
  /// by exactly one thread, in place, and each partial is freed as soon as
  /// it is folded. When several blocks fail, returns the error of the
  /// lowest block index.
  [[nodiscard]] Status Reduce(
      int max_threads, const std::function<Status(BlockIndex, Block)>& put);

 private:
  using ByK = std::map<int64_t, Block>;
  static constexpr size_t kShards = 64;
  std::array<std::mutex, kShards> mutexes_;
  std::array<std::unordered_map<BlockIndex, ByK, BlockIndexHash>, kShards>
      shards_ DISTME_SHARDED_BY(mutexes_);
};

}  // namespace distme::engine
