// DistributedMatrix: a blocked matrix spread across cluster nodes — the
// engine's RDD-of-blocks equivalent. Blocks live in per-node stores; the
// partitioner records which node owns which block.

#pragma once

#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "engine/partitioner.h"
#include "matrix/block_grid.h"
#include "mm/descriptor.h"

namespace distme::engine {

/// \brief A materialized block and the node that stores it.
struct StoredBlock {
  int node = 0;
  BlockIndex index;
  Block block;
};

/// \brief A blocked matrix whose blocks are distributed over nodes.
///
/// Thread-safe for concurrent reads and writes from task threads (per-node
/// store locking).
class DistributedMatrix {
 public:
  DistributedMatrix(BlockedShape shape, int num_nodes, Partitioner partitioner)
      : shape_(shape),
        partitioner_(partitioner),
        stores_(static_cast<size_t>(num_nodes)),
        mutexes_(static_cast<size_t>(num_nodes)) {}

  // Written out because std::mutex is not movable; the source must not be
  // in use by another thread while it is moved from.
  DistributedMatrix(DistributedMatrix&& other) noexcept
      : shape_(other.shape_),
        partitioner_(other.partitioner_),
        stores_(std::move(other.stores_)),
        mutexes_(std::move(other.mutexes_)),
        descriptor_(other.descriptor_) {}

  const BlockedShape& shape() const { return shape_; }
  int num_nodes() const {
    // The store vector itself never grows or shrinks after construction;
    // only the per-node maps inside it mutate (under their shard lock).
    return static_cast<int>(stores_.size());  // distme-lint: allow(lock-held)
  }
  const Partitioner& partitioner() const { return partitioner_; }

  /// \brief Node owning the block at `idx` under the current partitioning.
  int NodeOf(BlockIndex idx) const {
    return static_cast<int>(partitioner_.PartitionOf(idx) %
                            static_cast<int64_t>(
                                stores_.size()));  // distme-lint: allow(lock-held)
  }

  /// \brief Inserts or replaces a block at its home node, and drops the
  /// cached descriptor.
  [[nodiscard]] Status Put(BlockIndex idx, Block block);

  /// \brief Fetches the block at `idx` (implicit zero if absent).
  /// `requesting_node` is used by callers to account network movement;
  /// `crossed_network` reports whether the block lives on a different node.
  [[nodiscard]] Result<Block> Get(BlockIndex idx, int requesting_node,
                    bool* crossed_network) const;

  /// \brief True if a block is materialized at `idx`.
  bool Has(BlockIndex idx) const;

  /// \brief Number of materialized blocks across all nodes.
  int64_t num_blocks() const;

  /// \brief Total stored bytes across all nodes.
  int64_t SizeBytes() const;

  /// \brief Gathers all blocks into a local grid (test scale only).
  BlockGrid Collect() const;

  /// \brief Every materialized block in ascending block index. Payloads
  /// are shared with the stored blocks, not copied, and no lock is held
  /// once this returns.
  std::vector<StoredBlock> Blocks() const;

  /// \brief Planning descriptor for this matrix: measured on the first
  /// call after construction or the last Put, cached until the next Put.
  mm::MatrixDescriptor Descriptor() const;

  /// \brief Distributes a local grid across `num_nodes` nodes.
  static DistributedMatrix FromGrid(const BlockGrid& grid, int num_nodes,
                                    Partitioner partitioner);

  /// \brief Convenience: hash-partitioned distribution.
  static DistributedMatrix FromGridHashed(const BlockGrid& grid,
                                          int num_nodes);

 private:
  BlockedShape shape_ DISTME_LOCKFREE("set in ctor, immutable after");
  Partitioner partitioner_ DISTME_LOCKFREE("set in ctor, immutable after");
  std::vector<std::unordered_map<BlockIndex, Block, BlockIndexHash>> stores_
      DISTME_SHARDED_BY(mutexes_);
  mutable std::vector<std::mutex> mutexes_;
  // Lock order: descriptor_mutex_, then the node mutexes. Put releases its
  // node lock before it takes descriptor_mutex_.
  mutable std::mutex descriptor_mutex_;
  mutable std::optional<mm::MatrixDescriptor> descriptor_
      DISTME_GUARDED_BY(descriptor_mutex_);
};

}  // namespace distme::engine
