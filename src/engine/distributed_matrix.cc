#include "engine/distributed_matrix.h"

#include <algorithm>

namespace distme::engine {

Status DistributedMatrix::Put(BlockIndex idx, Block block) {
  if (idx.i < 0 || idx.i >= shape_.block_rows() || idx.j < 0 ||
      idx.j >= shape_.block_cols()) {
    return Status::Invalid("block index out of range");
  }
  const int node = NodeOf(idx);
  {
    std::lock_guard<std::mutex> lock(mutexes_[static_cast<size_t>(node)]);
    stores_[static_cast<size_t>(node)][idx] = std::move(block);
  }
  // After the store, so a Descriptor() that raced with it and missed the
  // new block is dropped here, never kept.
  std::lock_guard<std::mutex> lock(descriptor_mutex_);
  descriptor_.reset();
  return Status::OK();
}

Result<Block> DistributedMatrix::Get(BlockIndex idx, int requesting_node,
                                     bool* crossed_network) const {
  if (idx.i < 0 || idx.i >= shape_.block_rows() || idx.j < 0 ||
      idx.j >= shape_.block_cols()) {
    return Status::Invalid("block index out of range");
  }
  const int node = NodeOf(idx);
  if (crossed_network != nullptr) {
    *crossed_network = (node != requesting_node);
  }
  std::lock_guard<std::mutex> lock(mutexes_[static_cast<size_t>(node)]);
  const auto& store = stores_[static_cast<size_t>(node)];
  auto it = store.find(idx);
  if (it != store.end()) return it->second;
  return Block::Zero(shape_.BlockRowsAt(idx.i), shape_.BlockColsAt(idx.j));
}

bool DistributedMatrix::Has(BlockIndex idx) const {
  const int node = NodeOf(idx);
  std::lock_guard<std::mutex> lock(mutexes_[static_cast<size_t>(node)]);
  return stores_[static_cast<size_t>(node)].count(idx) > 0;
}

int64_t DistributedMatrix::num_blocks() const {
  int64_t total = 0;
  for (size_t n = 0; n < stores_.size(); ++n) {
    std::lock_guard<std::mutex> lock(mutexes_[n]);
    total += static_cast<int64_t>(stores_[n].size());
  }
  return total;
}

int64_t DistributedMatrix::SizeBytes() const {
  int64_t total = 0;
  for (size_t n = 0; n < stores_.size(); ++n) {
    std::lock_guard<std::mutex> lock(mutexes_[n]);
    for (const auto& [idx, block] : stores_[n]) total += block.SizeBytes();
  }
  return total;
}

std::vector<StoredBlock> DistributedMatrix::Blocks() const {
  std::vector<StoredBlock> blocks;
  for (size_t n = 0; n < stores_.size(); ++n) {
    std::lock_guard<std::mutex> lock(mutexes_[n]);
    for (const auto& [idx, block] : stores_[n]) {
      blocks.push_back({static_cast<int>(n), idx, block});
    }
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const StoredBlock& x, const StoredBlock& y) {
              return x.index < y.index;
            });
  return blocks;
}

BlockGrid DistributedMatrix::Collect() const {
  BlockGrid grid(shape_);
  for (size_t n = 0; n < stores_.size(); ++n) {
    std::lock_guard<std::mutex> lock(mutexes_[n]);
    for (const auto& [idx, block] : stores_[n]) {
      DISTME_CHECK_OK(grid.Put(idx, block));
    }
  }
  return grid;
}

mm::MatrixDescriptor DistributedMatrix::Descriptor() const {
  std::lock_guard<std::mutex> cache_lock(descriptor_mutex_);
  if (descriptor_.has_value()) return *descriptor_;
  mm::MatrixDescriptor d;
  d.shape = shape_;
  double nnz = 0;
  int64_t dense_blocks = 0;
  int64_t blocks = 0;
  for (size_t n = 0; n < stores_.size(); ++n) {
    std::lock_guard<std::mutex> lock(mutexes_[n]);
    for (const auto& [idx, block] : stores_[n]) {
      nnz += static_cast<double>(block.nnz());
      dense_blocks += block.IsDense() ? 1 : 0;
      ++blocks;
    }
  }
  const double total = d.num_elements();
  d.sparsity = total == 0.0 ? 0.0 : nnz / total;
  d.stored_dense = dense_blocks * 2 >= blocks;
  descriptor_ = d;
  return d;
}

DistributedMatrix DistributedMatrix::FromGrid(const BlockGrid& grid,
                                              int num_nodes,
                                              Partitioner partitioner) {
  DistributedMatrix m(grid.shape(), num_nodes, partitioner);
  for (const auto& [idx, block] : grid.blocks()) {
    DISTME_CHECK_OK(m.Put(idx, block));
  }
  return m;
}

DistributedMatrix DistributedMatrix::FromGridHashed(const BlockGrid& grid,
                                                    int num_nodes) {
  return FromGrid(grid, num_nodes, Partitioner::Hash(num_nodes));
}

}  // namespace distme::engine
