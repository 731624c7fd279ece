// Block (de)serialization — what actually crosses the wire during shuffle.
//
// The real executor serializes blocks into byte buffers when they move
// between nodes, so communication-cost counters measure genuine serialized
// bytes (the paper notes measured shuffle volume differs slightly from the
// analytic Cost() due to serialization — Figure 9(b)).

#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "matrix/block.h"

namespace distme {

/// \brief Serializes a block into a self-describing byte buffer.
std::vector<uint8_t> SerializeBlock(const Block& block);

/// \brief Parses a buffer produced by SerializeBlock.
///
/// A CSR payload is validated, not rebuilt: it must hold the invariants of
/// CsrMatrix::FromParts. An encoding with unsorted or duplicate columns in
/// a row, or a stored ±0, returns an IOError; it is never repaired.
[[nodiscard]] Result<Block> DeserializeBlock(const std::vector<uint8_t>& buffer);

/// \brief Exact number of bytes SerializeBlock would produce, without
/// serializing (used by the cost simulator).
int64_t SerializedBlockBytes(const Block& block);

}  // namespace distme
