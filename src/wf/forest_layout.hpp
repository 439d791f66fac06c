// Packed node layout of the flattened random forest, shared between
// RandomForest (which builds the pool) and the descent kernel in
// simd_kernels.cpp (which walks it).
//
// One node is 24 bytes, so a descent step reads a single cache line.
// Internal nodes (feature >= 0) use kid as absolute left/right child
// indices into the pool; leaves reuse the two slots as {distribution
// offset, majority class}.
#pragma once

#include <cstdint>

namespace stob::wf {

struct FlatNode {
  double threshold = 0.0;
  std::int32_t feature = -1;  // -1 marks a leaf
  std::uint32_t kid[2] = {0, 0};
};

static_assert(sizeof(FlatNode) == 24, "descent assumes 24-byte packed nodes");

}  // namespace stob::wf
