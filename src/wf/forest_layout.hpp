// Packed node layout of the flattened random forest, and the blocked
// descent kernel that walks it (defined in random_forest.cpp; declared
// here so tests can check it against a naive walk).
//
// One node is 24 bytes, so a descent step reads a single cache line.
// Internal nodes (feature >= 0) use kid as absolute left/right child
// indices into the pool; leaves reuse the two slots as {distribution
// offset, majority class}.
#pragma once

#include <cstddef>
#include <cstdint>

namespace stob::wf {

struct FlatNode {
  double threshold = 0.0;
  std::int32_t feature = -1;  // -1 marks a leaf
  std::uint32_t kid[2] = {0, 0};
};

static_assert(sizeof(FlatNode) == 24, "descent assumes 24-byte packed nodes");

/// Walk one tree (rooted at nodes[root]) for m samples stored row-major at
/// x + r*stride, leaving the absolute leaf index of sample r in leaves[r].
/// Four lanes are in flight so their dependent node loads overlap; a NaN
/// feature descends to kid[1] (`!(x <= thr)`).
void descend_block(const FlatNode* nodes, std::uint32_t root, const double* x,
                   std::size_t stride, std::size_t m, std::uint32_t* leaves);

}  // namespace stob::wf
