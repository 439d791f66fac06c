// Blocked leaf-agreement kernel for k-FP's k-NN stage.
//
// k-FP measures similarity between two samples as the number of trees in
// which they fall into the same leaf (a Hamming-style distance over the
// uint32 leaf-id vectors produced by RandomForest::leaf_batch). The k-NN
// mode spends most of its time in this all-pairs count, so it lives here
// as a tiled train x query kernel: a block of training fingerprints stays
// cache-resident while a block of queries streams over it. Counts are
// exact integers, so results are identical to the naive per-pair loop.
#pragma once

#include <cstdint>
#include <span>

namespace stob::wf {

/// counts[i] = #trees where `query` and training row i share a leaf.
/// train_leaves is row-major n_train x trees (RandomForest::leaf_batch
/// layout); query holds one row of `trees` entries; counts has n_train
/// entries.
void leaf_match_counts(std::span<const std::uint32_t> train_leaves, std::size_t n_train,
                       std::span<const std::uint32_t> query, std::span<int> counts);

/// Full n_query x n_train agreement matrix (row-major, one row per query),
/// tiled so a train block is reused across a block of queries.
void leaf_match_matrix(std::span<const std::uint32_t> train_leaves, std::size_t n_train,
                       std::span<const std::uint32_t> query_leaves, std::size_t n_query,
                       std::size_t trees, std::span<int> counts);

}  // namespace stob::wf
