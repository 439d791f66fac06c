#include "wf/leaf_knn.hpp"

#include <algorithm>

namespace stob::wf {

namespace {

constexpr std::size_t kTrainBlock = 64;  // train fingerprints kept hot per tile
constexpr std::size_t kQueryBlock = 8;   // queries sharing one train tile

/// counts[i] = #positions where query and train row i hold the same leaf id.
void leaf_match_block(const std::uint32_t* train, std::size_t n_train, std::size_t trees,
                      const std::uint32_t* query, int* counts) {
  for (std::size_t i = 0; i < n_train; ++i) {
    const std::uint32_t* row = train + i * trees;
    int c = 0;
    for (std::size_t t = 0; t < trees; ++t) c += static_cast<int>(row[t] == query[t]);
    counts[i] = c;
  }
}

}  // namespace

void leaf_match_counts(std::span<const std::uint32_t> train_leaves, std::size_t n_train,
                       std::span<const std::uint32_t> query, std::span<int> counts) {
  const std::size_t trees = query.size();
  leaf_match_block(train_leaves.data(), n_train, trees, query.data(), counts.data());
}

void leaf_match_matrix(std::span<const std::uint32_t> train_leaves, std::size_t n_train,
                       std::span<const std::uint32_t> query_leaves, std::size_t n_query,
                       std::size_t trees, std::span<int> counts) {
  for (std::size_t q_lo = 0; q_lo < n_query; q_lo += kQueryBlock) {
    const std::size_t q_hi = std::min(n_query, q_lo + kQueryBlock);
    for (std::size_t i_lo = 0; i_lo < n_train; i_lo += kTrainBlock) {
      const std::size_t i_hi = std::min(n_train, i_lo + kTrainBlock);
      for (std::size_t q = q_lo; q < q_hi; ++q) {
        const std::uint32_t* qrow = query_leaves.data() + q * trees;
        int* out = counts.data() + q * n_train;
        leaf_match_block(train_leaves.data() + i_lo * trees, i_hi - i_lo, trees, qrow,
                         out + i_lo);
      }
    }
  }
}

}  // namespace stob::wf
