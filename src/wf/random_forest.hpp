// Random forest classifier (bagging + per-split feature subsampling), the
// learner behind k-FP. Deterministic given the seed — including under
// parallel training (fit_jobs > 1): per-tree RNG streams are forked
// serially up front, so every tree sees the same stream regardless of
// scheduling, and results are byte-identical to a serial fit.
//
// After fit() the per-tree node structures are flattened into one
// contiguous pool of packed 24-byte nodes (all trees back to back; layout
// in forest_layout.hpp), which the batch kernels (predict_batch /
// predict_proba_batch / leaf_batch) walk over blocks of samples: tree
// nodes stay cache-hot across a block instead of being re-fetched per
// sample. Descent itself goes through kernels::descend_block, the 4-lane
// scalar kernel of simd_kernels.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "wf/decision_tree.hpp"
#include "wf/feature_matrix.hpp"
#include "wf/forest_layout.hpp"

namespace stob::wf {

class RandomForest {
 public:
  struct Config {
    std::size_t num_trees = 100;
    DecisionTree::Config tree;
    std::uint64_t seed = 0xF0E57ull;
    /// Bootstrap sample fraction per tree (with replacement).
    double bootstrap_fraction = 1.0;
    /// Worker threads for tree training (1 = serial, 0 = hardware default).
    /// Never affects results, only wall clock.
    std::size_t fit_jobs = 1;
  };

  RandomForest() : RandomForest(Config{}) {}
  explicit RandomForest(Config cfg) : cfg_(cfg) {}

  void fit(const TrainView& view);

  /// Majority vote across trees.
  int predict(std::span<const double> x) const;

  /// Mean per-class probability across trees.
  std::vector<double> predict_proba(std::span<const double> x) const;

  /// Leaf-id vector (one entry per tree, tree-local node index); k-FP's
  /// fingerprint of a sample.
  std::vector<std::uint32_t> leaf_vector(std::span<const double> x) const;

  /// Batched predict over a whole matrix; out[i] corresponds to x.row(i).
  /// Identical results to calling predict() per row.
  std::vector<int> predict_batch(const FeatureMatrix& x) const;

  /// Batched probabilities, row-major rows x num_classes(). Bit-identical
  /// to predict_proba() per row (same tree-order accumulation).
  std::vector<double> predict_proba_batch(const FeatureMatrix& x) const;

  /// Batched leaf vectors, row-major rows x tree_count(), tree-local ids.
  std::vector<std::uint32_t> leaf_batch(const FeatureMatrix& x) const;

  std::size_t tree_count() const { return trees_.size(); }
  int num_classes() const { return num_classes_; }
  bool trained() const { return !trees_.empty(); }

  /// Per-tree structures (kept after flattening; parity tests walk both).
  const std::vector<DecisionTree>& trees() const { return trees_; }

 private:
  /// All trees' nodes in one contiguous pool of packed FlatNode records
  /// (forest_layout.hpp). Child and distribution offsets are absolute;
  /// tree_base[t] is tree t's root (and the bias subtracted to recover
  /// tree-local leaf ids).
  struct Flat {
    std::vector<FlatNode> nodes;
    std::vector<double> dists;
    std::vector<std::uint32_t> tree_base;  // tree_count()+1 entries
  };

  void flatten();
  std::uint32_t descend_flat(std::uint32_t root, const double* x) const;
  /// leaf_batch over `rows` samples at x + r*stride (stride in doubles);
  /// `out` must hold rows x tree_count() entries.
  void leaf_batch(const double* x, std::size_t stride, std::size_t rows,
                  std::uint32_t* out) const;

  Config cfg_;
  int num_classes_ = 0;
  std::vector<DecisionTree> trees_;
  Flat flat_;
};

}  // namespace stob::wf
