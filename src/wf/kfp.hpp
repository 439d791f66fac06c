// k-FP website-fingerprinting attack (Hayes & Danezis) and its closed-world
// evaluation protocol, as used in Table 2 of the paper: a random forest over
// the k-FP feature set, evaluated with stratified cross-validation and
// reported as accuracy mean ± std.
//
// Two classification modes:
//  * forest vote (the "k-FP Random Forest accuracy" the paper tabulates),
//  * k-NN over leaf-id vectors (k-FP's original open-world mechanism),
// selectable via Config::use_knn.
//
// Training data lives in a contiguous FeatureMatrix; prediction and the
// leaf k-NN stage have batched entry points that the evaluation protocol
// uses. Batched and per-sample paths give identical results, and
// cross_validate(jobs > 1) is byte-identical to a serial run.
#pragma once

#include <cstdint>
#include <vector>

#include "wf/feature_matrix.hpp"
#include "wf/features.hpp"
#include "wf/random_forest.hpp"
#include "wf/trace.hpp"

namespace stob::wf {

class KFingerprint {
 public:
  struct Config {
    RandomForest::Config forest;
    bool use_knn = false;       ///< leaf-vector k-NN instead of forest vote
    std::size_t k_neighbors = 3;
  };

  KFingerprint() : KFingerprint(Config{}) {}
  explicit KFingerprint(Config cfg) : cfg_(cfg) {}

  /// Train on a labeled dataset (features are extracted internally).
  void fit(const Dataset& train);

  /// Train on pre-extracted features (row i is labels[i]'s feature vector).
  /// Labels are class ids >= 0; a negative one throws std::invalid_argument.
  void fit(const FeatureMatrix& x, const std::vector<int>& labels);

  int predict(const Trace& trace) const;
  int predict(std::span<const double> features) const;

  /// Batched predict; out[i] corresponds to x.row(i). Identical to calling
  /// predict() per row.
  std::vector<int> predict_batch(const FeatureMatrix& x) const;

  const RandomForest& forest() const { return forest_; }

 private:
  int knn_select(std::span<const int> counts) const;
  int knn_predict(std::span<const double> features) const;

  Config cfg_;
  RandomForest forest_;
  int num_classes_ = 0;
  // k-NN mode: training-sample fingerprints, row-major n_train x trees
  // (RandomForest::leaf_batch layout).
  std::vector<std::uint32_t> train_leaves_;
  std::vector<int> train_labels_;
};

/// Square confusion matrix; entry (t, p) counts true class t predicted p.
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(std::size_t classes = 0)
      : classes_(classes), counts_(classes * classes, 0) {}

  void add(int truth, int predicted) {
    counts_[static_cast<std::size_t>(truth) * classes_ + static_cast<std::size_t>(predicted)] += 1;
  }
  std::uint64_t at(int truth, int predicted) const {
    return counts_[static_cast<std::size_t>(truth) * classes_ +
                   static_cast<std::size_t>(predicted)];
  }
  std::size_t classes() const { return classes_; }
  double accuracy() const;
  /// Merge another matrix of the same shape.
  void merge(const ConfusionMatrix& other);

  friend bool operator==(const ConfusionMatrix&, const ConfusionMatrix&) = default;

 private:
  std::size_t classes_;
  std::vector<std::uint64_t> counts_;
};

struct EvalResult {
  double mean_accuracy = 0.0;
  double std_accuracy = 0.0;
  std::vector<double> fold_accuracies;
  ConfusionMatrix confusion{0};

  friend bool operator==(const EvalResult&, const EvalResult&) = default;
};

/// Stratified k-fold cross-validation of k-FP on `data` (closed world).
/// Deterministic for a given seed. Folds run in order; `jobs` workers
/// extract features and train each fold's trees (it overrides
/// cfg.forest.fit_jobs) without changing any result byte. Labels are class
/// ids >= 0; a negative one throws std::invalid_argument, as it does in
/// KFingerprint::fit.
EvalResult cross_validate(const Dataset& data, const KFingerprint::Config& cfg,
                          std::size_t folds = 5, std::uint64_t seed = 0x5EEDull,
                          std::size_t jobs = 1);

/// Same protocol on pre-extracted features (lets callers extract once and
/// evaluate many truncations/defenses cheaply).
EvalResult cross_validate(const FeatureMatrix& x, const std::vector<int>& labels,
                          const KFingerprint::Config& cfg, std::size_t folds = 5,
                          std::uint64_t seed = 0x5EEDull, std::size_t jobs = 1);

}  // namespace stob::wf
