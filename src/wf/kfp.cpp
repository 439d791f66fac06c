#include "wf/kfp.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/prof.hpp"
#include "util/stats.hpp"
#include "wf/leaf_knn.hpp"

namespace stob::wf {

namespace {

/// Class ids index the forest's class counts and the confusion matrix, so
/// a negative one (Dataset::load_csv takes any integer) is refused.
void require_class_ids(const std::vector<int>& labels, const char* where) {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0) {
      throw std::invalid_argument(std::string(where) + ": row " + std::to_string(i) +
                                  " has negative label " + std::to_string(labels[i]));
    }
  }
}

}  // namespace

void KFingerprint::fit(const Dataset& train) {
  fit(kfp_features(train), train.labels());
}

void KFingerprint::fit(const FeatureMatrix& x, const std::vector<int>& labels) {
  if (x.rows() != labels.size() || x.empty()) {
    throw std::invalid_argument("KFingerprint::fit: rows/labels mismatch or empty");
  }
  require_class_ids(labels, "KFingerprint::fit");
  obs::ProfSpan span("wf.fit");
  num_classes_ = *std::max_element(labels.begin(), labels.end()) + 1;
  TrainView view{&x, labels, num_classes_};
  forest_ = RandomForest(cfg_.forest);
  forest_.fit(view);
  train_leaves_.clear();
  train_labels_.clear();
  if (cfg_.use_knn) {
    obs::ProfSpan leaf_span("wf.leaf_index");
    train_leaves_ = forest_.leaf_batch(x);
    train_labels_ = labels;
  }
}

int KFingerprint::predict(const Trace& trace) const { return predict(kfp_features(trace)); }

int KFingerprint::predict(std::span<const double> features) const {
  if (!forest_.trained()) throw std::logic_error("KFingerprint::predict before fit");
  return cfg_.use_knn ? knn_predict(features) : forest_.predict(features);
}

/// Neighbour selection over precomputed leaf-agreement counts. Verbatim the
/// historical per-sample logic (scored vector in train order, partial_sort
/// on matches, map-ordered vote) so batched and per-sample paths pick the
/// same neighbours even on ties.
int KFingerprint::knn_select(std::span<const int> counts) const {
  std::vector<std::pair<int, int>> scored;  // (matches, label)
  scored.reserve(train_labels_.size());
  for (std::size_t i = 0; i < train_labels_.size(); ++i) {
    scored.emplace_back(counts[i], train_labels_[i]);
  }
  const std::size_t k = std::min(cfg_.k_neighbors, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
                    scored.end(), [](const auto& a, const auto& b) { return a.first > b.first; });
  std::map<int, int> votes;
  for (std::size_t i = 0; i < k; ++i) votes[scored[i].second] += 1;
  return std::max_element(votes.begin(), votes.end(), [](const auto& a, const auto& b) {
           return a.second < b.second;
         })->first;
}

int KFingerprint::knn_predict(std::span<const double> features) const {
  const std::vector<std::uint32_t> q = forest_.leaf_vector(features);
  std::vector<int> counts(train_labels_.size());
  leaf_match_counts(train_leaves_, train_labels_.size(), q, counts);
  return knn_select(counts);
}

std::vector<int> KFingerprint::predict_batch(const FeatureMatrix& x) const {
  if (!forest_.trained()) throw std::logic_error("KFingerprint::predict_batch before fit");
  obs::ProfSpan span("wf.predict");
  if (!cfg_.use_knn) return forest_.predict_batch(x);

  const std::size_t n_query = x.rows();
  const std::size_t n_train = train_labels_.size();
  const std::size_t trees = forest_.tree_count();
  const std::vector<std::uint32_t> query_leaves = forest_.leaf_batch(x);
  std::vector<int> out(n_query, 0);
  // Chunk queries so the agreement matrix stays modest for large test sets.
  constexpr std::size_t kChunk = 256;
  std::vector<int> counts;
  for (std::size_t lo = 0; lo < n_query; lo += kChunk) {
    const std::size_t hi = std::min(n_query, lo + kChunk);
    counts.assign((hi - lo) * n_train, 0);
    leaf_match_matrix(train_leaves_, n_train,
                      {query_leaves.data() + lo * trees, (hi - lo) * trees}, hi - lo, trees,
                      counts);
    for (std::size_t q = lo; q < hi; ++q) {
      out[q] = knn_select({counts.data() + (q - lo) * n_train, n_train});
    }
  }
  return out;
}

// --------------------------------------------------------- ConfusionMatrix

double ConfusionMatrix::accuracy() const {
  std::uint64_t correct = 0, total = 0;
  for (std::size_t t = 0; t < classes_; ++t) {
    for (std::size_t p = 0; p < classes_; ++p) {
      const std::uint64_t c = counts_[t * classes_ + p];
      total += c;
      if (t == p) correct += c;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(total);
}

void ConfusionMatrix::merge(const ConfusionMatrix& other) {
  if (other.classes_ != classes_) throw std::invalid_argument("confusion: shape mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

// ----------------------------------------------------------- cross_validate

EvalResult cross_validate(const Dataset& data, const KFingerprint::Config& cfg,
                          std::size_t folds, std::uint64_t seed, std::size_t jobs) {
  FeatureMatrix x = [&] {
    obs::ProfSpan span("wf.features");
    return kfp_features(data, jobs);
  }();
  return cross_validate(x, data.labels(), cfg, folds, seed, jobs);
}

EvalResult cross_validate(const FeatureMatrix& x, const std::vector<int>& labels,
                          const KFingerprint::Config& cfg, std::size_t folds, std::uint64_t seed,
                          std::size_t jobs) {
  if (x.rows() != labels.size() || x.empty()) {
    throw std::invalid_argument("cross_validate: rows/labels mismatch or empty");
  }
  if (folds < 2) throw std::invalid_argument("cross_validate: need >= 2 folds");
  require_class_ids(labels, "cross_validate");
  obs::ProfSpan span("wf.cross_validate");
  const int num_classes = *std::max_element(labels.begin(), labels.end()) + 1;

  // Stratified fold assignment: shuffle within each class, deal round-robin.
  const std::size_t n = x.rows();
  std::vector<std::size_t> fold_of(n);
  Rng rng(seed);
  for (int cls = 0; cls < num_classes; ++cls) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == cls) idx.push_back(i);
    }
    std::shuffle(idx.begin(), idx.end(), rng);
    for (std::size_t j = 0; j < idx.size(); ++j) fold_of[idx[j]] = j % folds;
  }

  // Folds run one after another, and each fold's forest trains its trees
  // on the `jobs` workers: trees are many and of similar cost where folds
  // are few (five folds on two workers leave one idle for a third of the
  // run), and tree seeds are forked serially, so the model is the same at
  // any worker count. Merging in fold order keeps every result byte that
  // of the serial loop.
  EvalResult result;
  result.confusion = ConfusionMatrix(static_cast<std::size_t>(num_classes));
  std::vector<std::size_t> train_idx, test_idx;
  std::vector<int> train_labels;
  for (std::size_t f = 0; f < folds; ++f) {
    train_idx.clear();
    test_idx.clear();
    for (std::size_t i = 0; i < n; ++i) (fold_of[i] == f ? test_idx : train_idx).push_back(i);
    if (test_idx.empty() || train_idx.empty()) continue;

    train_labels.clear();
    for (std::size_t i : train_idx) train_labels.push_back(labels[i]);

    KFingerprint::Config fold_cfg = cfg;
    fold_cfg.forest.seed = seed ^ (0x9E3779B97F4A7C15ull * (f + 1));
    fold_cfg.forest.fit_jobs = jobs;
    KFingerprint clf(fold_cfg);
    clf.fit(x.gathered(train_idx), train_labels);

    const std::vector<int> predicted = clf.predict_batch(x.gathered(test_idx));
    ConfusionMatrix cm(static_cast<std::size_t>(num_classes));
    for (std::size_t j = 0; j < test_idx.size(); ++j) cm.add(labels[test_idx[j]], predicted[j]);
    result.fold_accuracies.push_back(cm.accuracy());
    result.confusion.merge(cm);
  }
  result.mean_accuracy = stats::mean(result.fold_accuracies);
  result.std_accuracy = stats::stddev(result.fold_accuracies);
  return result;
}

}  // namespace stob::wf
