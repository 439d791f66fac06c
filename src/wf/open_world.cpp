#include "wf/open_world.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/worker_pool.hpp"
#include "util/rng.hpp"
#include "wf/corpus.hpp"
#include "wf/feature_matrix.hpp"
#include "wf/features.hpp"
#include "wf/leaf_knn.hpp"

namespace stob::wf {

namespace {

/// k-FP rule: monitored verdict only on unanimous k nearest fingerprints.
/// `scored` is caller scratch (reused across queries).
int knn_verdict(std::span<const int> counts, std::span<const int> train_labels,
                std::size_t k_neighbors, int background_label,
                std::vector<std::pair<int, int>>& scored) {
  const std::size_t n_train = train_labels.size();
  scored.clear();
  scored.reserve(n_train);
  for (std::size_t i = 0; i < n_train; ++i) scored.emplace_back(counts[i], train_labels[i]);
  const std::size_t k = std::min(k_neighbors, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
                    scored.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  const int first = scored[0].second;
  if (first == background_label) return background_label;
  for (std::size_t i = 1; i < k; ++i) {
    if (scored[i].second != first) return background_label;  // not unanimous
  }
  return first;
}

}  // namespace

OpenWorldResult open_world_stream(const FeatureStore& monitored, const FeatureStore& background,
                                  const OpenWorldStreamConfig& cfg) {
  const std::size_t features = kfp_feature_count();
  if (monitored.cols() != features || background.cols() != features) {
    throw CorpusError(CorpusErrorCode::DimMismatch, "store cols != kfp_feature_count()");
  }
  if (monitored.rows() == 0 || background.rows() == 0) {
    throw std::invalid_argument("open_world_stream: need monitored and background rows");
  }
  // Labels are outside data: the store's checksum shows they arrived
  // intact, not that they are valid. Each must name a class below the row
  // count, which also bounds the per-class passes below by the rows.
  const std::size_t mon_rows = monitored.rows();
  int num_monitored_classes = 0;
  for (std::size_t r = 0; r < mon_rows; ++r) {
    const std::int32_t label = monitored.label(r);
    if (label < 0 || static_cast<std::uint64_t>(label) >= mon_rows) {
      throw std::invalid_argument("open_world_stream: monitored row " + std::to_string(r) +
                                  " has label " + std::to_string(label) + " outside [0, " +
                                  std::to_string(mon_rows) + ")");
    }
    num_monitored_classes = std::max(num_monitored_classes, label + 1);
  }
  const int background_label = num_monitored_classes;

  Rng rng(cfg.seed);

  // Per-class stratified split of the (small, materialisable) monitored
  // store.
  std::vector<std::size_t> mon_train_rows;
  std::vector<int> train_labels;
  std::vector<std::size_t> mon_test;
  for (int cls = 0; cls < num_monitored_classes; ++cls) {
    std::vector<std::size_t> idx;
    for (std::size_t r = 0; r < mon_rows; ++r) {
      if (monitored.label(r) == cls) idx.push_back(r);
    }
    std::shuffle(idx.begin(), idx.end(), rng);
    const auto train_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(cfg.train_fraction * static_cast<double>(idx.size())));
    for (std::size_t j = 0; j < idx.size(); ++j) {
      if (j < train_count) {
        mon_train_rows.push_back(idx[j]);
        train_labels.push_back(cls);
      } else {
        mon_test.push_back(idx[j]);
      }
    }
  }

  // Background training fingerprints: a deterministic stride sample, so
  // membership of row r is a pure function of (rows, bg_train_count) — no
  // O(corpus) index shuffle is ever materialised.
  const std::uint64_t bg_rows = background.rows();
  const std::uint64_t bg_train_target =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(cfg.bg_train_count, bg_rows));
  const std::uint64_t step = std::max<std::uint64_t>(1, bg_rows / bg_train_target);
  const auto is_bg_train = [step, bg_train_target](std::uint64_t r) {
    return r % step == 0 && r / step < bg_train_target;
  };
  std::uint64_t bg_train = 0;
  for (std::uint64_t r = 0; r < bg_rows; r += step) {
    if (is_bg_train(r)) ++bg_train;
  }

  // Training matrix: monitored train rows then background sample rows.
  FeatureMatrix train_x(mon_train_rows.size() + bg_train, features);
  for (std::size_t r = 0; r < mon_train_rows.size(); ++r) {
    const double* src = monitored.row(mon_train_rows[r]);
    std::copy(src, src + features, train_x.row(r).begin());
  }
  {
    std::size_t w = mon_train_rows.size();
    for (std::uint64_t r = 0; r < bg_rows; r += step) {
      if (!is_bg_train(r)) continue;
      const double* src = background.row(r);
      std::copy(src, src + features, train_x.row(w++).begin());
      train_labels.push_back(background_label);
    }
  }

  RandomForest forest(cfg.forest);
  forest.fit({&train_x, train_labels, num_monitored_classes + 1});

  const std::size_t trees = forest.tree_count();
  const std::size_t n_train = train_x.rows();
  const std::vector<std::uint32_t> train_leaves = forest.leaf_batch(train_x);

  OpenWorldResult out;
  out.monitored_tested = mon_test.size();

  // Monitored test set (small): gather, fingerprint, classify.
  std::size_t true_pos = 0, correct_site = 0;
  if (!mon_test.empty()) {
    FeatureMatrix qx(mon_test.size(), features);
    for (std::size_t r = 0; r < mon_test.size(); ++r) {
      const double* src = monitored.row(mon_test[r]);
      std::copy(src, src + features, qx.row(r).begin());
    }
    const std::vector<std::uint32_t> q_leaves = forest.leaf_batch(qx);
    std::vector<int> counts(n_train, 0);
    std::vector<std::pair<int, int>> scored;
    for (std::size_t q = 0; q < mon_test.size(); ++q) {
      leaf_match_counts(train_leaves, n_train, {q_leaves.data() + q * trees, trees}, counts);
      const int v =
          knn_verdict(counts, train_labels, cfg.k_neighbors, background_label, scored);
      if (v != background_label) {
        ++true_pos;
        if (v == monitored.label(mon_test[q])) ++correct_site;
      }
    }
  }

  // Background test traffic: streamed block-wise straight off the mapping.
  // Each block is fingerprinted with the raw-pointer leaf_batch (no copy),
  // classified, and its pages dropped; per-block counters come back through
  // exp::run_ordered's ordered reduce, so totals are independent of jobs.
  struct BlockStats {
    std::uint64_t false_pos = 0;
    std::uint64_t tested = 0;
  };
  const std::uint64_t block_rows = std::max<std::size_t>(1, cfg.block_rows);
  const std::uint64_t num_blocks = (bg_rows + block_rows - 1) / block_rows;
  const std::vector<BlockStats> blocks = exp::run_ordered<BlockStats>(
      static_cast<std::size_t>(num_blocks), cfg.jobs, [&](std::size_t b) {
        const std::uint64_t lo = static_cast<std::uint64_t>(b) * block_rows;
        const std::uint64_t n = std::min<std::uint64_t>(block_rows, bg_rows - lo);
        const double* rows = background.block(lo, n);
        std::vector<std::uint32_t> q_leaves(n * trees);
        forest.leaf_batch(rows, background.row_stride(), n, q_leaves.data());
        BlockStats stats;
        std::vector<int> counts(n_train, 0);
        std::vector<std::pair<int, int>> scored;
        for (std::uint64_t q = 0; q < n; ++q) {
          if (is_bg_train(lo + q)) continue;  // training rows are not test traffic
          leaf_match_counts(train_leaves, n_train, {q_leaves.data() + q * trees, trees},
                            counts);
          const int v =
              knn_verdict(counts, train_labels, cfg.k_neighbors, background_label, scored);
          stats.tested += 1;
          if (v != background_label) stats.false_pos += 1;
        }
        background.drop_rows(lo, n);  // return this block's pages to the kernel
        return stats;
      });

  std::uint64_t false_pos = 0, bg_tested = 0;
  for (const BlockStats& s : blocks) {
    false_pos += s.false_pos;
    bg_tested += s.tested;
  }
  out.background_tested = static_cast<std::size_t>(bg_tested);

  if (!mon_test.empty()) {
    out.tpr = static_cast<double>(true_pos) / static_cast<double>(mon_test.size());
  }
  if (bg_tested > 0) {
    out.fpr = static_cast<double>(false_pos) / static_cast<double>(bg_tested);
  }
  if (true_pos + false_pos > 0) {
    out.precision = static_cast<double>(true_pos) / static_cast<double>(true_pos + false_pos);
  }
  if (true_pos > 0) {
    out.monitored_accuracy = static_cast<double>(correct_site) / static_cast<double>(true_pos);
  }
  return out;
}

}  // namespace stob::wf
