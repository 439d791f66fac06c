// Open-world website-fingerprinting evaluation.
//
// The closed world of Table 2 (the censor knows the client visits one of 9
// sites) is the attacker's best case; the paper notes WF studies are often
// criticised for it (§2.2). This module implements the open-world protocol
// of k-FP (Hayes & Danezis): a set of *monitored* sites plus a large
// *background* of unmonitored traffic; the classifier must name the
// monitored site AND abstain on background traffic. Following k-FP, a test
// trace is assigned a monitored label only if all k nearest training
// fingerprints (random-forest leaf vectors) agree on it; otherwise it is
// classified as unmonitored.
//
// Metrics: TPR (monitored traces flagged as monitored — any monitored
// label), FPR (background traces falsely flagged), and closed-set accuracy
// among true positives.
#pragma once

#include <cstdint>

#include "wf/random_forest.hpp"

namespace stob::wf {

struct OpenWorldResult {
  double tpr = 0.0;                ///< monitored detected as monitored
  double fpr = 0.0;                ///< background flagged as monitored
  double precision = 0.0;          ///< flagged-and-actually-monitored / flagged
  double monitored_accuracy = 0.0; ///< correct site among true positives
  std::size_t monitored_tested = 0;
  std::size_t background_tested = 0;
};

class FeatureStore;

struct OpenWorldStreamConfig {
  RandomForest::Config forest;
  std::size_t k_neighbors = 3;  ///< unanimity over this many neighbours
  double train_fraction = 0.6;  ///< per-class split of the monitored store
  /// Background fingerprints folded into the training set, drawn by a
  /// deterministic stride over the store (row r trains iff r % step == 0,
  /// step = rows / bg_train_count) — O(bg_train_count) memory, no O(corpus)
  /// shuffle. Everything else in the background store is test traffic.
  std::size_t bg_train_count = 1000;
  std::size_t block_rows = 8192;  ///< background rows streamed per block
  std::size_t jobs = 1;           ///< worker threads (never changes results)
  std::uint64_t seed = 0x0B5Eull;
};

/// Open-world evaluation over mmap'd feature stores: the monitored store
/// (labels 0..M-1) is materialised for training/testing, the background
/// store is streamed block-wise with pages dropped behind the pass, so
/// peak memory is O(train set + one block) — constant in corpus size.
/// Per-block counters are reduced in block order via exp::run_ordered, so
/// results are identical for every `jobs` value; every background label is
/// ignored. Throws std::invalid_argument when either store holds no rows or
/// a monitored label lies outside [0, monitored.rows()). Deterministic for
/// a given config seed.
OpenWorldResult open_world_stream(const FeatureStore& monitored, const FeatureStore& background,
                                  const OpenWorldStreamConfig& cfg);

}  // namespace stob::wf
