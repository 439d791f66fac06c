// Tests for the WF toolkit: traces, recording, datasets, k-FP features,
// decision trees, random forests, the k-FP classifier and its evaluation
// protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "wf/decision_tree.hpp"
#include "wf/features.hpp"
#include "wf/kfp.hpp"
#include "wf/random_forest.hpp"
#include "wf/trace.hpp"

namespace stob::wf {
namespace {

Trace simple_trace() {
  Trace t;
  t.add(0.00, +1, 600);
  t.add(0.05, -1, 1514);
  t.add(0.06, -1, 1514);
  t.add(0.07, -1, 900);
  t.add(0.10, +1, 600);
  t.add(0.15, -1, 1514);
  return t;
}

// ------------------------------------------------------------------- Trace

TEST(Trace, Accounting) {
  const Trace t = simple_trace();
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.incoming_count(), 4u);
  EXPECT_EQ(t.outgoing_count(), 2u);
  EXPECT_EQ(t.incoming_bytes(), 1514 + 1514 + 900 + 1514);
  EXPECT_EQ(t.outgoing_bytes(), 1200);
  EXPECT_EQ(t.total_bytes(), t.incoming_bytes() + t.outgoing_bytes());
  EXPECT_NEAR(t.duration(), 0.15, 1e-12);
}

TEST(Trace, ByteSumsWrapInsteadOfOverflowing) {
  // A hostile CSV reaches these sums through sanitized_by_download_size;
  // two such packets overflowed the signed sums.
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 2 + 10;
  const auto wrapped = static_cast<std::int64_t>(2 * static_cast<std::uint64_t>(big));
  Trace t;
  t.add(0.0, -1, big);
  t.add(0.1, -1, big);
  t.add(0.2, +1, big);
  t.add(0.3, +1, big);
  EXPECT_EQ(t.incoming_bytes(), wrapped);
  EXPECT_EQ(t.outgoing_bytes(), wrapped);
  EXPECT_EQ(t.total_bytes(), static_cast<std::int64_t>(4 * static_cast<std::uint64_t>(big)));

  Dataset d;
  for (int i = 0; i < 4; ++i) d.add(t, 0);
  EXPECT_EQ(d.sanitized_by_download_size().size(), 4u);
}

TEST(Trace, NormalizeShiftsAndSorts) {
  Trace t;
  t.add(5.0, +1, 100);
  t.add(3.0, -1, 200);
  t.normalize();
  EXPECT_DOUBLE_EQ(t.packets()[0].time, 0.0);
  EXPECT_EQ(t.packets()[0].direction, -1);
  EXPECT_DOUBLE_EQ(t.packets()[1].time, 2.0);
}

// ------------------------------------------------- normalize() contract
//
// normalize() skips the sort on ordered input and repairs local disorder by
// insertion, so it is checked against the algorithm it replaced, bit for
// bit: +0.0 against -0.0 and NaN payloads count.

std::vector<PacketRecord> reference_normalize(std::vector<PacketRecord> v) {
  if (v.empty()) return v;
  std::stable_sort(v.begin(), v.end(),
                   [](const PacketRecord& a, const PacketRecord& b) { return a.time < b.time; });
  const double t0 = v.front().time;
  for (PacketRecord& p : v) p.time -= t0;
  return v;
}

void check_normalize(const std::vector<PacketRecord>& input, const std::string& what) {
  Trace t(input);
  t.normalize();
  const std::vector<PacketRecord> want = reference_normalize(input);
  ASSERT_EQ(t.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const PacketRecord& got = t.packets()[i];
    ASSERT_EQ(std::memcmp(&got.time, &want[i].time, sizeof(double)), 0)
        << what << ": packet " << i << " time " << got.time << " want " << want[i].time;
    ASSERT_EQ(got.direction, want[i].direction) << what << ": packet " << i;
    ASSERT_EQ(got.size, want[i].size) << what << ": packet " << i;
  }
}

/// `n` packets in time order, about 70 % incoming. Sizes count up, so any
/// reordering of equal times shows. With `ties`, times fall on a 1 ms grid
/// and many are equal.
std::vector<PacketRecord> ordered_packets(Rng& rng, std::size_t n, bool ties) {
  std::vector<PacketRecord> v;
  v.reserve(n);
  double t = rng.uniform(0.0, 5.0);
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(2000.0);
    const double time = ties ? std::floor(t * 1000.0) / 1000.0 : t;
    v.push_back({time, rng.chance(0.7) ? -1 : +1, static_cast<std::int64_t>(i)});
  }
  return v;
}

/// Split's emission order: a packet, then maybe its second half a little
/// later, overtaken by the next few packets.
std::vector<PacketRecord> split_like_packets(Rng& rng, std::size_t n, bool ties) {
  const std::vector<PacketRecord> in = ordered_packets(rng, n, ties);
  std::vector<PacketRecord> v;
  v.reserve(n);
  for (std::size_t i = 0; v.size() < n; ++i) {
    v.push_back(in[i]);
    if (v.size() < n && in[i].direction < 0 && rng.chance(0.6)) {
      v.push_back({in[i].time + rng.uniform(0.0, 0.004), -1,
                   static_cast<std::int64_t>(n + i)});
    }
  }
  return v;
}

/// Every shape the contract covers, at size `n`. Ordered input takes the
/// scan only, split-like input the insertion pass; from a few dozen packets
/// on, reversed and shuffled input run out of insertion budget, which covers
/// the stable-sort fallback on a partly insertion-sorted array.
std::vector<std::pair<std::string, std::vector<PacketRecord>>> normalize_inputs(Rng& rng,
                                                                               std::size_t n) {
  std::vector<std::pair<std::string, std::vector<PacketRecord>>> out;
  for (const bool ties : {false, true}) {
    const std::string tag = ties ? " ties" : "";
    out.emplace_back("ordered" + tag, ordered_packets(rng, n, ties));
    // Starts at +0.0: what every replay stage after the first reads.
    out.emplace_back("normalized" + tag, reference_normalize(ordered_packets(rng, n, ties)));
    out.emplace_back("split-like" + tag, split_like_packets(rng, n, ties));
    std::vector<PacketRecord> reversed = ordered_packets(rng, n, ties);
    std::reverse(reversed.begin(), reversed.end());
    out.emplace_back("reversed" + tag, std::move(reversed));
    std::vector<PacketRecord> shuffled = ordered_packets(rng, n, ties);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    out.emplace_back("shuffled" + tag, std::move(shuffled));
  }
  // The latest packet captured first: it travels back over the whole trace,
  // n moves, inside the insertion budget.
  std::vector<PacketRecord> last_first = ordered_packets(rng, n, false);
  if (n > 1) std::rotate(last_first.begin(), last_first.end() - 1, last_first.end());
  out.emplace_back("last-first", std::move(last_first));
  return out;
}

TEST(TraceNormalize, EmptyAndSinglePacket) {
  check_normalize({}, "empty");
  check_normalize({{3.5, -1, 1514}}, "single");
  check_normalize({{-0.0, +1, 60}}, "single -0.0");
  check_normalize({{std::numeric_limits<double>::infinity(), +1, 60}}, "single inf");
  check_normalize({{std::numeric_limits<double>::quiet_NaN(), +1, 60}}, "single NaN");
}

TEST(TraceNormalize, MatchesStableSortBitForBitAtEverySize) {
  Rng rng(0x5EED0001ull);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= 64; ++n) sizes.push_back(n);
  for (int i = 0; i < 180; ++i) {
    sizes.push_back(static_cast<std::size_t>(rng.uniform_int(65, 10000)));
  }
  for (const std::size_t n : sizes) {
    for (const auto& [shape, input] : normalize_inputs(rng, n)) {
      check_normalize(input, shape + " n=" + std::to_string(n));
    }
  }
}

TEST(TraceNormalize, NaNTakesTheStableSortAnywhere) {
  // Besides the default quiet NaN: one with sign and payload bits set, and
  // two signaling NaNs, which arithmetic quiets.
  const double nans[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::bit_cast<double>(0xFFF8000000C0FFEEull),
                         std::numeric_limits<double>::signaling_NaN(),
                         std::bit_cast<double>(0x7FF0000000000001ull)};
  Rng rng(0x5EED0002ull);
  for (const std::size_t n : {2u, 3u, 17u, 500u, 4096u}) {
    for (const double nan : nans) {
      for (const auto& [shape, base] : normalize_inputs(rng, n)) {
        for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
          std::vector<PacketRecord> v = base;
          v[at].time = nan;
          check_normalize(v, shape + " NaN at " + std::to_string(at) + " n=" + std::to_string(n));
        }
      }
    }
  }
}

TEST(TraceNormalize, InfinitiesAndNegativeZero) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(0x5EED0003ull);
  for (const std::size_t n : {2u, 3u, 64u, 1000u}) {
    for (const auto& [shape, base] : normalize_inputs(rng, n)) {
      const std::string at = " n=" + std::to_string(n);
      std::vector<PacketRecord> v = base;
      v.back().time = kInf;
      check_normalize(v, shape + " +inf last" + at);
      v.front().time = -kInf;
      check_normalize(v, shape + " -inf first, +inf last" + at);
      v = base;
      v[n / 2].time = -kInf;
      v[n / 3].time = kInf;
      check_normalize(v, shape + " +-inf inside" + at);
      v = base;
      v.front().time = -0.0;
      check_normalize(v, shape + " -0.0 first" + at);
      v.front().time = 0.0;
      v.back().time = -0.0;
      check_normalize(v, shape + " +0.0 first, -0.0 last" + at);
    }
  }
  // Signed zeros compare equal, so they keep their capture order.
  check_normalize({{-0.0, +1, 1}, {0.0, -1, 2}, {-0.0, -1, 3}, {1.0, -1, 4}}, "zeros -,+,-");
  check_normalize({{0.0, +1, 1}, {-0.0, -1, 2}, {0.5, -1, 3}, {0.0, -1, 4}}, "zeros +,-,late +");
}

TEST(Trace, TruncatedPrefix) {
  const Trace t = simple_trace();
  const Trace head = t.truncated(3);
  EXPECT_EQ(head.size(), 3u);
  EXPECT_EQ(head.packets()[2].size, 1514);
  EXPECT_EQ(t.truncated(100).size(), 6u);  // longer than trace: unchanged
}

TEST(Dataset, SanitizeDropsOutliers) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    Trace t;
    t.add(0.0, -1, 10'000 + i * 100);  // tight cluster
    d.add(std::move(t), 0);
  }
  Trace outlier;
  outlier.add(0.0, -1, 10'000'000);
  d.add(std::move(outlier), 0);
  const Dataset clean = d.sanitized_by_download_size();
  EXPECT_EQ(clean.size(), 10u);
}

TEST(Dataset, SanitizePerClass) {
  Dataset d;
  // Class 0 around 10 kB, class 1 around 1 MB: neither class's traces must
  // be judged against the other's distribution.
  for (int i = 0; i < 8; ++i) {
    Trace a, b;
    a.add(0.0, -1, 10'000 + i);
    b.add(0.0, -1, 1'000'000 + i);
    d.add(std::move(a), 0);
    d.add(std::move(b), 1);
  }
  const Dataset clean = d.sanitized_by_download_size();
  EXPECT_EQ(clean.size(), 16u);
}

TEST(Dataset, BalancedTruncates) {
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    Trace t;
    t.add(0.0, -1, 100);
    d.add(std::move(t), i % 2);
  }
  const Dataset b = d.balanced(2);
  EXPECT_EQ(b.size(), 4u);
}

TEST(Dataset, CsvRoundTrip) {
  Dataset d;
  d.add(simple_trace(), 3);
  d.add(simple_trace().truncated(2), 7);
  // Times that six decimals cannot hold: sub-microsecond parts, a tiny
  // value, and a simulated clock reading with full double precision.
  Trace fine;
  fine.add(0.0, +1, 600);
  fine.add(1e-7, -1, 1514);
  fine.add(0.1234567891, -1, 1514);
  fine.add(2.0 / 3.0, +1, 66);
  fine.add(12345.000000123, -1, 900);
  d.add(fine, 1);
  const auto path = std::filesystem::temp_directory_path() / "stob_ds_test.csv";
  d.save_csv(path);
  const Dataset back = Dataset::load_csv(path);
  std::filesystem::remove(path);
  ASSERT_EQ(back.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back.label(i), d.label(i)) << "trace " << i;
    const auto& want = d.trace(i).packets();
    const auto& got = back.trace(i).packets();
    ASSERT_EQ(got.size(), want.size()) << "trace " << i;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].time, want[j].time) << "trace " << i << " packet " << j;
      EXPECT_EQ(got[j].direction, want[j].direction) << "trace " << i << " packet " << j;
      EXPECT_EQ(got[j].size, want[j].size) << "trace " << i << " packet " << j;
    }
  }
}

TEST(Dataset, CsvRefusesNegativeTraceId) {
  const auto path = std::filesystem::temp_directory_path() / "stob_ds_negative_id.csv";
  {
    std::ofstream out(path);
    out << "trace_id,label,time,direction,size\n"
        << "0,2,0,1,600\n"
        << "-1,3,0.5,-1,1514\n";
  }
  try {
    (void)Dataset::load_csv(path);
    ADD_FAILURE() << "a negative trace_id was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("data row 2"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Dataset, CsvRefusesTraceIdsOutOfSequence) {
  // Rows of trace 0 split by trace 1, and a gap: neither can be the file
  // save_csv wrote, so neither loads.
  const auto path = std::filesystem::temp_directory_path() / "stob_ds_id_sequence.csv";
  for (const auto& [rows, want_row] :
       {std::pair<const char*, const char*>{"0,2,0,1,600\n1,3,0,1,600\n0,2,0.5,-1,1514\n",
                                            "data row 3"},
        std::pair<const char*, const char*>{"0,2,0,1,600\n2,3,0,1,600\n", "data row 2"},
        std::pair<const char*, const char*>{"1,2,0,1,600\n", "data row 1"}}) {
    {
      std::ofstream out(path);
      out << "trace_id,label,time,direction,size\n" << rows;
    }
    try {
      (void)Dataset::load_csv(path);
      ADD_FAILURE() << "ids out of sequence were accepted: " << rows;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(want_row), std::string::npos) << e.what();
    }
  }
  std::filesystem::remove(path);
}

TEST(Dataset, CsvRefusesToSaveAnEmptyTrace) {
  // An empty trace writes no rows, so every later trace would load one
  // index early; save_csv refuses it and names the trace.
  Dataset d;
  d.add(simple_trace(), 0);
  d.add(Trace{}, 1);
  d.add(simple_trace(), 2);
  const auto path = std::filesystem::temp_directory_path() / "stob_ds_empty_trace.csv";
  try {
    d.save_csv(path);
    ADD_FAILURE() << "a trace with no packets was saved";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trace 1 "), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- features

TEST(Features, CountMatchesNames) {
  EXPECT_EQ(kfp_features(simple_trace()).size(), kfp_feature_count());
  EXPECT_EQ(kfp_feature_names().size(), kfp_feature_count());
  EXPECT_GT(kfp_feature_count(), 100u);  // a real k-FP-scale feature set
}

TEST(Features, EmptyTraceIsFiniteZeros) {
  const auto f = kfp_features(Trace{});
  ASSERT_EQ(f.size(), kfp_feature_count());
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(Features, IntoRejectsSpanOfAnyOtherSize) {
  // A short span would silently lose the tail features, a long one keep
  // stale values past the last.
  const std::size_t n = kfp_feature_count();
  std::vector<double> shorter(n - 1, 7.0), longer(n + 1, 7.0), exact(n, 7.0);
  EXPECT_THROW(kfp_features_into(simple_trace(), shorter), std::invalid_argument);
  EXPECT_THROW(kfp_features_into(simple_trace(), longer), std::invalid_argument);
  EXPECT_THROW(kfp_features_into(simple_trace(), std::span<double>{}), std::invalid_argument);
  kfp_features_into(simple_trace(), exact);
  EXPECT_EQ(exact, kfp_features(simple_trace()));
}

TEST(Features, DeterministicForSameTrace) {
  EXPECT_EQ(kfp_features(simple_trace()), kfp_features(simple_trace()));
}

TEST(Features, CountsAreCorrect) {
  const auto names = kfp_feature_names();
  const auto f = kfp_features(simple_trace());
  auto value_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return f[i];
    }
    ADD_FAILURE() << "missing feature " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(value_of("count_total"), 6.0);
  EXPECT_DOUBLE_EQ(value_of("count_in"), 4.0);
  EXPECT_DOUBLE_EQ(value_of("count_out"), 2.0);
  EXPECT_DOUBLE_EQ(value_of("bytes_in"), 5442.0);
  EXPECT_DOUBLE_EQ(value_of("time_total"), 0.15);
}

TEST(Features, SensitiveToDirectionPattern) {
  Trace a = simple_trace();
  Trace b = simple_trace();
  for (auto& p : b.packets()) p.direction = -p.direction;
  EXPECT_NE(kfp_features(a), kfp_features(b));
}

// ----------------------------------------------------------- decision tree

struct TwoBlobs {
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  FeatureMatrix x;

  explicit TwoBlobs(int n = 100, double sep = 4.0, std::uint64_t seed = 9) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      rows.push_back({rng.normal(0, 1), rng.normal(0, 1), rng.uniform(0, 1)});
      labels.push_back(0);
      rows.push_back({rng.normal(sep, 1), rng.normal(sep, 1), rng.uniform(0, 1)});
      labels.push_back(1);
    }
    x = FeatureMatrix::from_rows(rows);
  }
  TrainView view() const { return {&x, labels, 2}; }
};

TEST(DecisionTree, FitsSeparableData) {
  TwoBlobs blobs;
  DecisionTree::Config cfg;
  cfg.max_features = 3;  // use all features
  DecisionTree tree(cfg);
  std::vector<std::size_t> idx(blobs.rows.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(1);
  tree.fit(blobs.view(), idx, rng);
  int correct = 0;
  for (std::size_t i = 0; i < blobs.rows.size(); ++i) {
    correct += tree.predict(blobs.rows[i]) == blobs.labels[i];
  }
  EXPECT_EQ(correct, static_cast<int>(blobs.rows.size()));  // training fit
  EXPECT_TRUE(tree.trained());
}

TEST(DecisionTree, RespectsMaxDepth) {
  TwoBlobs blobs(200, 0.5);  // heavily overlapping: deep tree needed
  DecisionTree::Config cfg;
  cfg.max_depth = 3;
  DecisionTree tree(cfg);
  std::vector<std::size_t> idx(blobs.rows.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(1);
  tree.fit(blobs.view(), idx, rng);
  EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTree, ProbaSumsToOne) {
  TwoBlobs blobs;
  DecisionTree tree;
  std::vector<std::size_t> idx(blobs.rows.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(2);
  tree.fit(blobs.view(), idx, rng);
  const auto p = tree.predict_proba(blobs.rows[0]);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
}

TEST(DecisionTree, EmptyFitThrows) {
  DecisionTree tree;
  FeatureMatrix x;
  std::vector<int> labels;
  TrainView view{&x, labels, 2};
  std::vector<std::size_t> idx;
  Rng rng(1);
  EXPECT_THROW(tree.fit(view, idx, rng), std::invalid_argument);
}

TEST(DecisionTree, SingleClassIsLeaf) {
  const std::vector<std::vector<double>> rows{{1.0}, {2.0}, {3.0}};
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);
  std::vector<int> labels{1, 1, 1};
  TrainView view{&x, labels, 2};
  std::vector<std::size_t> idx{0, 1, 2};
  DecisionTree tree;
  Rng rng(1);
  tree.fit(view, idx, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(rows[0]), 1);
}

// ------------------------------------------------------------ random forest

TEST(RandomForest, BeatsChanceOnNoisyBlobs) {
  TwoBlobs train(150, 2.0, 11), test(50, 2.0, 22);
  RandomForest::Config cfg;
  cfg.num_trees = 30;
  RandomForest forest(cfg);
  forest.fit(train.view());
  int correct = 0;
  for (std::size_t i = 0; i < test.rows.size(); ++i) {
    correct += forest.predict(test.rows[i]) == test.labels[i];
  }
  // Blobs separated by 2 sigma overlap; Bayes-optimal is ~92%.
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.rows.size()), 0.8);
}

TEST(RandomForest, DeterministicForSeed) {
  TwoBlobs blobs(50, 1.0, 5);
  RandomForest::Config cfg;
  cfg.num_trees = 10;
  RandomForest a(cfg), b(cfg);
  a.fit(blobs.view());
  b.fit(blobs.view());
  for (std::size_t i = 0; i < blobs.rows.size(); ++i) {
    EXPECT_EQ(a.predict(blobs.rows[i]), b.predict(blobs.rows[i]));
  }
}

TEST(RandomForest, LeafVectorHasOneEntryPerTree) {
  TwoBlobs blobs(30);
  RandomForest::Config cfg;
  cfg.num_trees = 7;
  RandomForest forest(cfg);
  forest.fit(blobs.view());
  EXPECT_EQ(forest.leaf_vector(blobs.rows[0]).size(), 7u);
}

TEST(RandomForest, ProbaAveragesTrees) {
  TwoBlobs blobs(80);
  RandomForest forest;
  forest.fit(blobs.view());
  const auto p = forest.predict_proba(blobs.rows[0]);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
  EXPECT_GT(p[0], 0.5);  // first row belongs to class 0's blob
}

// -------------------------------------------------------------------- k-FP

/// Synthetic "websites": class-dependent trace shapes with noise.
Dataset synthetic_sites(int classes, int samples_per_class, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int c = 0; c < classes; ++c) {
    for (int s = 0; s < samples_per_class; ++s) {
      Trace t;
      double time = 0.0;
      const int bursts = 3 + c;
      for (int b = 0; b < bursts; ++b) {
        t.add(time, +1, 600);
        time += rng.uniform(0.01, 0.02);
        const int in_pkts = 5 + 4 * c + static_cast<int>(rng.uniform_int(0, 3));
        for (int k = 0; k < in_pkts; ++k) {
          t.add(time, -1, 1200 + 40 * c);
          time += rng.uniform(0.001, 0.003);
        }
        time += rng.uniform(0.005, 0.02);
      }
      t.normalize();
      d.add(std::move(t), c);
    }
  }
  return d;
}

TEST(KFingerprint, HighAccuracyOnSeparableSites) {
  const Dataset data = synthetic_sites(5, 20, 31);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 40;
  const EvalResult res = cross_validate(data, cfg, 4);
  EXPECT_GT(res.mean_accuracy, 0.9);
  EXPECT_EQ(res.fold_accuracies.size(), 4u);
}

TEST(KFingerprint, KnnModeAlsoWorks) {
  const Dataset data = synthetic_sites(4, 16, 37);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 30;
  cfg.use_knn = true;
  const EvalResult res = cross_validate(data, cfg, 4);
  EXPECT_GT(res.mean_accuracy, 0.85);
}

TEST(KFingerprint, PredictBeforeFitThrows) {
  KFingerprint clf;
  EXPECT_THROW(clf.predict(simple_trace()), std::logic_error);
}

TEST(KFingerprint, DeterministicEvaluation) {
  const Dataset data = synthetic_sites(3, 12, 41);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 15;
  const EvalResult a = cross_validate(data, cfg, 3, 77);
  const EvalResult b = cross_validate(data, cfg, 3, 77);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(a.fold_accuracies, b.fold_accuracies);
}

TEST(KFingerprint, AccuracyGrowsWithPrefixLength) {
  // The paper's core observation: more packets -> higher attack accuracy.
  const Dataset data = synthetic_sites(5, 20, 43);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 40;
  const Dataset head = data.transformed([](const Trace& t) { return t.truncated(5); });
  const EvalResult short_res = cross_validate(head, cfg, 4);
  const EvalResult full_res = cross_validate(data, cfg, 4);
  EXPECT_GE(full_res.mean_accuracy, short_res.mean_accuracy);
}

TEST(CrossValidate, AggregatesFoldAccuracies) {
  const Dataset data = synthetic_sites(3, 12, 59);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 15;
  const EvalResult res = cross_validate(data, cfg, 3, 5);
  ASSERT_EQ(res.fold_accuracies.size(), 3u);
  for (double a : res.fold_accuracies) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
  EXPECT_DOUBLE_EQ(res.mean_accuracy, stats::mean(res.fold_accuracies));
  EXPECT_DOUBLE_EQ(res.std_accuracy, stats::stddev(res.fold_accuracies));
  // Every sample lands in the merged confusion matrix exactly once, and its
  // trace equals the unweighted mean of the folds only when folds are equal
  // sized (they are here: 36 samples / 3 folds).
  std::size_t total = 0;
  double diag = 0;
  for (int a = 0; a < 3; ++a) {
    for (int p = 0; p < 3; ++p) total += res.confusion.at(a, p);
  }
  for (int c = 0; c < 3; ++c) diag += static_cast<double>(res.confusion.at(c, c));
  EXPECT_EQ(total, data.size());
  EXPECT_NEAR(res.confusion.accuracy(), diag / static_cast<double>(total), 1e-12);
  EXPECT_NEAR(res.confusion.accuracy(), res.mean_accuracy, 1e-12);
}

TEST(CrossValidate, OutOfRangeLabelIsRejected) {
  // Dataset::load_csv takes any integer label. A -1 row is dealt to no fold,
  // so it would stay in fold 0's test set and index the confusion matrix
  // (and the forest's class counts) out of bounds. INT_MAX made
  // `max + 1` overflow, and any label far above the row count sized a
  // classes x classes confusion matrix for it. 40 rows take labels 0..39.
  FeatureMatrix x(40, 3);
  std::vector<int> labels;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t f = 0; f < x.cols(); ++f) x.at(r, f) = static_cast<double>(r % 4 + f);
    labels.push_back(static_cast<int>(r % 4));
  }
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 4;
  for (const int bad : {-1, 40, std::numeric_limits<int>::max()}) {
    labels[17] = bad;
    try {
      cross_validate(x, labels, cfg, 5);
      ADD_FAILURE() << "cross_validate accepted label " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("row 17"), std::string::npos) << e.what();
    }
    KFingerprint clf(cfg);
    EXPECT_THROW(clf.fit(x, labels), std::invalid_argument) << bad;
    EXPECT_FALSE(clf.forest().trained());
  }
  labels[17] = 39;
  KFingerprint clf(cfg);
  EXPECT_NO_THROW(clf.fit(x, labels));

  Dataset data = synthetic_sites(2, 6, 3);
  data.add(simple_trace(), -5);
  EXPECT_THROW(cross_validate(data, cfg, 3), std::invalid_argument);
  EXPECT_THROW(clf.fit(data), std::invalid_argument);
}

TEST(ConfusionMatrix, AccuracyAndMerge) {
  ConfusionMatrix a(2), b(2);
  a.add(0, 0);
  a.add(1, 0);
  b.add(1, 1);
  b.add(1, 1);
  a.merge(b);
  EXPECT_EQ(a.at(1, 1), 2u);
  EXPECT_NEAR(a.accuracy(), 0.75, 1e-9);
}

TEST(CrossValidate, RejectsBadArguments) {
  const Dataset data = synthetic_sites(2, 4, 1);
  KFingerprint::Config cfg;
  EXPECT_THROW(cross_validate(data, cfg, 1), std::invalid_argument);
  FeatureMatrix x;
  std::vector<int> labels;
  EXPECT_THROW(cross_validate(x, labels, cfg, 3), std::invalid_argument);
}

}  // namespace
}  // namespace stob::wf
