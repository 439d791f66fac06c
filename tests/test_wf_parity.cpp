// Differential parity tests for the batched WF attack engine.
//
// The engine overhaul (flattened structure-of-arrays forest, batch
// kernels, parallel training) promises byte-identical results to the
// straightforward per-sample/per-tree path. These tests pin that contract:
// every flat/batched entry point is compared against the recursive
// DecisionTree walk it replaced, across seeds, class counts, and the
// degenerate shapes (single class, constant features, zero feature rows)
// where tie-breaking bugs hide.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "defenses/policy.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"
#include "wf/feature_matrix.hpp"
#include "wf/features.hpp"
#include "wf/kfp.hpp"
#include "wf/leaf_knn.hpp"
#include "wf/random_forest.hpp"
#include "wf/synth_traces.hpp"

namespace stob::wf {
namespace {

struct Problem {
  FeatureMatrix x;
  std::vector<int> labels;
  int classes = 0;
};

/// Gaussian blobs; `spread` near the class separation makes trees deep and
/// tie-prone. `constant_cols` columns are all-equal (exercise the
/// constant-feature skip), and with `zero_rows` the first rows are
/// all-zero like features of an empty trace.
Problem make_problem(int classes, int per_class, std::size_t features, std::uint64_t seed,
                     std::size_t constant_cols = 0, std::size_t zero_rows = 0) {
  Problem p;
  p.classes = classes;
  p.x = FeatureMatrix(static_cast<std::size_t>(classes) * static_cast<std::size_t>(per_class),
                      features);
  Rng rng(seed);
  std::size_t r = 0;
  for (int c = 0; c < classes; ++c) {
    for (int s = 0; s < per_class; ++s, ++r) {
      for (std::size_t f = 0; f < features; ++f) {
        if (f < constant_cols) {
          p.x.at(r, f) = 7.5;
        } else if (r < zero_rows) {
          p.x.at(r, f) = 0.0;
        } else {
          p.x.at(r, f) = rng.normal(static_cast<double>(c), 2.0);
        }
      }
      p.labels.push_back(c);
    }
  }
  return p;
}

/// Reference implementations walking the per-tree recursive structures the
/// flat pool was built from.
int reference_predict(const RandomForest& forest, std::span<const double> x) {
  std::vector<int> votes(static_cast<std::size_t>(forest.num_classes()), 0);
  for (const DecisionTree& tree : forest.trees()) {
    votes[static_cast<std::size_t>(tree.predict(x))] += 1;
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<double> reference_proba(const RandomForest& forest, std::span<const double> x) {
  std::vector<double> acc(static_cast<std::size_t>(forest.num_classes()), 0.0);
  for (const DecisionTree& tree : forest.trees()) {
    const std::vector<double> p = tree.predict_proba(x);
    for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  for (double& v : acc) v /= static_cast<double>(forest.tree_count());
  return acc;
}

std::vector<std::uint32_t> reference_leaves(const RandomForest& forest,
                                            std::span<const double> x) {
  std::vector<std::uint32_t> leaves;
  for (const DecisionTree& tree : forest.trees()) leaves.push_back(tree.leaf_id(x));
  return leaves;
}

TEST(FlatForestParity, MatchesRecursiveTreesAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 0xF0E57ull, 42ull}) {
    for (int classes : {2, 5, 9}) {
      const Problem p = make_problem(classes, 12, 40, seed);
      RandomForest::Config cfg;
      cfg.num_trees = 20;
      cfg.seed = seed ^ 0xABCDull;
      RandomForest forest(cfg);
      forest.fit({&p.x, p.labels, p.classes});
      for (std::size_t r = 0; r < p.x.rows(); ++r) {
        const std::span<const double> row = p.x.row(r);
        EXPECT_EQ(forest.predict(row), reference_predict(forest, row));
        EXPECT_EQ(forest.predict_proba(row), reference_proba(forest, row));  // bit-exact
        EXPECT_EQ(forest.leaf_vector(row), reference_leaves(forest, row));
      }
    }
  }
}

TEST(FlatForestParity, BatchMatchesPerSample) {
  const Problem p = make_problem(6, 15, 30, 99, /*constant_cols=*/3, /*zero_rows=*/5);
  RandomForest::Config cfg;
  cfg.num_trees = 25;
  RandomForest forest(cfg);
  forest.fit({&p.x, p.labels, p.classes});

  const std::vector<int> preds = forest.predict_batch(p.x);
  const std::vector<double> probas = forest.predict_proba_batch(p.x);
  const std::vector<std::uint32_t> leaves = forest.leaf_batch(p.x);
  const auto classes = static_cast<std::size_t>(p.classes);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    const std::span<const double> row = p.x.row(r);
    EXPECT_EQ(preds[r], forest.predict(row));
    const std::vector<double> pr = forest.predict_proba(row);
    for (std::size_t c = 0; c < classes; ++c) {
      EXPECT_EQ(probas[r * classes + c], pr[c]);  // bit-exact, not NEAR
    }
    const std::vector<std::uint32_t> lv = forest.leaf_vector(row);
    for (std::size_t t = 0; t < forest.tree_count(); ++t) {
      EXPECT_EQ(leaves[r * forest.tree_count() + t], lv[t]);
    }
  }
}

TEST(FlatForestParity, SingleClassDegenerates) {
  Problem p = make_problem(1, 8, 10, 3);
  RandomForest::Config cfg;
  cfg.num_trees = 5;
  RandomForest forest(cfg);
  forest.fit({&p.x, p.labels, 1});
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    EXPECT_EQ(forest.predict(p.x.row(r)), 0);
    EXPECT_EQ(forest.predict_proba(p.x.row(r)), std::vector<double>{1.0});
  }
  EXPECT_EQ(forest.predict_batch(p.x), std::vector<int>(p.x.rows(), 0));
}

TEST(FlatForestParity, ParallelFitIdenticalToSerial) {
  const Problem p = make_problem(5, 14, 25, 7);
  for (std::size_t jobs : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    RandomForest::Config serial_cfg;
    serial_cfg.num_trees = 16;
    serial_cfg.fit_jobs = 1;
    RandomForest::Config par_cfg = serial_cfg;
    par_cfg.fit_jobs = jobs;
    RandomForest a(serial_cfg), b(par_cfg);
    a.fit({&p.x, p.labels, p.classes});
    b.fit({&p.x, p.labels, p.classes});
    for (std::size_t r = 0; r < p.x.rows(); ++r) {
      EXPECT_EQ(a.predict_proba(p.x.row(r)), b.predict_proba(p.x.row(r)));
      EXPECT_EQ(a.leaf_vector(p.x.row(r)), b.leaf_vector(p.x.row(r)));
    }
  }
}

TEST(LeafKnnKernel, MatchesNaiveCounts) {
  Rng rng(0xC0DEull);
  const std::size_t trees = 33, n_train = 150, n_query = 70;
  std::vector<std::uint32_t> train(n_train * trees), query(n_query * trees);
  // Small leaf-id alphabet so agreements are frequent.
  for (auto& v : train) v = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
  for (auto& v : query) v = static_cast<std::uint32_t>(rng.uniform_int(0, 6));

  std::vector<int> tiled(n_query * n_train);
  leaf_match_matrix(train, n_train, query, n_query, trees, tiled);
  for (std::size_t q = 0; q < n_query; ++q) {
    std::vector<int> single(n_train);
    leaf_match_counts(train, n_train, {query.data() + q * trees, trees}, single);
    for (std::size_t i = 0; i < n_train; ++i) {
      int naive = 0;
      for (std::size_t t = 0; t < trees; ++t) {
        naive += query[q * trees + t] == train[i * trees + t];
      }
      EXPECT_EQ(tiled[q * n_train + i], naive);
      EXPECT_EQ(single[i], naive);
    }
  }
}

TEST(KfpParity, KnnBatchMatchesPerSample) {
  const Problem p = make_problem(4, 20, 20, 0xBEEFull);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 15;
  cfg.use_knn = true;
  KFingerprint clf(cfg);
  clf.fit(p.x, p.labels);
  const std::vector<int> batch = clf.predict_batch(p.x);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    EXPECT_EQ(batch[r], clf.predict(p.x.row(r)));
  }
}

TEST(KfpParity, CrossValidateParallelFoldsIdentical) {
  const Problem p = make_problem(4, 12, 18, 0x5EEDull);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 12;
  const EvalResult serial = cross_validate(p.x, p.labels, cfg, 4, 77, /*jobs=*/1);
  for (std::size_t jobs : {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    const EvalResult par = cross_validate(p.x, p.labels, cfg, 4, 77, jobs);
    EXPECT_EQ(serial, par);  // defaulted ==: every field, bit for bit
  }
  // Inner training parallelism must not leak into results either.
  KFingerprint::Config inner = cfg;
  inner.forest.fit_jobs = 4;
  EXPECT_EQ(serial, cross_validate(p.x, p.labels, cfg, 4, 77, 1));
  EXPECT_EQ(serial, cross_validate(p.x, p.labels, inner, 4, 77, 2));
}

TEST(KfpParity, EmptyTraceRowsSurviveThePipeline) {
  // Feature rows of empty traces are all zeros; they must train and
  // classify without UB and identically in batch and per-sample form.
  Dataset d;
  Rng rng(5);
  for (int c = 0; c < 3; ++c) {
    for (int s = 0; s < 6; ++s) {
      Trace t;
      if (c != 0 || s != 0) {  // one genuinely empty trace in class 0
        double time = 0.0;
        for (int k = 0; k < 4 + 2 * c; ++k) {
          t.add(time, k % 2 == 0 ? +1 : -1, 600 + 100 * c);
          time += rng.uniform(0.001, 0.01);
        }
      }
      d.add(std::move(t), c);
    }
  }
  const FeatureMatrix x = kfp_features(d);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 10;
  KFingerprint clf(cfg);
  clf.fit(x, d.labels());
  const std::vector<int> batch = clf.predict_batch(x);
  for (std::size_t r = 0; r < x.rows(); ++r) EXPECT_EQ(batch[r], clf.predict(x.row(r)));
}

// ------------------------------------------------- feature extraction

/// Traces of every awkward shape, 103 of them (a prime, so no block of
/// rows divides them evenly): empty, 1- and 2-packet, one-direction,
/// duplicate timestamps, unnormalized (time-shuffled) and plain random.
Dataset awkward_corpus() {
  Rng rng(0xF00Dull);
  Dataset d;
  for (int i = 0; i < 103; ++i) {
    Trace t;
    const int kind = i % 7;
    const int n = kind == 0 ? 0 : kind == 1 ? 1 : kind == 2 ? 2 : 20 + i;
    double time = 0.0;
    for (int k = 0; k < n; ++k) {
      const int dir = kind == 3 ? -1 : kind == 4 ? +1 : rng.chance(0.4) ? +1 : -1;
      t.add(time, dir, rng.uniform_int(40, 1514));
      if (kind != 5 || rng.chance(0.3)) time += rng.uniform(0.0, 0.05);  // 5: many ties
    }
    if (kind == 6) std::shuffle(t.packets().begin(), t.packets().end(), rng);
    d.add(std::move(t), i % 3);
  }
  return d;
}

TEST(KfpFeatureParity, ParallelRowsMatchPerTraceExtraction) {
  const Dataset d = awkward_corpus();
  const std::size_t bytes = kfp_feature_count() * sizeof(double);
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    const FeatureMatrix m = kfp_features(d, jobs);
    ASSERT_EQ(m.rows(), d.size());
    for (std::size_t r = 0; r < d.size(); ++r) {
      const std::vector<double> want = kfp_features(d.trace(r));
      EXPECT_EQ(std::memcmp(m.row(r).data(), want.data(), bytes), 0)
          << "jobs=" << jobs << " row=" << r;
    }
  }
}

std::size_t feature_index(std::string_view name) {
  const std::vector<std::string>& names = kfp_feature_names();
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << name;
  return static_cast<std::size_t>(it - names.begin());
}

/// min, max, median and p75 as feature extraction computed them before
/// selection: one full sort, then the front, the back and two
/// percentile_sorted reads (all zero for an empty list).
std::array<double, 4> sorted_stats(std::vector<double> xs) {
  if (xs.empty()) return {0.0, 0.0, 0.0, 0.0};
  std::sort(xs.begin(), xs.end());
  return {xs.front(), xs.back(), stats::percentile_sorted(xs, 50.0),
          stats::percentile_sorted(xs, 75.0)};
}

TEST(KfpFeatureParity, SelectionStatisticsMatchSortFormula) {
  // Random lists of 0-70 values drawn from a handful of levels (heavy
  // duplicates) reach add_stats as the incoming/outgoing size lists and the
  // inter-arrival gaps; half the traces are time-shuffled, so the gaps go
  // negative and the time quantiles take the sorting path.
  Rng rng(0x5E1Eull);
  for (int trial = 0; trial < 300; ++trial) {
    Trace t;
    const int n = static_cast<int>(rng.uniform_int(0, 70));
    double time = 0.0;
    for (int k = 0; k < n; ++k) {
      t.add(time, rng.chance(0.5) ? +1 : -1, 100 * rng.uniform_int(1, 4));
      time += 0.001 * static_cast<double>(rng.uniform_int(0, 3));
    }
    if (rng.chance(0.5)) std::shuffle(t.packets().begin(), t.packets().end(), rng);
    std::vector<double> in_sizes, out_sizes, times, gaps;
    for (const PacketRecord& p : t.packets()) {
      (p.direction > 0 ? out_sizes : in_sizes).push_back(static_cast<double>(p.size));
      if (!times.empty()) gaps.push_back(p.time - times.back());
      times.push_back(p.time);
    }
    const std::vector<double> f = kfp_features(t);
    for (const auto& [prefix, list] : {std::pair{"size_in", &in_sizes},
                                       std::pair{"size_out", &out_sizes},
                                       std::pair{"iat_all", &gaps}}) {
      const std::array<double, 4> want = sorted_stats(*list);
      const std::array<const char*, 4> suffix = {"_min", "_max", "_median", "_p75"};
      for (std::size_t i = 0; i < 4; ++i) {
        const double got = f.at(feature_index(std::string(prefix) + suffix[i]));
        EXPECT_EQ(std::memcmp(&got, &want[i], sizeof(double)), 0)
            << prefix << suffix[i] << " trial=" << trial << " got=" << got
            << " want=" << want[i];
      }
    }
    for (const auto& [name, p] : {std::pair{"time_q25_all", 25.0},
                                  std::pair{"time_q50_all", 50.0},
                                  std::pair{"time_q75_all", 75.0}}) {
      const double got = f.at(feature_index(name));
      const double want = stats::percentile(times, p);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << name << " trial=" << trial;
    }
  }
}

// ------------------------------------------- feature bytes at full size

/// Traces the size of a page load (2,000-8,000 packets) with every awkward
/// trait at once: heavy duplicates (a few size and time levels), directions
/// from {+1, -1, 0}, times at -0.0 and +0.0 (so gaps come out -0.0), and,
/// when `shuffled`, times out of order (negative gaps, sorted quantiles).
Trace hostile_long_trace(Rng& rng, bool shuffled) {
  Trace t;
  const int n = static_cast<int>(rng.uniform_int(2000, 8000));
  double time = 0.0;
  for (int k = 0; k < n; ++k) {
    const int dir = rng.chance(0.05) ? 0 : rng.chance(0.35) ? +1 : -1;
    const std::int64_t size = rng.chance(0.6) ? 1514 : 66 * rng.uniform_int(1, 4);
    const double at = time < 0.01 && rng.chance(0.5) ? -0.0 : time;
    t.add(at, dir, size);
    if (rng.chance(0.4)) time += 0.001 * static_cast<double>(rng.uniform_int(1, 3));
  }
  if (shuffled) std::shuffle(t.packets().begin(), t.packets().end(), rng);
  return t;
}

/// The seeded corpus the feature golden hashes: four instances of each of
/// nine synthetic sites, undefended and under `combined`; twenty instances
/// of each site played back to back (2-6k packets), both ways; the first-30
/// prefix of every one of those; and eight hostile_long_trace()s.
std::vector<Trace> golden_feature_corpus() {
  std::vector<Trace> plain;
  for (int site = 0; site < 9; ++site) {
    for (std::uint64_t i = 0; i < 4; ++i) plain.push_back(synth_site_trace(0x601Dull, site, i));
    Trace joined;
    double offset = 0.0;
    for (std::uint64_t i = 0; i < 20; ++i) {
      const Trace part = synth_site_trace(0x601Dull, site, 100 + i);
      for (const PacketRecord& p : part.packets()) {
        joined.add(offset + p.time, p.direction, p.size);
      }
      offset += part.duration() + 0.25;
    }
    plain.push_back(std::move(joined));
  }
  std::vector<Trace> corpus;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const std::unique_ptr<defenses::Policy> policy = defenses::make_policy("combined");
    Rng rng(0xDEF0ull + i);
    corpus.push_back(plain[i]);
    corpus.push_back(defenses::run_policy(*policy, plain[i], rng));
  }
  for (std::size_t i = 0, whole = corpus.size(); i < whole; ++i) {
    corpus.push_back(corpus[i].truncated(30));
  }
  Rng rng(0xB16ull);
  for (int i = 0; i < 8; ++i) corpus.push_back(hostile_long_trace(rng, i % 2 == 1));
  return corpus;
}

TEST(KfpFeatureGolden, SeededCorpusDigest) {
  // SHA-256 over every feature byte of golden_feature_corpus(), recorded
  // before the extractor was restructured into fewer passes. Any change to
  // a feature value (the sign of a zero included) moves it; a deliberate
  // change to the feature set must re-record it and say why.
  util::Sha256 sha;
  std::size_t packets = 0;
  for (const Trace& t : golden_feature_corpus()) {
    const std::vector<double> f = kfp_features(t);
    sha.update(f.data(), f.size() * sizeof(double));
    packets += t.size();
  }
  EXPECT_GT(packets, 100'000u);  // the corpus reaches page-load sizes
  EXPECT_EQ(sha.hex_digest(),
            "c382fe99bfc91338451a357cbecc087166647377e53689a627478c4f76e542eb");
}

/// The straightforward reading of an add_stats bundle: mean and stddev by
/// stats::, the order statistics from a full sort.
std::array<double, 6> reference_stats(std::vector<double> xs) {
  const double mean = stats::mean(xs);
  const double sd = stats::stddev(xs);
  const std::array<double, 4> order = sorted_stats(std::move(xs));
  return {mean, sd, order[0], order[1], order[2], order[3]};
}

TEST(KfpFeatureParity, PageLoadSizedTracesMatchReference) {
  // The extractor against a one-list-at-a-time reference on full-size
  // hostile traces. Values compare with ==, not memcmp: with -0.0 and +0.0
  // in one list, which zero a sort and a selection leave at a rank is
  // unspecified (KfpFeatureGolden pins the bytes).
  Rng rng(0x1A26Eull);
  for (int trial = 0; trial < 12; ++trial) {
    const Trace t = hostile_long_trace(rng, trial % 3 == 2);
    const auto& pkts = t.packets();
    std::vector<double> in_sizes, out_sizes, times, in_times, out_times, bursts, in_bursts;
    std::int64_t bytes_in = 0, bytes_out = 0;
    double out_run = 0, in_run = 0;
    for (const PacketRecord& p : pkts) {
      times.push_back(p.time);
      (p.direction > 0 ? out_sizes : in_sizes).push_back(static_cast<double>(p.size));
      (p.direction > 0 ? out_times : in_times).push_back(p.time);
      if (p.direction < 0) bytes_in += p.size;
      if (p.direction > 0) bytes_out += p.size;
      if (p.direction > 0) {
        out_run += 1;
      } else if (out_run > 0) {
        bursts.push_back(std::exchange(out_run, 0));
      }
      if (p.direction < 0) {
        in_run += 1;
      } else if (in_run > 0) {
        in_bursts.push_back(std::exchange(in_run, 0));
      }
    }
    if (out_run > 0) bursts.push_back(out_run);
    if (in_run > 0) in_bursts.push_back(in_run);
    const auto gaps = [](const std::vector<double>& ts) {
      std::vector<double> g;
      for (std::size_t i = 1; i < ts.size(); ++i) g.push_back(ts[i] - ts[i - 1]);
      return g;
    };
    const std::vector<double> f = kfp_features(t);
    const auto expect = [&](const std::string& name, double want) {
      EXPECT_EQ(f.at(feature_index(name)), want) << name << " trial=" << trial;
    };
    for (const auto& [prefix, list] :
         {std::pair{"size_in", in_sizes}, std::pair{"size_out", out_sizes},
          std::pair{"iat_all", gaps(times)}, std::pair{"iat_in", gaps(in_times)},
          std::pair{"iat_out", gaps(out_times)}, std::pair{"burst_len", bursts},
          std::pair{"in_burst_len", in_bursts}}) {
      const std::array<double, 6> want = reference_stats(list);
      const std::array<const char*, 6> suffix = {"_mean", "_std",    "_min",
                                                 "_max",  "_median", "_p75"};
      for (std::size_t i = 0; i < 6; ++i) expect(std::string(prefix) + suffix[i], want[i]);
    }
    expect("count_out", static_cast<double>(out_sizes.size()));
    expect("count_in", static_cast<double>(in_sizes.size()));
    expect("burst_count", static_cast<double>(bursts.size()));
    expect("in_burst_count", static_cast<double>(in_bursts.size()));
    expect("burst_gt5", static_cast<double>(std::count_if(
                            bursts.begin(), bursts.end(), [](double b) { return b > 5; })));
    expect("bytes_in", static_cast<double>(bytes_in));
    expect("bytes_out", static_cast<double>(bytes_out));
    expect("bytes_total", static_cast<double>(t.total_bytes()));
    for (const auto& [name, ts, p] : {std::tuple{"time_q25_all", &times, 25.0},
                                      std::tuple{"time_q50_in", &in_times, 50.0},
                                      std::tuple{"time_q75_out", &out_times, 75.0}}) {
      expect(name, stats::percentile(*ts, p));
    }
    // Byte milestones: the first incoming packet whose running total
    // reaches each fraction of the incoming bytes.
    for (const auto& [name, frac] : {std::pair{"time_to_in_frac_25", 0.25},
                                     std::pair{"time_to_in_frac_50", 0.5},
                                     std::pair{"time_to_in_frac_75", 0.75}}) {
      double acc = 0.0, reached = 0.0;
      for (const PacketRecord& p : pkts) {
        if (p.direction >= 0) continue;
        acc += static_cast<double>(p.size);
        if (acc >= frac * static_cast<double>(bytes_in)) {
          reached = p.time;
          break;
        }
      }
      expect(name, reached);
    }
  }
}

TEST(KfpFeatureParity, UnevenTraceLengthsSameBytesAtAnyJobs) {
  // Rows ordered by site as a collected dataset is, with trace lengths
  // 100-4,000 packets (40x) and a few empty traces between them: however
  // rows are cut into blocks for the workers, every row's bytes are those
  // of extracting its trace alone.
  Rng rng(0x40Full);
  Dataset d;
  for (int site = 0; site < 6; ++site) {
    const int len = std::array{100, 4000, 250, 1200, 3000, 600}[static_cast<std::size_t>(site)];
    for (int s = 0; s < 9; ++s) {
      Trace t;
      if (s != 4) {
        double time = 0.0;
        for (int k = 0; k < len; ++k) {
          t.add(time, rng.chance(0.3) ? +1 : -1, rng.uniform_int(60, 1514));
          time += rng.uniform(0.0, 0.002);
        }
      }
      d.add(std::move(t), site);
    }
  }
  const std::size_t bytes = kfp_feature_count() * sizeof(double);
  const FeatureMatrix serial = kfp_features(d, 1);
  for (std::size_t r = 0; r < d.size(); ++r) {
    const std::vector<double> want = kfp_features(d.trace(r));
    ASSERT_EQ(std::memcmp(serial.row(r).data(), want.data(), bytes), 0) << "row=" << r;
  }
  for (std::size_t jobs : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    const FeatureMatrix m = kfp_features(d, jobs);
    ASSERT_EQ(m.rows(), d.size());
    for (std::size_t r = 0; r < d.size(); ++r) {
      EXPECT_EQ(std::memcmp(m.row(r).data(), serial.row(r).data(), bytes), 0)
          << "jobs=" << jobs << " row=" << r;
    }
  }
}

TEST(KfpParity, CrossValidateOnTracesIdenticalAtAnyJobs) {
  // The Dataset overload extracts features on the same `jobs` as its folds.
  const Dataset d = awkward_corpus();
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 8;
  const EvalResult serial = cross_validate(d, cfg, 3, 91, /*jobs=*/1);
  for (std::size_t jobs : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    EXPECT_EQ(serial, cross_validate(d, cfg, 3, 91, jobs)) << "jobs=" << jobs;
  }
}

// ----------------------------------------------- accuracy aggregation

TEST(ConfusionMatrix, ComparesByValue) {
  ConfusionMatrix a(2), b(2);
  a.add(0, 0);
  b.add(0, 0);
  EXPECT_EQ(a, b);
  b.add(1, 0);
  EXPECT_NE(a, b);
}

TEST(CrossValidate, MeanAndStdAggregateFoldAccuracies) {
  // Two cleanly separable classes: every fold should be perfect, so the
  // aggregate must be exactly mean=1, std=0 over `folds` entries.
  Problem p = make_problem(2, 10, 8, 21);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    p.x.at(r, 0) = p.labels[r] == 0 ? -100.0 : 100.0;  // trivially separable
  }
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 8;
  const EvalResult res = cross_validate(p.x, p.labels, cfg, 5, 3);
  ASSERT_EQ(res.fold_accuracies.size(), 5u);
  EXPECT_EQ(res.mean_accuracy, 1.0);
  EXPECT_EQ(res.std_accuracy, 0.0);
  // Confusion matrix totals every test sample exactly once.
  std::uint64_t total = 0;
  for (int t = 0; t < 2; ++t) {
    for (int q = 0; q < 2; ++q) total += res.confusion.at(t, q);
  }
  EXPECT_EQ(total, p.x.rows());
}

TEST(CrossValidate, TestFoldMayContainClassAbsentFromTraining) {
  // Class 2 has a single sample: whichever fold holds it trains without
  // class 2 entirely. The protocol must not crash, must still test that
  // sample (it cannot be predicted correctly), and the confusion matrix
  // row for class 2 must land in some other class's column.
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  Rng rng(13);
  for (int c = 0; c < 2; ++c) {
    for (int s = 0; s < 8; ++s) {
      rows.push_back({rng.normal(c * 10.0, 1.0), rng.normal(0, 1)});
      labels.push_back(c);
    }
  }
  rows.push_back({rng.normal(20.0, 1.0), rng.normal(0, 1)});
  labels.push_back(2);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  KFingerprint::Config cfg;
  cfg.forest.num_trees = 8;
  const EvalResult res = cross_validate(x, labels, cfg, 4, 9);
  ASSERT_EQ(res.confusion.classes(), 3u);
  std::uint64_t class2_row = 0;
  for (int pcol = 0; pcol < 3; ++pcol) class2_row += res.confusion.at(2, pcol);
  EXPECT_EQ(class2_row, 1u);          // the lone sample was tested exactly once
  EXPECT_EQ(res.confusion.at(2, 2), 0u);  // and could not be predicted as class 2
  std::uint64_t total = 0;
  for (int t = 0; t < 3; ++t) {
    for (int pcol = 0; pcol < 3; ++pcol) total += res.confusion.at(t, pcol);
  }
  EXPECT_EQ(total, x.rows());  // every sample tested exactly once overall
}

}  // namespace
}  // namespace stob::wf
