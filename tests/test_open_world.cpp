// Open-world k-FP evaluation tests over feature stores, the path
// openworld_scale runs: the unanimity rule, metric accounting, behaviour on
// separable vs indistinguishable data, and the input checks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "wf/corpus.hpp"
#include "wf/feature_matrix.hpp"
#include "wf/features.hpp"
#include "wf/open_world.hpp"

namespace stob::wf {
namespace {

namespace fs = std::filesystem;

/// Monitored sites with strong structure; background with diffuse random
/// structure (every background trace unlike the others).
Dataset monitored_sites(int classes, int samples, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int c = 0; c < classes; ++c) {
    for (int s = 0; s < samples; ++s) {
      Trace t;
      double time = 0;
      for (int b = 0; b < 3 + 2 * c; ++b) {
        t.add(time, +1, 580 + 10 * c);
        time += rng.uniform(0.008, 0.012);
        for (int k = 0; k < 8 + 6 * c; ++k) {
          t.add(time, -1, 1100 + 60 * c);
          time += rng.uniform(0.001, 0.002);
        }
      }
      d.add(std::move(t), c);
    }
  }
  return d;
}

Dataset random_background(int samples, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int s = 0; s < samples; ++s) {
    Trace t;
    double time = 0;
    const int bursts = static_cast<int>(rng.uniform_int(2, 20));
    for (int b = 0; b < bursts; ++b) {
      t.add(time, +1, rng.uniform_int(200, 900));
      time += rng.uniform(0.002, 0.05);
      const int pkts = static_cast<int>(rng.uniform_int(2, 40));
      for (int k = 0; k < pkts; ++k) {
        t.add(time, -1, rng.uniform_int(400, 1514));
        time += rng.uniform(0.0005, 0.004);
      }
    }
    d.add(std::move(t), 0);
  }
  return d;
}

/// 40 trees; 60 % of the background trains, the rest is test traffic,
/// streamed in blocks of 16 rows so every evaluation crosses blocks.
OpenWorldStreamConfig small_config(const FeatureStore& background) {
  OpenWorldStreamConfig cfg;
  cfg.forest.num_trees = 40;
  cfg.k_neighbors = 3;
  cfg.bg_train_count = static_cast<std::size_t>(background.rows()) * 6 / 10;
  cfg.block_rows = 16;
  return cfg;
}

/// Each test writes its stores into a directory of its own, removed after.
class OpenWorld : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("stob_open_world_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes one row per feature row of `x` with the matching label.
  fs::path write_store(const std::string& name, const FeatureMatrix& x,
                       const std::vector<int>& labels) const {
    const fs::path path = dir_ / name;
    FeatureStoreWriter writer(path, x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) writer.append_row(x.row(r), labels[r]);
    writer.finish();
    return path;
  }

  /// The k-FP features of `data`, labelled as in `data`.
  fs::path write_store(const std::string& name, const Dataset& data) const {
    return write_store(name, kfp_features(data), data.labels());
  }

  fs::path dir_;
};

TEST_F(OpenWorld, DetectsMonitoredAndRejectsBackground) {
  const FeatureStore mon(write_store("mon", monitored_sites(4, 20, 31)));
  const FeatureStore bg(write_store("bg", random_background(80, 37)));
  const OpenWorldResult res = open_world_stream(mon, bg, small_config(bg));
  EXPECT_GT(res.tpr, 0.6);
  EXPECT_LT(res.fpr, 0.2);
  EXPECT_GT(res.monitored_accuracy, 0.8);  // true positives name the right site
  EXPECT_GT(res.monitored_tested, 0u);
  EXPECT_GT(res.background_tested, 0u);
}

TEST_F(OpenWorld, DeterministicForSeedAndJobs) {
  const FeatureStore mon(write_store("mon", monitored_sites(3, 14, 41)));
  const FeatureStore bg(write_store("bg", random_background(40, 43)));
  const OpenWorldResult a = open_world_stream(mon, bg, small_config(bg));
  const OpenWorldResult b = open_world_stream(mon, bg, small_config(bg));
  OpenWorldStreamConfig two_jobs = small_config(bg);
  two_jobs.jobs = 2;
  const OpenWorldResult c = open_world_stream(mon, bg, two_jobs);
  for (const OpenWorldResult& r : {b, c}) {
    EXPECT_EQ(a.tpr, r.tpr);
    EXPECT_EQ(a.fpr, r.fpr);
    EXPECT_EQ(a.precision, r.precision);
    EXPECT_EQ(a.monitored_accuracy, r.monitored_accuracy);
    EXPECT_EQ(a.background_tested, r.background_tested);
  }
}

TEST_F(OpenWorld, UnanimityTradesTprForFpr) {
  // Raising k makes the unanimity requirement stricter: fewer monitored
  // detections, but never more background false positives.
  const FeatureStore mon(write_store("mon", monitored_sites(4, 18, 51)));
  const FeatureStore bg(write_store("bg", random_background(60, 53)));
  OpenWorldStreamConfig loose = small_config(bg);
  loose.k_neighbors = 1;
  OpenWorldStreamConfig strict = small_config(bg);
  strict.k_neighbors = 6;
  const OpenWorldResult l = open_world_stream(mon, bg, loose);
  const OpenWorldResult s = open_world_stream(mon, bg, strict);
  EXPECT_GE(l.tpr, s.tpr);
  EXPECT_GE(l.fpr, s.fpr);
}

TEST_F(OpenWorld, EmptyInputsThrow) {
  // The store format has no empty state: a store without rows is refused
  // when it is opened, so no empty input reaches the evaluator.
  const fs::path path = dir_ / "empty";
  FeatureStoreWriter writer(path, kfp_feature_count());
  writer.finish();
  try {
    const FeatureStore empty(path);
    FAIL() << "an empty store opened";
  } catch (const CorpusError& e) {
    EXPECT_EQ(e.code(), CorpusErrorCode::Empty);
  }
}

TEST_F(OpenWorld, MonitoredLabelAtOrAboveRowCountThrows) {
  // INT32_MAX passes the store's checksum (the writer computed it); the
  // evaluator must refuse it before `label + 1` overflows, and must not run
  // one per-class pass for every class up to it.
  const Dataset data = monitored_sites(2, 6, 81);
  const FeatureMatrix x = kfp_features(data);
  const FeatureStore bg(write_store("bg", random_background(12, 83)));
  const int rows = static_cast<int>(data.size());
  for (const int bad : {std::numeric_limits<std::int32_t>::max(), rows}) {
    std::vector<int> labels = data.labels();
    labels[3] = bad;
    const FeatureStore mon(write_store("mon_" + std::to_string(bad), x, labels));
    EXPECT_THROW(open_world_stream(mon, bg, small_config(bg)), std::invalid_argument) << bad;
  }
  // The largest label the check admits still evaluates.
  std::vector<int> labels = data.labels();
  labels[3] = rows - 1;
  const FeatureStore mon(write_store("mon_last", x, labels));
  EXPECT_NO_THROW(open_world_stream(mon, bg, small_config(bg)));
}

TEST_F(OpenWorld, NegativeMonitoredLabelThrows) {
  // A negative label belongs to no class, so its row would silently drop
  // out of both the training and the test split.
  const Dataset data = monitored_sites(2, 6, 91);
  std::vector<int> labels = data.labels();
  labels[0] = -1;
  const FeatureStore mon(write_store("mon", kfp_features(data), labels));
  const FeatureStore bg(write_store("bg", random_background(12, 93)));
  EXPECT_THROW(open_world_stream(mon, bg, small_config(bg)), std::invalid_argument);
}

TEST_F(OpenWorld, MetricsWithinBounds) {
  const FeatureStore mon(write_store("mon", monitored_sites(3, 10, 71)));
  const FeatureStore bg(write_store("bg", random_background(30, 73)));
  const OpenWorldResult res = open_world_stream(mon, bg, small_config(bg));
  EXPECT_GE(res.tpr, 0.0);
  EXPECT_LE(res.tpr, 1.0);
  EXPECT_GE(res.fpr, 0.0);
  EXPECT_LE(res.fpr, 1.0);
  EXPECT_GE(res.precision, 0.0);
  EXPECT_LE(res.precision, 1.0);
  EXPECT_EQ(res.background_tested, 30u - 18u);  // 18 of 30 rows train
}

}  // namespace
}  // namespace stob::wf
