// Unit tests for util: units, rng, stats, csv, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/buffer_pool.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace stob {
namespace {

// ------------------------------------------------------------------- units

TEST(Units, DurationConversions) {
  EXPECT_EQ(Duration::micros(3).ns(), 3000);
  EXPECT_EQ(Duration::millis(2).ns(), 2'000'000);
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).sec(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::seconds_f(0.25).ms(), 250.0);
}

TEST(Units, DurationArithmetic) {
  const Duration a = Duration::millis(10);
  const Duration b = Duration::millis(4);
  EXPECT_EQ((a + b).ns(), Duration::millis(14).ns());
  EXPECT_EQ((a - b).ns(), Duration::millis(6).ns());
  EXPECT_EQ((a * 3).ns(), Duration::millis(30).ns());
  EXPECT_EQ((a * 0.5).ns(), Duration::millis(5).ns());
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_LT(b, a);
}

TEST(Units, TimePointArithmetic) {
  TimePoint t = TimePoint::zero();
  t += Duration::seconds(2);
  EXPECT_EQ(t.ns(), 2'000'000'000);
  EXPECT_EQ((t - TimePoint::zero()).ns(), 2'000'000'000);
  EXPECT_EQ((t + Duration::millis(1)).ns(), 2'001'000'000);
  EXPECT_LT(t, TimePoint::max());
}

TEST(Units, BytesConversions) {
  EXPECT_EQ(Bytes::kibi(2).count(), 2048);
  EXPECT_EQ(Bytes::mebi(1).count(), 1048576);
  EXPECT_EQ(Bytes(100).bits(), 800);
  EXPECT_EQ((Bytes(3) + Bytes(4)).count(), 7);
  EXPECT_EQ((Bytes(10) - Bytes(4)).count(), 6);
}

TEST(Units, DataRateTransmitTime) {
  // 1000 bytes at 8 Mbps = 1 ms.
  EXPECT_EQ(DataRate::mbps(8).transmit_time(Bytes(1000)).ns(), 1'000'000);
  // Rounds up: 1 byte at 1 Gbps = 8 ns.
  EXPECT_EQ(DataRate::gbps(1).transmit_time(Bytes(1)).ns(), 8);
  // Zero rate means effectively never.
  EXPECT_GE(DataRate(0).transmit_time(Bytes(1)), Duration::seconds(3600));
}

TEST(Units, DataRateBytesIn) {
  EXPECT_EQ(DataRate::mbps(8).bytes_in(Duration::millis(1)).count(), 1000);
  // No overflow at 100 Gbps over one second.
  EXPECT_EQ(DataRate::gbps(100).bytes_in(Duration::seconds(1)).count(), 12'500'000'000LL);
}

TEST(Units, DataRateFrom) {
  const DataRate r = DataRate::from(Bytes(1000), Duration::millis(1));
  EXPECT_EQ(r.bits_per_sec(), 8'000'000);
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(7);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  for (int h : hits) EXPECT_GT(h, 700);  // expected 1000 each
}

TEST(Rng, UniformDoubleBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  stats::Welford w;
  for (int i = 0; i < 50000; ++i) w.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(w.mean(), 5.0, 0.05);
  EXPECT_NEAR(w.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  stats::Welford w;
  for (int i = 0; i < 50000; ++i) w.add(rng.exponential(4.0));
  EXPECT_NEAR(w.mean(), 0.25, 0.01);
}

TEST(Rng, RayleighMean) {
  Rng rng(17);
  stats::Welford w;
  for (int i = 0; i < 50000; ++i) w.add(rng.rayleigh(1.0));
  EXPECT_NEAR(w.mean(), std::sqrt(3.14159265 / 2.0), 0.02);
}

TEST(Rng, ParetoBounds) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(23);
  std::vector<double> w{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.weighted_index(w) == 1;
  EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.75, 0.03);
}

TEST(Rng, WeightedIndexThrowsOnZeroTotal) {
  Rng rng(1);
  std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w), std::invalid_argument);
}

TEST(Rng, UniformIntFullRange) {
  // Regression: `hi - lo` used to be computed in int64_t, which is signed
  // overflow (UB) for the full 64-bit range. The full range maps to
  // range == 0 (wraparound) and must return raw 64-bit draws.
  Rng rng(33);
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(lo, hi);
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(Rng, UniformIntExtremeBounds) {
  Rng rng(35);
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  // Degenerate one-value ranges at both extremes.
  EXPECT_EQ(rng.uniform_int(lo, lo), lo);
  EXPECT_EQ(rng.uniform_int(hi, hi), hi);
  // Two-value range spanning the most negative values.
  for (int i = 0; i < 100; ++i) {
    const std::int64_t v = rng.uniform_int(lo, lo + 1);
    EXPECT_TRUE(v == lo || v == lo + 1);
  }
  // Ranges wider than INT64_MAX (range itself would overflow int64_t): the
  // result must still land inside the bounds.
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t a = rng.uniform_int(lo, 0);
    EXPECT_LE(a, 0);
    const std::int64_t b = rng.uniform_int(-1, hi);
    EXPECT_GE(b, -1);
    const std::int64_t c = rng.uniform_int(lo, hi - 1);
    EXPECT_LE(c, hi - 1);
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(31);
  Rng child = parent.fork();
  // The child stream should not replicate the parent's.
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next() == child.next());
  EXPECT_LT(same, 5);
}

// ------------------------------------------------------------------- stats

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), std::sqrt(2.5));
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> xs;
  EXPECT_DOUBLE_EQ(stats::mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 0.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 0.0);
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(stats::median(xs), 25.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 25), 17.5);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs{40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(stats::median(xs), 25.0);
}

TEST(Stats, IqrInliers) {
  std::vector<double> xs{10, 11, 12, 13, 14, 1000};  // one wild outlier
  const auto keep = stats::iqr_inlier_indices(xs);
  EXPECT_EQ(keep.size(), 5u);
  for (std::size_t i : keep) EXPECT_LT(xs[i], 100.0);
}

TEST(Stats, WelfordMatchesBatch) {
  Rng rng(5);
  std::vector<double> xs;
  stats::Welford w;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0, 10);
    xs.push_back(v);
    w.add(v);
  }
  EXPECT_NEAR(w.mean(), stats::mean(xs), 1e-9);
  EXPECT_NEAR(w.variance(), stats::variance(xs), 1e-6);
}

TEST(Stats, MinMaxSum) {
  const std::vector<double> xs{3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(stats::min(xs), -1.0);
  EXPECT_DOUBLE_EQ(stats::max(xs), 7.0);
  EXPECT_DOUBLE_EQ(stats::sum(xs), 11.0);
}

// ------------------------------------------------- percentile edge cases
//
// These pin the documented convention (type-7 linear interpolation over
// rank p/100 * (n-1)) and the edge cases that used to be UB: a NaN p hit
// std::clamp (UB) and then a NaN -> size_t cast (UB again).

TEST(Stats, PercentileEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(stats::percentile({}, 50.0), 0.0);
  const std::vector<double> one{42.0};
  for (double p : {0.0, 37.5, 50.0, 100.0}) {
    EXPECT_DOUBLE_EQ(stats::percentile(one, p), 42.0) << p;
  }
}

TEST(Stats, PercentileEndpointsAreExactMinMax) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 257; ++i) xs.push_back(rng.uniform(-1e6, 1e6));
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.0), stats::min(xs));
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100.0), stats::max(xs));
  // Out-of-range p clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(stats::percentile(xs, -50.0), stats::min(xs));
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 250.0), stats::max(xs));
}

TEST(Stats, PercentileAllEqualIsConstant) {
  const std::vector<double> xs(64, 3.25);
  for (double p : {0.0, 10.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(stats::percentile(xs, p), 3.25) << p;
  }
}

TEST(Stats, PercentileNanPropagatesInsteadOfUb) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_TRUE(std::isnan(stats::percentile(xs, std::nan(""))));
  EXPECT_TRUE(std::isnan(stats::percentile_sorted(xs, std::nan(""))));
}

TEST(Stats, PercentilePinsLinearInterpolation) {
  // rank = p/100 * (n-1); n = 5 => p=25 lands exactly on index 1, p=30 is
  // 0.2 of the way from index 1 to 2 (the numpy 'linear' / R type-7 rule).
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 30.0), 22.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 87.5), 45.0);
}

TEST(Stats, PercentileMonotoneInP) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.uniform(0, 1000));
  double prev = stats::percentile(xs, 0.0);
  for (double p = 1.0; p <= 100.0; p += 1.0) {
    const double cur = stats::percentile(xs, p);
    EXPECT_GE(cur, prev) << p;
    prev = cur;
  }
}

TEST(Stats, IqrMatchesQuartileDifference) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 321; ++i) xs.push_back(rng.uniform(-50, 50));
  EXPECT_DOUBLE_EQ(stats::iqr(xs),
                   stats::percentile(xs, 75.0) - stats::percentile(xs, 25.0));
  EXPECT_DOUBLE_EQ(stats::iqr({}), 0.0);
}

// --------------------------------------------------------------------- csv

TEST(Csv, SplitBasic) {
  const auto cells = csv::split_line("a,b,,c");
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "");
  EXPECT_EQ(cells[3], "c");
}

TEST(Csv, RoundTripFile) {
  const auto path = std::filesystem::temp_directory_path() / "stob_csv_test.csv";
  const std::vector<csv::Row> rows{{"h1", "h2"}, {"1", "2.5"}, {"3", "4.5"}};
  csv::write_file(path, rows);
  const auto back = csv::read_file(path);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1][1], "2.5");
  std::filesystem::remove(path);
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(csv::read_file("/nonexistent/file.csv"), std::runtime_error);
}

TEST(Csv, JoinInverseOfSplit) {
  const csv::Row row{"x", "y", "z"};
  EXPECT_EQ(csv::split_line(csv::join(row)), row);
}

TEST(Csv, QuotesOnlyCellsThatNeedIt) {
  EXPECT_EQ(csv::quote_cell("plain"), "plain");
  EXPECT_EQ(csv::quote_cell("has,comma"), "\"has,comma\"");
  EXPECT_EQ(csv::quote_cell("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(csv::quote_cell("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv::quote_cell("semi;colon", ';'), "\"semi;colon\"");
  EXPECT_EQ(csv::quote_cell("semi;colon", ','), "semi;colon");
}

TEST(Csv, SplitLineHonoursQuoting) {
  const auto cells = csv::split_line(R"(a,"b,c","d""e",f)");
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[1], "b,c");
  EXPECT_EQ(cells[2], "d\"e");
  EXPECT_EQ(cells[3], "f");
}

// The RFC 4180 regression: commas, quotes, and newlines inside cells must
// survive write_file -> read_file unchanged (the Pareto CSV carries
// free-form defense and fault names).
TEST(Csv, RoundTripsHostileCells) {
  const auto path = std::filesystem::temp_directory_path() / "stob_csv_hostile.csv";
  const std::vector<csv::Row> rows{
      {"name", "note"},
      {"plain", "no quoting needed"},
      {"comma,inside", "quote\"inside"},
      {"multi\nline", "both,\"and\nmore"},
      {"", "trailing-empty-next"},
      {"crlf\r\ninside", "end"},
  };
  csv::write_file(path, rows);
  EXPECT_EQ(csv::read_file(path), rows);
  std::filesystem::remove(path);
}

TEST(Csv, ParseContentSkipsBlankLinesAndHandlesCrlf) {
  const auto rows = csv::parse_content("a,b\r\n\r\n\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (csv::Row{"a", "b"}));
  EXPECT_EQ(rows[1], (csv::Row{"c", "d"}));
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(csv::parse_content("a,\"unclosed\n"), std::runtime_error);
}

// --------------------------------------------------------------------- log

TEST(Log, LevelFiltering) {
  const auto prev = log::level();
  log::set_level(log::Level::Error);
  EXPECT_EQ(log::level(), log::Level::Error);
  // Below-threshold writes are silently discarded (no crash, no output).
  STOB_DEBUG("test") << "should not appear";
  log::set_level(prev);
}


// ------------------------------------------------------------------- welford

TEST(Stats, WelfordMergeMatchesSingleStream) {
  const std::vector<double> xs{1.0, 2.5, -3.0, 4.25, 0.0, 7.5, -1.5};
  stats::Welford whole;
  for (double x : xs) whole.add(x);
  // Split at every point: streaming a then b must equal merge(a, b).
  for (std::size_t split = 0; split <= xs.size(); ++split) {
    stats::Welford a, b;
    for (std::size_t i = 0; i < split; ++i) a.add(xs[i]);
    for (std::size_t i = split; i < xs.size(); ++i) b.add(xs[i]);
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
  }
  // Merging an empty accumulator is a no-op both ways.
  stats::Welford empty, copy = whole;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), whole.count());
  EXPECT_NEAR(copy.mean(), whole.mean(), 1e-12);
  empty.merge(whole);
  EXPECT_NEAR(empty.variance(), whole.variance(), 1e-12);
}

// --------------------------------------------------------------- buffer pool

TEST(BufferPool, SpillsWhenBucketCapExceededAndOnOversize) {
  mem::pool_purge();
  const mem::PoolStats before = mem::pool_stats();

  // The 64 KiB bucket caches at most 4 buffers (256 KiB per-bucket cap), so
  // freeing 6 spills 2 back to the allocator.
  constexpr std::size_t kBig = 64 * 1024;
  std::vector<void*> bufs;
  for (int i = 0; i < 6; ++i) bufs.push_back(mem::pool_alloc(kBig));
  for (void* p : bufs) mem::pool_free(p, kBig);
  mem::PoolStats now = mem::pool_stats();
  EXPECT_EQ(now.spills - before.spills, 2u);
  EXPECT_EQ(now.cached, 4u + before.cached);

  // Above the largest bucket the pool never caches: alloc is a miss and the
  // free spills immediately.
  constexpr std::size_t kHuge = 128 * 1024;
  void* huge = mem::pool_alloc(kHuge);
  mem::pool_free(huge, kHuge);
  now = mem::pool_stats();
  EXPECT_EQ(now.spills - before.spills, 3u);

  // Re-allocating a cached size is a hit, and the freed buffer re-parks.
  const std::uint64_t hits_before = now.hits;
  void* again = mem::pool_alloc(kBig);
  mem::pool_free(again, kBig);
  now = mem::pool_stats();
  EXPECT_EQ(now.hits, hits_before + 1);
  EXPECT_EQ(now.spills - before.spills, 3u);

  mem::pool_purge();
  EXPECT_EQ(mem::pool_stats().cached, 0u);
}


// ---------------------------------------------------------------- Slab

/// Counts constructions and destructions; `id` is -1 once moved from.
struct Tracked {
  static inline int alive = 0;
  static inline std::vector<int> destroyed;  // by id, for owned values only

  int id;
  explicit Tracked(int i) : id(i) { ++alive; }
  Tracked(Tracked&& o) noexcept : id(o.id) {
    o.id = -1;
    ++alive;
  }
  Tracked(const Tracked&) = delete;
  ~Tracked() {
    --alive;
    if (id >= 0) ++destroyed[static_cast<std::size_t>(id)];
  }
};

TEST(Slab, DestroysEveryElementExactlyOnce) {
  constexpr int kN = 12;
  Tracked::alive = 0;
  Tracked::destroyed.assign(kN, 0);
  {
    util::Slab<Tracked> slab;
    // Slot 0 is freed while the free list is empty, then reused below.
    const auto first = slab.put(Tracked(0));
    EXPECT_EQ(slab.take(first).id, 0);
    std::vector<util::Slab<Tracked>::Index> idx;
    for (int i = 1; i < kN - 1; ++i) idx.push_back(slab.put(Tracked(i)));  // grows once
    EXPECT_EQ(slab.high_water(), static_cast<std::size_t>(kN - 2));
    // Take every other element, starting while every slot is live (the
    // first one freed ends the free list); the rest stay for the destructor.
    for (std::size_t k = 0; k < idx.size(); k += 2) {
      EXPECT_EQ(slab.take(idx[k]).id, static_cast<int>(k) + 1);
    }
    // One more element reuses the last freed slot; the others stay free.
    slab.put(Tracked(kN - 1));
    EXPECT_EQ(slab.live(), static_cast<std::size_t>(kN - 2) / 2 + 1);
    EXPECT_EQ(slab.high_water(), static_cast<std::size_t>(kN - 2));
  }
  EXPECT_EQ(Tracked::alive, 0);  // a second ~T() on a moved-from slot drives this negative
  for (int i = 0; i < kN; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(Tracked::destroyed[static_cast<std::size_t>(i)], 1);
  }
}

}  // namespace
}  // namespace stob
