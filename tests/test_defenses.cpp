// Tests for the defense policies replayed over traces: the §3 emulation
// primitives (the zoo's split, delay and combined, and prefix scoping), the
// Table 1 baselines and the streaming RegulaTor and WTF-PAD machines,
// including the invariants DESIGN.md commits to (byte preservation,
// monotone timestamps, bounded inflation).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "defenses/baselines.hpp"
#include "defenses/policy.hpp"
#include "defenses/regulator.hpp"
#include "defenses/wtfpad.hpp"

namespace stob::defenses {
namespace {

wf::Trace web_like_trace(std::uint64_t seed = 7, std::size_t packets = 200) {
  Rng rng(seed);
  wf::Trace t;
  double time = 0.0;
  for (std::size_t i = 0; i < packets; ++i) {
    const bool outgoing = rng.chance(0.2);
    const std::int64_t size =
        outgoing ? rng.uniform_int(100, 700) : rng.uniform_int(400, 1514);
    t.add(time, outgoing ? +1 : -1, size);
    time += rng.uniform(0.0005, 0.01);
  }
  t.normalize();
  return t;
}

// ------------------------------------------------------------------ split

TEST(SplitStreamPolicy, PreservesTotalBytes) {
  Rng rng(1);
  const wf::Trace original = web_like_trace();
  const wf::Trace defended = run_policy(policy_info("split"), original, rng);
  EXPECT_EQ(defended.total_bytes(), original.total_bytes());
}

TEST(SplitStreamPolicy, SplitsOnlyLargeIncoming) {
  Rng rng(1);
  wf::Trace t;
  t.add(0.0, -1, 1500);  // split
  t.add(0.1, -1, 1000);  // below threshold: kept
  t.add(0.2, +1, 1500);  // outgoing: kept (server-side deployment)
  const wf::Trace out = run_policy(policy_info("split"), t, rng);
  EXPECT_EQ(out.size(), 4u);
  std::size_t large_incoming = 0;
  for (const auto& p : out.packets()) {
    if (p.direction < 0 && p.size > 1200) ++large_incoming;
  }
  EXPECT_EQ(large_incoming, 0u);
}

TEST(SplitStreamPolicy, HalvesRespectMinimumMss) {
  const PolicyInfo& d = policy_info("split");  // threshold 1200: halves >= 600 > 536
  Rng rng(1);
  // All incoming packets above the threshold, so every one is split and
  // every resulting fragment must respect the 536 B minimum.
  Rng gen(42);
  wf::Trace t;
  for (int i = 0; i < 50; ++i) t.add(0.01 * i, -1, gen.uniform_int(1201, 1514));
  const wf::Trace out = run_policy(d, t, rng);
  EXPECT_EQ(out.size(), 100u);
  for (const auto& p : out.packets()) EXPECT_GE(p.size, 536);
}

TEST(SplitStreamPolicy, TimestampsMonotone) {
  Rng rng(1);
  const wf::Trace out = run_policy(policy_info("split"), web_like_trace(), rng);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out.packets()[i].time, out.packets()[i - 1].time);
  }
}

// ------------------------------------------------------------------ delay

TEST(DelayStreamPolicy, PreservesPacketMultiset) {
  Rng rng(2);
  const wf::Trace original = web_like_trace();
  const wf::Trace defended = run_policy(policy_info("delay"), original, rng);
  ASSERT_EQ(defended.size(), original.size());
  // Same direction/size sequence (order preserved, only times change).
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(defended.packets()[i].direction, original.packets()[i].direction);
    EXPECT_EQ(defended.packets()[i].size, original.packets()[i].size);
  }
}

TEST(DelayStreamPolicy, OnlyStretchesTime) {
  Rng rng(3);
  const wf::Trace original = web_like_trace();
  const wf::Trace defended = run_policy(policy_info("delay"), original, rng);
  EXPECT_GT(defended.duration(), original.duration());
  // Inflation bounded: every incoming gap grew by at most 30% cumulative.
  EXPECT_LE(defended.duration(), original.duration() * 1.31);
  for (std::size_t i = 1; i < defended.size(); ++i) {
    EXPECT_GE(defended.packets()[i].time, defended.packets()[i - 1].time);
  }
}

TEST(DelayStreamPolicy, ZeroBandwidthOverhead) {
  Rng rng(4);
  const wf::Trace original = web_like_trace();
  const Overhead o = measure_overhead(original, run_policy(policy_info("delay"), original, rng));
  EXPECT_DOUBLE_EQ(o.bandwidth, 0.0);
  EXPECT_GT(o.latency, 0.0);
}

// --------------------------------------------------------------- combined

TEST(CombinedPolicy, SplitsAndDelays) {
  Rng rng(5);
  const wf::Trace original = web_like_trace();
  const wf::Trace defended = run_policy(policy_info("combined"), original, rng);
  EXPECT_GT(defended.size(), original.size());        // splitting happened
  EXPECT_GT(defended.duration(), original.duration());  // delaying happened
  EXPECT_EQ(defended.total_bytes(), original.total_bytes());
}

// ------------------------------------------------------------ prefix scope

TEST(PrefixScope, OnlyPrefixModified) {
  Rng rng(6);
  const wf::Trace original = web_like_trace(8, 100);
  const wf::Trace defended = apply_to_prefix(policy_info("split"), original, 30, rng);
  // Packets after the prefix keep their sizes (split would halve them).
  const auto& orig = original.packets();
  const auto& def = defended.packets();
  ASSERT_GE(def.size(), orig.size());
  const std::size_t added = def.size() - orig.size();
  for (std::size_t i = 30; i < orig.size(); ++i) {
    EXPECT_EQ(def[i + added].size, orig[i].size);
    EXPECT_EQ(def[i + added].direction, orig[i].direction);
  }
}

TEST(PrefixScope, ZeroMeansWholeTrace) {
  const PolicyInfo& d = policy_info("split");
  Rng rng(7);
  const wf::Trace original = web_like_trace(9, 50);
  Rng rng2(7);
  EXPECT_EQ(apply_to_prefix(d, original, 0, rng).size(), run_policy(d, original, rng2).size());
}

TEST(PrefixScope, DelayShiftsTail) {
  Rng rng(8);
  const wf::Trace original = web_like_trace(10, 100);
  const wf::Trace defended = apply_to_prefix(policy_info("delay"), original, 30, rng);
  ASSERT_EQ(defended.size(), original.size());
  // The tail shifted right but gaps within the tail are unchanged.
  const auto& orig = original.packets();
  const auto& def = defended.packets();
  EXPECT_GE(def[50].time, orig[50].time);
  EXPECT_NEAR(def[60].time - def[50].time, orig[60].time - orig[50].time, 1e-9);
}

// ---------------------------------------------------------------- baselines

TEST(FrontPolicy, AddsDummiesBothDirections) {
  FrontPolicy d;
  Rng rng(9);
  const wf::Trace original = web_like_trace();
  const wf::Trace defended = run_policy(d, original, rng);
  EXPECT_GT(defended.size(), original.size());
  EXPECT_GT(defended.outgoing_count(), original.outgoing_count());
  EXPECT_GT(defended.incoming_count(), original.incoming_count());
  EXPECT_GT(defended.total_bytes(), original.total_bytes());
}

TEST(FrontPolicy, SubstantialBandwidthOverhead) {
  // FRONT is padding-heavy (the paper cites ~80% bandwidth overhead).
  const PolicyInfo& d = policy_info("FRONT");
  Rng rng(10);
  wf::Dataset data;
  for (int i = 0; i < 10; ++i) data.add(web_like_trace(20 + i), 0);
  const wf::Dataset defended =
      data.transformed([&](const wf::Trace& t) { return run_policy(d, t, rng); });
  const Overhead o = measure_overhead(data, defended);
  EXPECT_GT(o.bandwidth, 0.2);
}

TEST(BufloPolicy, ConstantSizeAndInterval) {
  BufloPolicy d;
  Rng rng(11);
  const wf::Trace defended = run_policy(d, web_like_trace(), rng);
  std::map<double, int> out_times;
  for (const auto& p : defended.packets()) {
    EXPECT_EQ(p.size, 1514);
  }
  // Per-direction inter-departure times are multiples of the interval.
  std::vector<double> in_times;
  for (const auto& p : defended.packets()) {
    if (p.direction < 0) in_times.push_back(p.time);
  }
  for (std::size_t i = 1; i < in_times.size(); ++i) {
    const double gap = in_times[i] - in_times[i - 1];
    EXPECT_NEAR(gap / 0.012, std::round(gap / 0.012), 1e-6);
  }
}

TEST(BufloPolicy, EnforcesMinimumDuration) {
  BufloPolicy::Config cfg;
  cfg.min_duration = 5.0;
  BufloPolicy d(cfg);
  Rng rng(12);
  wf::Trace tiny;
  tiny.add(0.0, +1, 100);
  tiny.add(0.01, -1, 500);
  const wf::Trace defended = run_policy(d, tiny, rng);
  EXPECT_GE(defended.duration(), 5.0 - 0.02);
}

TEST(TamarawPolicy, PadsToMultiple) {
  TamarawPolicy d;
  Rng rng(13);
  const wf::Trace defended = run_policy(d, web_like_trace(), rng);
  const std::size_t in_count = defended.incoming_count();
  const std::size_t out_count = defended.outgoing_count();
  EXPECT_EQ(in_count % 100, 0u);
  EXPECT_EQ(out_count % 100, 0u);
}

// A NaN or infinite time is never reached by a slot schedule, so BuFLO and
// Tamaraw refuse it, naming the packet, instead of adding slots until the
// allocator gives up.
TEST(SlotSchedulePolicy, NonFiniteTimeIsRefused) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* name : {"BuFLO", "Tamaraw"}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
      wf::Trace t;  // not normalized, so the bad time stays packet 1
      t.add(0.0, -1, 100);
      t.add(bad, -1, 100);
      Rng rng(1);
      try {
        run_policy(policy_info(name), t, rng);
        ADD_FAILURE() << name << " accepted time " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("packet 1 "), std::string::npos) << e.what();
      }
    }
  }
}

TEST(SlotSchedulePolicy, UnboundedScheduleIsRefused) {
  // One slot per interval up to the last arrival: 1e12 s would be ~8e13
  // slots. Both directions are checked before either schedule is emitted.
  for (const char* name : {"BuFLO", "Tamaraw"}) {
    for (const int dir : {+1, -1}) {
      wf::Trace t;
      t.add(0.0, dir, 100);
      t.add(1e12, dir, 100);
      Rng rng(1);
      try {
        run_policy(policy_info(name), t, rng);
        ADD_FAILURE() << name << " scheduled an arrival at 1e12 s, direction " << dir;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("direction " + std::to_string(dir) + " "), std::string::npos) << what;
        EXPECT_NE(what.find("1000000000000"), std::string::npos) << what;
      }
    }
    // A long but bounded load is still scheduled.
    wf::Trace ok;
    ok.add(0.0, -1, 100);
    ok.add(600.0, -1, 100);
    Rng rng(1);
    EXPECT_FALSE(run_policy(policy_info(name), ok, rng).empty()) << name;
  }
}

TEST(PadToConstant, SizesQuantised) {
  PadToConstantPolicy d;
  Rng rng(17);
  const wf::Trace defended = run_policy(d, web_like_trace(), rng);
  for (const auto& p : defended.packets()) {
    if (p.direction < 0) {
      EXPECT_EQ(p.size % 512, 0);
    }
  }
}

TEST(PadToConstant, NeverShrinks) {
  PadToConstantPolicy d;
  Rng rng(18);
  const wf::Trace original = web_like_trace();
  const wf::Trace defended = run_policy(d, original, rng);
  ASSERT_EQ(defended.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_GE(defended.packets()[i].size, original.packets()[i].size);
  }
}

TEST(AllDefenses, BaselinesThenEveryZooPolicyOnce) {
  // Table 1's rows: the four literature baselines, then the policy zoo, in
  // the order perfbench `defend` mounts it. Each row's policy reports the
  // row's name (combined reports its chain).
  const std::vector<std::string> want{"FRONT", "BuFLO",   "Tamaraw",   "ALPaCA-pad", "split",
                                      "delay", "combined", "regulator", "wtfpad"};
  std::vector<std::string> got;
  for (const PolicyInfo& d : all_defenses()) {
    got.push_back(d.name);
    if (d.name != "combined") {
      EXPECT_EQ(make_policy(d.name)->name(), d.name);
    }
  }
  EXPECT_EQ(got, want);
  std::vector<std::string> zoo;
  for (const PolicyInfo& d : policy_zoo()) zoo.push_back(d.name);
  EXPECT_EQ(zoo, std::vector<std::string>(want.begin() + 4, want.end()));
}

TEST(AllDefenses, ApplyCleanlyAndReportMetadata) {
  Rng rng(19);
  const wf::Trace original = web_like_trace();
  for (const PolicyInfo& d : all_defenses()) {
    const wf::Trace defended = run_policy(d, original, rng);
    EXPECT_FALSE(defended.empty()) << d.name;
    EXPECT_FALSE(d.name.empty());
    EXPECT_FALSE(d.meta.target.empty());
    EXPECT_TRUE(d.meta.strategy == "Obfuscation" || d.meta.strategy == "Regularization")
        << d.name;
    EXPECT_NE(d.meta.manipulations.describe(), "none") << d.name;
    // Timestamps monotone for every defense.
    for (std::size_t i = 1; i < defended.size(); ++i) {
      ASSERT_GE(defended.packets()[i].time, defended.packets()[i - 1].time) << d.name;
    }
  }
}

TEST(Overhead, DatasetPairsMustMatchInSize) {
  wf::Dataset original, defended;
  original.add(web_like_trace(1), 0);
  original.add(web_like_trace(2), 1);
  defended.add(web_like_trace(1), 0);
  EXPECT_THROW(measure_overhead(original, defended), std::invalid_argument);
  defended.add(web_like_trace(2), 1);
  const Overhead same = measure_overhead(original, defended);
  EXPECT_EQ(same.bandwidth, 0.0);
  EXPECT_EQ(same.latency, 0.0);
}

TEST(Overhead, MeasuresRelativeCosts) {
  wf::Trace a, b;
  a.add(0.0, -1, 1000);
  a.add(1.0, -1, 1000);
  b.add(0.0, -1, 1500);
  b.add(2.0, -1, 1500);
  const Overhead o = measure_overhead(a, b);
  EXPECT_DOUBLE_EQ(o.bandwidth, 0.5);
  EXPECT_DOUBLE_EQ(o.latency, 1.0);
}

// ------------------------------------------------------------ PadHistogram

TEST(PadHistogram, SamplesWithinRangeOrInfinity) {
  PadHistogram::Spec spec;
  spec.lo = 0.001;
  spec.hi = 0.02;
  spec.infinity_weight = 0.2;
  PadHistogram hist(spec);
  Rng rng(4);
  bool saw_infinity = false;
  for (int i = 0; i < 2000; ++i) {
    const double d = hist.sample(rng);
    if (std::isinf(d)) {
      saw_infinity = true;
    } else {
      EXPECT_GE(d, spec.lo);
      EXPECT_LE(d, spec.hi);
    }
  }
  EXPECT_TRUE(saw_infinity);  // 20% infinity mass must show up in 2000 draws
}

TEST(PadHistogram, ConsumesTokensAndRefills) {
  PadHistogram::Spec spec;
  spec.tokens = 50;
  PadHistogram hist(spec);
  const std::uint64_t initial = hist.tokens_left();
  EXPECT_GT(initial, 0u);
  Rng rng(1);
  hist.sample(rng);
  EXPECT_EQ(hist.tokens_left(), initial - 1);
  for (std::uint64_t i = 1; i < initial + 1; ++i) hist.sample(rng);
  // Drained past the initial supply: the histogram must have replenished.
  EXPECT_GE(hist.refills(), 1u);
  EXPECT_GT(hist.tokens_left(), 0u);
}

TEST(PadHistogram, DeterministicGivenRngState) {
  PadHistogram a, b;
  Rng ra(77), rb(77);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.sample(ra), b.sample(rb));
}

// -------------------------------------------------------- RegulatorPolicy

TEST(RegulatorPolicy, PadsEveryDownloadToConstantSize) {
  RegulatorPolicy policy;
  Rng rng(5);
  const wf::Trace out = run_policy(policy, web_like_trace(), rng);
  for (const auto& p : out.packets()) {
    if (p.direction < 0) {
      EXPECT_EQ(p.size, 1514);
    }
  }
}

TEST(RegulatorPolicy, DeliversAllPayloadWithinBudget) {
  RegulatorPolicy::Config cfg;
  cfg.padding_budget = 40;
  RegulatorPolicy policy(cfg);
  Rng rng(5);
  const wf::Trace original = web_like_trace();
  const wf::Trace out = run_policy(policy, original, rng);
  EXPECT_GE(out.total_bytes(), original.total_bytes());
  // Download slot count = real downloads + at most `padding_budget` dummies.
  std::size_t real_down = 0, out_down = 0;
  for (const auto& p : original.packets()) real_down += p.direction < 0;
  for (const auto& p : out.packets()) out_down += p.direction < 0;
  EXPECT_GE(out_down, real_down);
  EXPECT_LE(out_down, real_down + static_cast<std::size_t>(cfg.padding_budget));
}

TEST(RegulatorPolicy, DrawsNothingFromJobRng) {
  RegulatorPolicy policy;
  Rng rng(123), probe(123);
  run_policy(policy, web_like_trace(), rng);
  EXPECT_EQ(rng.uniform(0.0, 1.0), probe.uniform(0.0, 1.0));
}

TEST(RegulatorPolicy, SurgeScheduleDecays) {
  // A single early burst: with no later arrivals the schedule's slot gaps
  // must widen (the decaying rate) until the queue drains.
  wf::Trace t;
  for (int i = 0; i < 60; ++i) t.add(0.001 * i, -1, 1000);
  t.normalize();
  RegulatorPolicy::Config cfg;
  cfg.padding_budget = 0;  // payload slots only, so gaps show the schedule
  RegulatorPolicy policy(cfg);
  Rng rng(1);
  const wf::Trace out = run_policy(policy, t, rng);
  std::vector<double> down_times;
  for (const auto& p : out.packets()) {
    if (p.direction < 0) down_times.push_back(p.time);
  }
  ASSERT_GT(down_times.size(), 10u);
  const double early = down_times[5] - down_times[4];
  const double late = down_times[down_times.size() - 1] - down_times[down_times.size() - 2];
  EXPECT_GT(late, early);  // rate decayed => slots spread out
}

// ----------------------------------------------------------- WtfPadPolicy

TEST(WtfPadPolicy, NeverDelaysRealPackets) {
  WtfPadPolicy policy;
  Rng rng(5);
  const wf::Trace original = web_like_trace();
  const wf::Trace out = run_policy(policy, original, rng);
  // Every original (time, direction, size) triple survives untouched.
  std::multimap<std::pair<double, int>, std::int64_t> remaining;
  for (const auto& p : out.packets()) {
    remaining.insert({{p.time, p.direction}, p.size});
  }
  for (const auto& p : original.packets()) {
    auto range = remaining.equal_range({p.time, p.direction});
    bool found = false;
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == p.size) {
        remaining.erase(it);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "real packet at t=" << p.time << " was altered";
  }
}

TEST(WtfPadPolicy, InjectsDummiesIntoGapsButNotPastEnd) {
  WtfPadPolicy policy;
  Rng rng(5);
  const wf::Trace original = web_like_trace(7, 300);
  const wf::Trace out = run_policy(policy, original, rng);
  EXPECT_GT(out.size(), original.size());  // adaptive padding fired
  const double end = original.packets().back().time;
  for (const auto& p : out.packets()) EXPECT_LE(p.time, end);
}

TEST(WtfPadPolicy, OutputIsPureFunctionOfSeedAndInput) {
  const wf::Trace original = web_like_trace();
  Rng a(9), b(9), c(10);
  WtfPadPolicy p1, p2, p3;
  const wf::Trace out_a = run_policy(p1, original, a);
  EXPECT_EQ(out_a, run_policy(p2, original, b));
  EXPECT_NE(out_a, run_policy(p3, original, c));  // padding follows the fork
}

}  // namespace
}  // namespace stob::defenses
