// Cross-cutting property sweeps (TEST_P): invariants that must hold for
// every member of a family, not just hand-picked instances.
//
//  * Qdisc conservation: everything enqueued is dequeued exactly once, in
//    per-flow order, for both disciplines across flow counts.
//  * Defense invariants: monotone timestamps, no negative sizes, byte
//    conservation for non-padding defenses, across the whole defense zoo
//    and multiple seeds.
//  * Policy safety under the guard: for every built-in policy and seed,
//    the guarded decision stream never exceeds the CCA schedule.
//  * Feature totality: every extractor yields finite, fixed-width vectors
//    for adversarial trace shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "core/cca_guard.hpp"
#include "core/policies.hpp"
#include "defenses/policy.hpp"
#include "stack/qdisc.hpp"
#include "wf/cumul.hpp"
#include "wf/features.hpp"

namespace stob {
namespace {

// ----------------------------------------------------- qdisc conservation

using QdiscParams = std::tuple<std::string, int /*flows*/, int /*packets*/>;

class QdiscConservation : public ::testing::TestWithParam<QdiscParams> {
 protected:
  static std::unique_ptr<stack::Qdisc> make(const std::string& kind) {
    if (kind == "fifo") return std::make_unique<stack::FifoQdisc>();
    return std::make_unique<stack::FqQdisc>();
  }
};

TEST_P(QdiscConservation, ExactlyOnceInPerFlowOrder) {
  const auto& [kind, flows, packets] = GetParam();
  auto q = make(kind);
  Rng rng(static_cast<std::uint64_t>(flows * 1000 + packets));
  std::map<net::Port, std::vector<std::uint64_t>> sent;
  for (int i = 0; i < packets; ++i) {
    net::Packet p;
    p.id = net::next_packet_id();
    const auto port = static_cast<net::Port>(1000 + rng.uniform_int(0, flows - 1));
    p.flow = {1, 2, port, 443, net::Proto::Tcp};
    p.header = Bytes(net::kEthIpTcpHeader);
    p.payload = Bytes(rng.uniform_int(0, 1448));
    sent[port].push_back(p.id);
    q->enqueue(std::move(p));
  }
  std::map<net::Port, std::vector<std::uint64_t>> got;
  std::size_t total = 0;
  while (auto p = q->dequeue(TimePoint::zero())) {
    got[p->flow.src_port].push_back(p->id);
    ++total;
  }
  ASSERT_EQ(total + q->dropped(), static_cast<std::size_t>(packets));
  EXPECT_EQ(q->dropped(), 0u);  // capacity is generous
  for (const auto& [port, ids] : sent) EXPECT_EQ(got[port], ids) << kind << " flow " << port;
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->backlog().count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QdiscConservation,
                         ::testing::Combine(::testing::Values("fifo", "fq"),
                                            ::testing::Values(1, 3, 16),
                                            ::testing::Values(10, 200)));

// ------------------------------------------------------ defense invariants

using DefenseParams = std::tuple<int /*defense index*/, int /*seed*/>;

class DefenseInvariants : public ::testing::TestWithParam<DefenseParams> {};

TEST_P(DefenseInvariants, WellFormedOutput) {
  const auto& [index, seed] = GetParam();
  const auto& zoo = defenses::all_defenses();
  ASSERT_LT(static_cast<std::size_t>(index), zoo.size());
  const defenses::PolicyInfo& defense = zoo[static_cast<std::size_t>(index)];

  Rng gen(static_cast<std::uint64_t>(seed));
  wf::Trace original;
  double time = 0.0;
  for (int i = 0; i < 150; ++i) {
    original.add(time, gen.chance(0.25) ? +1 : -1, gen.uniform_int(66, 1514));
    time += gen.uniform(0.0002, 0.02);
  }
  original.normalize();

  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const wf::Trace defended = defenses::run_policy(defense, original, rng);

  ASSERT_FALSE(defended.empty()) << defense.name;
  for (std::size_t i = 0; i < defended.size(); ++i) {
    const auto& p = defended.packets()[i];
    EXPECT_GT(p.size, 0) << defense.name;
    EXPECT_TRUE(p.direction == 1 || p.direction == -1) << defense.name;
    if (i > 0) {
      EXPECT_GE(p.time, defended.packets()[i - 1].time) << defense.name;
    }
  }
  // Defenses never destroy payload: total bytes never shrink.
  EXPECT_GE(defended.total_bytes(), original.total_bytes()) << defense.name;
  // Non-padding defenses preserve bytes exactly.
  if (!defense.meta.manipulations.padding) {
    EXPECT_EQ(defended.total_bytes(), original.total_bytes()) << defense.name;
  }
  // Determinism: same seed, same output.
  Rng rng2(static_cast<std::uint64_t>(seed) * 7919);
  EXPECT_EQ(defenses::run_policy(defense, original, rng2), defended) << defense.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DefenseInvariants,
    ::testing::Combine(::testing::Range(0, static_cast<int>(defenses::all_defenses().size())),
                       ::testing::Values(1, 2, 3)));

// ------------------------------------------------- guarded policy safety

using PolicyParams = std::tuple<std::string, int /*seed*/>;

class GuardedPolicySafety : public ::testing::TestWithParam<PolicyParams> {};

TEST_P(GuardedPolicySafety, NeverMoreAggressiveThanCca) {
  const auto& [name, seed] = GetParam();
  std::unique_ptr<core::Policy> policy;
  core::SplitPolicy split;
  core::DelayPolicy delay;
  if (name == "split") {
    policy = std::make_unique<core::SplitPolicy>();
  } else if (name == "delay") {
    policy = std::make_unique<core::DelayPolicy>();
  } else if (name == "combined") {
    policy = std::make_unique<core::CompositePolicy>(std::vector<core::Policy*>{&split, &delay});
  } else {
    core::SweepSizePolicy::Config cfg;
    cfg.alpha = 60;
    policy = std::make_unique<core::SweepSizePolicy>(cfg);
  }
  core::CcaGuard guard(*policy);

  Rng rng(static_cast<std::uint64_t>(seed));
  TimePoint now = TimePoint::zero();
  for (int i = 0; i < 500; ++i) {
    now += Duration::micros(rng.uniform_int(5, 2000));
    core::SegmentContext ctx;
    ctx.flow = {1, 2, 40000, 443, net::Proto::Tcp};
    ctx.now = now;
    ctx.stream_offset = static_cast<std::uint64_t>(i) * 65160;
    ctx.cca_segment = Bytes(rng.uniform_int(1448, 65160));
    ctx.mss = Bytes(1448);
    ctx.cca_departure = now + Duration::micros(rng.uniform_int(0, 500));
    ctx.cca_pacing_rate = DataRate::mbps(rng.uniform_int(10, 10000));
    const core::SegmentDecision d = guard.on_segment(ctx);
    ASSERT_LE(d.segment.count(), ctx.cca_segment.count()) << name;
    ASSERT_GE(d.segment.count(), 1) << name;
    ASSERT_LE(d.wire_mss.count(), ctx.mss.count()) << name;
    ASSERT_GE(d.wire_mss.count(), 1) << name;
    ASSERT_GE(d.departure.ns(), ctx.cca_departure.ns()) << name;
  }
  // All built-in policies are CCA-compliant by construction: the guard
  // should never have had to clamp.
  EXPECT_EQ(guard.segment_clamps(), 0u) << name;
  EXPECT_EQ(guard.mss_clamps(), 0u) << name;
  EXPECT_EQ(guard.departure_clamps(), 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GuardedPolicySafety,
                         ::testing::Combine(::testing::Values("split", "delay", "combined",
                                                              "sweep"),
                                            ::testing::Values(11, 22, 33)));

// ------------------------------------------------------- feature totality

class FeatureTotality : public ::testing::TestWithParam<int> {};

// Feature extraction is total on every Trace: times a hostile corpus file
// can carry (NaN, infinities, far negative, past 2^64) give finite,
// deterministic features with no undefined behaviour on the way.
TEST_P(FeatureTotality, FiniteFixedWidthOnAdversarialTraces) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int kind = GetParam();
  wf::Trace t;
  Rng rng(static_cast<std::uint64_t>(kind));
  switch (kind) {
    case 0: break;                                   // empty
    case 1: t.add(0.0, +1, 66); break;               // single packet
    case 2:                                          // all one direction
      for (int i = 0; i < 64; ++i) t.add(i * 0.001, -1, 1514);
      break;
    case 3:                                          // all simultaneous
      for (int i = 0; i < 64; ++i) t.add(0.0, i % 2 ? 1 : -1, 100);
      break;
    case 4:                                          // huge gaps
      t.add(0.0, +1, 100);
      t.add(500.0, -1, 100);
      t.add(1000.0, +1, 100);
      break;
    case 8:                                          // a NaN time mid-trace
      for (int i = 0; i < 40; ++i) t.add(i == 17 ? kNan : i * 0.01, i % 3 ? -1 : 1, 900);
      break;
    case 9:                                          // times far below zero
      for (int i = 0; i < 40; ++i) t.add(-1e6 + i * 0.5, i % 2 ? -1 : 1, 900);
      t.add(-0.5, +1, 66);
      break;
    case 10:                                         // times past 2^64 and +inf
      t.add(0.0, +1, 66);
      t.add(1e30, -1, 1514);
      t.add(kInf, -1, 1514);
      t.add(3.0, +1, 66);
      break;
    case 11:                                         // every time NaN or -inf
      for (int i = 0; i < 40; ++i) t.add(i % 4 ? kNan : -kInf, i % 2 ? -1 : 1, 900);
      break;
    case 12:                                         // t in (-1, 0), last < -1
      t.add(-0.5, +1, 66);
      t.add(-5.0, -1, 1514);
      break;
    default:                                         // random soup
      for (int i = 0; i < 500; ++i) {
        t.add(rng.uniform(0, 10), rng.chance(0.5) ? 1 : -1, rng.uniform_int(1, 65536));
      }
      t.normalize();
  }
  const auto kfp = wf::kfp_features(t);
  ASSERT_EQ(kfp.size(), wf::kfp_feature_count());
  for (double v : kfp) ASSERT_TRUE(std::isfinite(v)) << kind;
  EXPECT_EQ(kfp, wf::kfp_features(t)) << "extraction must be deterministic";
  // The name table is index-aligned with the value vector: same width, every
  // slot named, no name reused for two slots.
  const auto& names = wf::kfp_feature_names();
  ASSERT_EQ(names.size(), kfp.size());
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  for (const std::string& name : names) EXPECT_FALSE(name.empty());
  // Spot-check a named slot against a directly computable quantity.
  const auto it = std::find(names.begin(), names.end(), "count_total");
  ASSERT_NE(it, names.end());
  EXPECT_EQ(kfp[static_cast<std::size_t>(it - names.begin())],
            static_cast<double>(t.packets().size()));
  // The hostile-time contract: a NaN leaves its list's quantiles undefined
  // (0), and only times in (-1, 120) s are counted per second, in buckets
  // up to the last packet's (kind 9: only t = -0.5; kind 10: t = 0 and
  // t = 3; kind 12: none, as the last time leaves no bucket).
  const std::map<int, std::pair<const char*, double>> pinned = {
      {8, {"time_q50_all", 0.0}}, {9, {"pps_sum", 1.0}}, {10, {"pps_sum", 2.0}},
      {11, {"pps_sum", 0.0}},     {12, {"pps_sum", 0.0}}};
  if (const auto p = pinned.find(kind); p != pinned.end()) {
    const auto slot = std::find(names.begin(), names.end(), p->second.first);
    EXPECT_EQ(kfp.at(static_cast<std::size_t>(slot - names.begin())), p->second.second) << kind;
  }
  const auto cumul = wf::cumul_features(t, 100);
  ASSERT_EQ(cumul.size(), 104u);
  for (double v : cumul) ASSERT_TRUE(std::isfinite(v)) << kind;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FeatureTotality, ::testing::Range(0, 13));

}  // namespace
}  // namespace stob
