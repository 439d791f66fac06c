// Tests for the Stob core: built-in policies, the CCA guard invariant, and
// end-to-end enforcement of policies through the live TCP stack.
#include <gtest/gtest.h>

#include <memory>

#include "core/cca_guard.hpp"
#include "core/policies.hpp"
#include "core/policy.hpp"
#include "stack/host_pair.hpp"
#include "tcp/tcp_connection.hpp"

namespace stob::core {
namespace {

SegmentContext make_ctx(std::int64_t cca_segment = 65160, std::int64_t mss = 1448,
                        std::int64_t departure_ns = 1'000'000) {
  SegmentContext ctx;
  ctx.flow = {1, 2, 40000, 443, net::Proto::Tcp};
  ctx.now = TimePoint(departure_ns);
  ctx.cca_segment = Bytes(cca_segment);
  ctx.mss = Bytes(mss);
  ctx.cca_departure = TimePoint(departure_ns);
  ctx.cca_pacing_rate = DataRate::gbps(1);
  return ctx;
}

// ---------------------------------------------------------------- policies

TEST(NullPolicy, Passthrough) {
  NullPolicy p;
  const SegmentContext ctx = make_ctx();
  const SegmentDecision d = p.on_segment(ctx);
  EXPECT_EQ(d.segment, ctx.cca_segment);
  EXPECT_EQ(d.wire_mss, ctx.mss);
  EXPECT_EQ(d.departure, ctx.cca_departure);
}

TEST(SplitPolicy, HalvesAboveThreshold) {
  SplitPolicy p;
  const SegmentDecision d = p.on_segment(make_ctx());
  EXPECT_EQ(d.wire_mss.count(), 724);  // ceil(1448 / 2)
}

TEST(SplitPolicy, LeavesSmallMssAlone) {
  SplitPolicy p;
  const SegmentDecision d = p.on_segment(make_ctx(65160, 1000));
  EXPECT_EQ(d.wire_mss.count(), 1000);
}

TEST(SplitPolicy, RespectsMinimumSize) {
  SplitPolicy p(SplitPolicy::Config{.threshold = 500, .min_size = 536});
  const SegmentDecision d = p.on_segment(make_ctx(65160, 900));
  EXPECT_EQ(d.wire_mss.count(), 536);  // half would be 450 < minimum
}

TEST(DelayPolicy, FirstSegmentUndelayed) {
  DelayPolicy p;
  const SegmentContext ctx = make_ctx();
  const SegmentDecision d = p.on_segment(ctx);
  EXPECT_EQ(d.departure, ctx.cca_departure);
}

TEST(DelayPolicy, InflatesGapWithinBounds) {
  DelayPolicy p;
  SegmentContext ctx = make_ctx();
  (void)p.on_segment(ctx);  // departure t=1ms recorded
  SegmentContext next = make_ctx();
  next.cca_departure = TimePoint(2'000'000);  // 1 ms gap
  next.now = next.cca_departure;
  for (int i = 0; i < 50; ++i) {
    DelayPolicy fresh;
    (void)fresh.on_segment(ctx);
    const SegmentDecision d = fresh.on_segment(next);
    const double inflation =
        static_cast<double>((d.departure - TimePoint(1'000'000)).ns()) / 1'000'000.0 - 1.0;
    EXPECT_GE(inflation, 0.10 - 1e-9);
    EXPECT_LE(inflation, 0.30 + 1e-9);
  }
}

TEST(DelayPolicy, AlwaysAtOrAfterCcaSchedule) {
  // Fed a fixed CCA schedule, every non-first departure lands strictly
  // after the CCA's own departure time and within the 30% inflation bound.
  // (In the live stack the transport's pacing feeds back the delayed
  // departure, so inflation compounds there; see StackEnforcement tests.)
  DelayPolicy p;
  for (int i = 0; i < 5; ++i) {
    SegmentContext ctx = make_ctx();
    ctx.cca_departure = TimePoint((i + 1) * 1'000'000);
    ctx.now = ctx.cca_departure;
    const TimePoint dep = p.on_segment(ctx).departure;
    if (i == 0) {
      EXPECT_EQ(dep, ctx.cca_departure);
    } else {
      EXPECT_GT(dep, ctx.cca_departure);
      EXPECT_LE(dep.ns(), ctx.cca_departure.ns() + 300'000);
    }
  }
}

TEST(DelayPolicy, FlowStateResetOnStart) {
  DelayPolicy p;
  SegmentContext ctx = make_ctx();
  (void)p.on_segment(ctx);
  p.on_flow_start(ctx.flow);
  // After reset, the "first segment" rule applies again.
  SegmentContext ctx2 = make_ctx();
  ctx2.cca_departure = TimePoint(9'000'000);
  const SegmentDecision d = p.on_segment(ctx2);
  EXPECT_EQ(d.departure, ctx2.cca_departure);
}

TEST(CompositePolicy, AppliesBothStages) {
  SplitPolicy split;
  DelayPolicy delay;
  CompositePolicy combo({&split, &delay});
  SegmentContext ctx = make_ctx();
  (void)combo.on_segment(ctx);
  SegmentContext next = make_ctx();
  next.cca_departure = TimePoint(2'000'000);
  next.now = next.cca_departure;
  const SegmentDecision d = combo.on_segment(next);
  EXPECT_EQ(d.wire_mss.count(), 724);                 // split applied
  EXPECT_GT(d.departure, next.cca_departure);         // delay applied
  EXPECT_EQ(combo.name(), "composite(split+delay)");
}

TEST(SweepSizePolicy, AlphaZeroIsPassthrough) {
  SweepSizePolicy p;
  const SegmentContext ctx = make_ctx();
  const SegmentDecision d = p.on_segment(ctx);
  EXPECT_EQ(d.segment, ctx.cca_segment);
  EXPECT_EQ(d.wire_mss, ctx.mss);
}

TEST(SweepSizePolicy, CyclesPacketSize) {
  SweepSizePolicy::Config cfg;
  cfg.alpha = 10;
  SweepSizePolicy p(cfg);
  std::vector<std::int64_t> sizes;
  for (int i = 0; i < 12; ++i) sizes.push_back(p.on_segment(make_ctx()).wire_mss.count());
  EXPECT_EQ(sizes[0], 1448);        // 1500 - 52
  EXPECT_EQ(sizes[1], 1438);        // one alpha step down
  EXPECT_EQ(sizes[10], 1348);       // 1500 - 10*10 - 52
  EXPECT_EQ(sizes[11], 1448);       // reset
}

TEST(SweepSizePolicy, TsoShrinksAndFloorsAtOneSegment) {
  SweepSizePolicy::Config cfg;
  cfg.alpha = 44;  // dec = 11 per step: 44, 33, 22, 11, 1, 1, ...
  SweepSizePolicy p(cfg);
  std::vector<std::int64_t> segs;
  for (int i = 0; i < 9; ++i) {
    const SegmentDecision d = p.on_segment(make_ctx());
    segs.push_back(d.segment.count() / d.wire_mss.count());
  }
  EXPECT_EQ(segs[0], 44);
  EXPECT_EQ(segs[1], 33);
  EXPECT_GE(segs[4], 1);
  for (std::int64_t s : segs) EXPECT_GE(s, 1);
}

// ---------------------------------------------------------------- CcaGuard

/// A deliberately aggressive policy: bigger segments, earlier departures.
class RoguePolicy final : public Policy {
 public:
  SegmentDecision on_segment(const SegmentContext& ctx) override {
    return {ctx.cca_segment * 2, ctx.mss * 2, ctx.cca_departure - Duration::millis(1)};
  }
  std::string name() const override { return "rogue"; }
};

TEST(CcaGuard, ClampsAggressiveDecisions) {
  RoguePolicy rogue;
  CcaGuard guard(rogue);
  const SegmentContext ctx = make_ctx();
  const SegmentDecision d = guard.on_segment(ctx);
  EXPECT_EQ(d.segment, ctx.cca_segment);
  EXPECT_EQ(d.wire_mss, ctx.mss);
  EXPECT_EQ(d.departure, ctx.cca_departure);
  EXPECT_EQ(guard.segment_clamps(), 1u);
  EXPECT_EQ(guard.mss_clamps(), 1u);
  EXPECT_EQ(guard.departure_clamps(), 1u);
}

TEST(CcaGuard, CompliantPolicyUntouched) {
  SplitPolicy split;
  CcaGuard guard(split);
  for (int i = 0; i < 10; ++i) (void)guard.on_segment(make_ctx());
  EXPECT_EQ(guard.segment_clamps(), 0u);
  EXPECT_EQ(guard.mss_clamps(), 0u);
  EXPECT_EQ(guard.departure_clamps(), 0u);
}

TEST(CcaGuard, PropertyNeverMoreAggressive) {
  // For a zoo of policies, the guarded decision never exceeds the CCA's
  // segment/mss and never departs earlier.
  RoguePolicy rogue;
  SplitPolicy split;
  DelayPolicy delay;
  SweepSizePolicy::Config sweep_cfg;
  sweep_cfg.alpha = 20;
  SweepSizePolicy sweep(sweep_cfg);
  std::vector<Policy*> zoo{&rogue, &split, &delay, &sweep};
  Rng rng(3);
  for (Policy* p : zoo) {
    CcaGuard guard(*p);
    for (int i = 0; i < 200; ++i) {
      SegmentContext ctx = make_ctx(rng.uniform_int(1448, 65160), 1448,
                                    rng.uniform_int(1, 100) * 1'000'000);
      const SegmentDecision d = guard.on_segment(ctx);
      ASSERT_LE(d.segment.count(), ctx.cca_segment.count()) << p->name();
      ASSERT_LE(d.wire_mss.count(), ctx.mss.count()) << p->name();
      ASSERT_GE(d.departure.ns(), ctx.cca_departure.ns()) << p->name();
      ASSERT_GE(d.segment.count(), 1) << p->name();
      ASSERT_GE(d.wire_mss.count(), 1) << p->name();
    }
  }
}

// ------------------------------------------- end-to-end stack enforcement

struct PolicyTransfer {
  stack::HostPair hp;
  std::unique_ptr<tcp::TcpListener> listener;
  std::unique_ptr<tcp::TcpConnection> client;
  Bytes client_received;

  explicit PolicyTransfer(core::Policy* server_policy) {
    tcp::TcpConnection::Config server_cfg;
    server_cfg.policy = server_policy;
    listener = std::make_unique<tcp::TcpListener>(hp.server(), 443, server_cfg);
    listener->set_accept_callback([this](tcp::TcpConnection& c) {
      c.on_connected = [&c] { c.send(Bytes(500'000)); };  // server pushes data
    });
    tcp::TcpConnection::Config client_cfg;
    client = std::make_unique<tcp::TcpConnection>(hp.client(), client_cfg);
    client->on_data = [this](Bytes n) { client_received += n; };
    client->connect(2, 443);
  }
};

TEST(StackEnforcement, SplitPolicyShrinksWirePackets) {
  SplitPolicy split;
  PolicyTransfer t(&split);
  std::int64_t max_payload = 0;
  t.hp.path().backward().set_tx_tap([&](const net::Packet& p, TimePoint) {
    max_payload = std::max(max_payload, p.payload.count());
  });
  t.hp.run(TimePoint(Duration::seconds(30).ns()));
  EXPECT_EQ(t.client_received.count(), 500'000);
  EXPECT_LE(max_payload, 724);  // every wire packet at most half the MSS
}

TEST(StackEnforcement, DelayPolicyStillDeliversEverything) {
  DelayPolicy delay;
  PolicyTransfer t(&delay);
  t.hp.run(TimePoint(Duration::seconds(60).ns()));
  EXPECT_EQ(t.client_received.count(), 500'000);
}

TEST(StackEnforcement, GuardedRoguePolicyIsHarmless) {
  RoguePolicy rogue;
  CcaGuard guard(rogue);
  PolicyTransfer t(&guard);
  std::int64_t max_payload = 0;
  t.hp.path().backward().set_tx_tap([&](const net::Packet& p, TimePoint) {
    max_payload = std::max(max_payload, p.payload.count());
  });
  t.hp.run(TimePoint(Duration::seconds(30).ns()));
  EXPECT_EQ(t.client_received.count(), 500'000);
  EXPECT_LE(max_payload, 1448);  // never above MSS despite the rogue policy
  EXPECT_GT(guard.mss_clamps(), 0u);
}

TEST(StackEnforcement, DelaySlowsCompletion) {
  // The same transfer takes measurably longer under an aggressive delay
  // policy than under the null policy.
  auto completion_time = [](core::Policy* p) {
    PolicyTransfer t(p);
    TimePoint horizon = TimePoint::zero();
    while (t.client_received.count() < 500'000 &&
           horizon < TimePoint(Duration::seconds(60).ns())) {
      horizon += Duration::millis(50);
      t.hp.run(horizon);
    }
    return t.hp.sim().now();
  };
  NullPolicy null;
  DelayPolicy::Config cfg;
  cfg.lo_frac = 0.25;
  cfg.hi_frac = 0.30;
  DelayPolicy slow(cfg);
  EXPECT_GT(completion_time(&slow).ns(), completion_time(&null).ns());
}

}  // namespace
}  // namespace stob::core
