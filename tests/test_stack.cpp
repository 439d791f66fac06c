// Tests for the host stack layer: qdiscs (FIFO, fq with EDT pacing), NIC
// (TSO split, ring backpressure, completions), CPU model, host demux.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/path.hpp"
#include "sim/simulator.hpp"
#include "stack/flow_endpoint.hpp"
#include "stack/host.hpp"
#include "stack/host_pair.hpp"
#include "stack/nic.hpp"
#include "stack/qdisc.hpp"

namespace stob::stack {
namespace {

/// Adapts test lambdas to the host stack's per-flow upcalls.
struct FnEndpoint final : FlowEndpoint {
  std::function<void(net::Packet)> packet = [](net::Packet) {};
  std::function<void(Bytes)> complete = [](Bytes) {};
  void on_packet(net::Packet&& p) override { packet(std::move(p)); }
  void on_tx_complete(Bytes wire_bytes) override { complete(wire_bytes); }
};

net::Packet make_packet(std::int64_t payload, net::FlowKey flow = {1, 2, 1000, 80, net::Proto::Tcp},
                        TimePoint not_before = TimePoint::zero()) {
  net::Packet p;
  p.id = net::next_packet_id();
  p.flow = flow;
  p.header = Bytes(net::kEthIpTcpHeader);
  p.payload = Bytes(payload);
  p.not_before = not_before;
  return p;
}

// ------------------------------------------------------------------- FIFO

TEST(FifoQdisc, FifoOrder) {
  FifoQdisc q;
  std::vector<std::uint64_t> in;
  for (int i = 0; i < 5; ++i) {
    auto p = make_packet(100);
    in.push_back(p.id);
    q.enqueue(std::move(p));
  }
  for (std::uint64_t id : in) {
    auto p = q.dequeue(TimePoint::zero());
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->id, id);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoQdisc, IgnoresEdt) {
  FifoQdisc q;
  q.enqueue(make_packet(100, {1, 2, 1000, 80, net::Proto::Tcp}, TimePoint(1'000'000)));
  // FIFO dequeues immediately even though the packet is paced to t=1ms.
  EXPECT_TRUE(q.dequeue(TimePoint::zero()).has_value());
}

TEST(FifoQdisc, CapacityDrops) {
  FifoQdisc q(Bytes(3000));
  for (int i = 0; i < 5; ++i) q.enqueue(make_packet(1400));
  EXPECT_GT(q.dropped(), 0u);
}

TEST(FifoQdisc, FlowBacklogTracksBytes) {
  FifoQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  q.enqueue(make_packet(100, a));
  q.enqueue(make_packet(200, a));
  q.enqueue(make_packet(300, b));
  EXPECT_EQ(q.flow_backlog(a).count(), 300 + 2 * net::kEthIpTcpHeader);
  EXPECT_EQ(q.flow_backlog(b).count(), 300 + net::kEthIpTcpHeader);
  (void)q.dequeue(TimePoint::zero());
  EXPECT_EQ(q.flow_backlog(a).count(), 200 + net::kEthIpTcpHeader);
}

TEST(FifoQdisc, FlowBacklogReturnsToZeroAfterDrain) {
  FifoQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  for (int round = 0; round < 3; ++round) {
    q.enqueue(make_packet(100, a));
    q.enqueue(make_packet(300, b));
    q.enqueue(make_packet(200, a));
    while (q.dequeue(TimePoint::zero())) {
    }
    EXPECT_EQ(q.flow_backlog(a).count(), 0);
    EXPECT_EQ(q.flow_backlog(b).count(), 0);
    EXPECT_EQ(q.backlog().count(), 0);
  }
}

// --------------------------------------------------------------------- fq

TEST(FqQdisc, HonoursEdt) {
  FqQdisc q;
  auto p = make_packet(100);
  p.enqueued_at = TimePoint::zero();
  p.not_before = TimePoint(5000);
  q.enqueue(std::move(p));
  EXPECT_FALSE(q.dequeue(TimePoint(4999)).has_value());
  EXPECT_EQ(q.next_ready(TimePoint::zero()), TimePoint(5000));
  EXPECT_TRUE(q.dequeue(TimePoint(5000)).has_value());
}

TEST(FqQdisc, NeverReordersWithinFlow) {
  FqQdisc q;
  const net::FlowKey f{1, 2, 1000, 80, net::Proto::Tcp};
  std::vector<std::uint64_t> in;
  for (int i = 0; i < 20; ++i) {
    auto p = make_packet(500, f);
    in.push_back(p.id);
    q.enqueue(std::move(p));
  }
  std::vector<std::uint64_t> out;
  while (auto p = q.dequeue(TimePoint::zero())) out.push_back(p->id);
  EXPECT_EQ(out, in);
}

TEST(FqQdisc, PacedHeadDoesNotBlockOtherFlows) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  auto paced = make_packet(100, a);
  paced.not_before = TimePoint(1'000'000);
  q.enqueue(std::move(paced));
  q.enqueue(make_packet(100, b));
  auto p = q.dequeue(TimePoint::zero());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->flow, b);  // flow b got through while a is paced
}

TEST(FqQdisc, RoundRobinFairness) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  for (int i = 0; i < 10; ++i) {
    q.enqueue(make_packet(1400, a));
    q.enqueue(make_packet(1400, b));
  }
  // Count how many of the first 10 dequeues belong to each flow: DRR with
  // equal sizes should interleave roughly evenly.
  int got_a = 0, got_b = 0;
  for (int i = 0; i < 10; ++i) {
    auto p = q.dequeue(TimePoint::zero());
    ASSERT_TRUE(p.has_value());
    (p->flow == a ? got_a : got_b) += 1;
  }
  EXPECT_NEAR(got_a, got_b, 2);
}

TEST(FqQdisc, ByteFairnessAcrossUnequalPacketSizes) {
  FqQdisc q;
  const net::FlowKey small{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey large{1, 2, 1001, 80, net::Proto::Tcp};
  for (int i = 0; i < 200; ++i) q.enqueue(make_packet(100, small));
  for (int i = 0; i < 20; ++i) q.enqueue(make_packet(1400, large));
  std::int64_t bytes_small = 0, bytes_large = 0;
  // Drain half the total backlog and compare byte shares.
  for (int i = 0; i < 110; ++i) {
    auto p = q.dequeue(TimePoint::zero());
    if (!p) break;
    (p->flow == small ? bytes_small : bytes_large) += p->wire_size().count();
  }
  const double ratio = static_cast<double>(bytes_small) / static_cast<double>(bytes_large);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(FqQdisc, NextReadyReportsEarliestHead) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  auto pa = make_packet(100, a);
  pa.not_before = TimePoint(8000);
  auto pb = make_packet(100, b);
  pb.not_before = TimePoint(3000);
  q.enqueue(std::move(pa));
  q.enqueue(std::move(pb));
  EXPECT_EQ(q.next_ready(TimePoint::zero()), TimePoint(3000));
  EXPECT_EQ(q.next_ready(TimePoint(5000)), TimePoint(5000));  // b already eligible
}

TEST(FqQdisc, EmptyNextReadyIsMax) {
  FqQdisc q;
  EXPECT_EQ(q.next_ready(TimePoint::zero()), TimePoint::max());
}

TEST(FqQdisc, HorizonClampsAbsurdEdt) {
  FqQdisc q(FqQdisc::Config{Bytes::mebi(4), Bytes(3028), Duration::seconds(1)});
  auto p = make_packet(100);
  p.enqueued_at = TimePoint::zero();
  p.not_before = TimePoint(Duration::seconds(100).ns());
  q.enqueue(std::move(p));
  // Clamped to the 1 s horizon instead of 100 s.
  EXPECT_TRUE(q.dequeue(TimePoint(Duration::seconds(1).ns())).has_value());
}

TEST(FqQdisc, BacklogAndActiveFlows) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  q.enqueue(make_packet(100, a));
  q.enqueue(make_packet(100, b));
  EXPECT_EQ(q.active_flows(), 2u);
  EXPECT_EQ(q.backlog().count(), 2 * (100 + net::kEthIpTcpHeader));
  while (q.dequeue(TimePoint::zero())) {
  }
  EXPECT_EQ(q.active_flows(), 0u);
  EXPECT_EQ(q.backlog().count(), 0);
}

TEST(FqQdisc, ActiveFlowsCountsOnlyBackloggedFlows) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  q.enqueue(make_packet(100, a));
  q.enqueue(make_packet(100, b));
  q.enqueue(make_packet(100, b));
  ASSERT_TRUE(q.dequeue(TimePoint::zero()).has_value());  // a's only packet
  EXPECT_EQ(q.active_flows(), 1u);
  EXPECT_EQ(q.flow_backlog(a).count(), 0);
  EXPECT_EQ(q.flow_backlog(b).count(), 2 * (100 + net::kEthIpTcpHeader));
  q.enqueue(make_packet(100, a));  // a returns
  EXPECT_EQ(q.active_flows(), 2u);
  EXPECT_EQ(q.flow_backlog(a).count(), 100 + net::kEthIpTcpHeader);
}

TEST(FqQdisc, FlowBacklogIsZeroForIdleFlows) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  EXPECT_EQ(q.flow_backlog(a).count(), 0);  // never seen
  q.enqueue(make_packet(100, a));
  ASSERT_TRUE(q.dequeue(TimePoint::zero()).has_value());
  EXPECT_EQ(q.flow_backlog(a).count(), 0);  // drained
}

// A flow that drains is forgotten: when it returns it starts over with a
// zero deficit at the back of the round, behind flows that stayed
// backlogged. With a 3028-byte quantum and 1514-byte packets, b sends two
// packets per visit, and a returning a needs one top-up visit before it
// sends — so b gets four packets in between, not two.
TEST(FqQdisc, ReturningFlowRestartsAtBackWithZeroDeficit) {
  FqQdisc q;
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  const std::int64_t full = 1514 - net::kEthIpTcpHeader;
  q.enqueue(make_packet(100, a));
  for (int i = 0; i < 6; ++i) q.enqueue(make_packet(full, b));
  std::string order;
  auto next = [&] {
    auto p = q.dequeue(TimePoint::zero());
    ASSERT_TRUE(p.has_value());
    order += p->flow == a ? 'a' : 'b';
  };
  next();  // a sends its packet with most of its quantum left, then drains
  EXPECT_EQ(order, "a");
  q.enqueue(make_packet(100, a));
  while (!q.empty()) next();
  EXPECT_EQ(order, "abbbbabb");
}

// A dequeue while every head is paced out returns nothing and rotates the
// round once around, which is the identity: the NIC skips such dequeues,
// and that must not change which flow is served next. `q` takes extra
// paced-out dequeues that `twin` does not; both then drain in one order.
TEST(FqQdisc, PacedOutDequeueLeavesRoundUnchanged) {
  const net::FlowKey a{1, 2, 1000, 80, net::Proto::Tcp};
  const net::FlowKey b{1, 2, 1001, 80, net::Proto::Tcp};
  const net::FlowKey c{1, 2, 1002, 80, net::Proto::Tcp};
  FqQdisc q;
  FqQdisc twin;
  for (FqQdisc* qd : {&q, &twin}) {
    // One eligible packet per flow at t = 1000, the rest paced to 2000;
    // unequal sizes leave the flows with different deficits.
    qd->enqueue(make_packet(1400, a));
    qd->enqueue(make_packet(200, b));
    qd->enqueue(make_packet(800, c));
    for (int i = 0; i < 3; ++i) {
      qd->enqueue(make_packet(1400, a, TimePoint(2000)));
      qd->enqueue(make_packet(200 + 400 * i, b, TimePoint(2000)));
      qd->enqueue(make_packet(800, c, TimePoint(2000)));
    }
    std::string sent;
    while (qd->next_ready(TimePoint(1000)) <= TimePoint(1000)) {
      auto p = qd->dequeue(TimePoint(1000));
      ASSERT_TRUE(p.has_value());
      sent += p->flow == a ? 'a' : p->flow == b ? 'b' : 'c';
    }
    EXPECT_EQ(sent, "abc");
  }
  EXPECT_FALSE(q.dequeue(TimePoint(1000)).has_value());
  EXPECT_FALSE(q.dequeue(TimePoint(1999)).has_value());
  EXPECT_EQ(q.next_ready(TimePoint(1999)), TimePoint(2000));

  auto drain = [&](FqQdisc& qd) {
    std::string order;
    while (auto p = qd.dequeue(TimePoint(2000))) {
      order += p->flow == a ? 'a' : p->flow == b ? 'b' : 'c';
    }
    return order;
  };
  const std::string order = drain(q);
  EXPECT_EQ(order, drain(twin));
  EXPECT_EQ(order, "ccabbbcaa");
}

// ------------------------------------------------- capacity guard parity

// Both qdiscs share admit-one-into-empty-queue capacity semantics: a packet
// larger than the whole capacity is admitted into an empty queue (else the
// flow wedges forever), and over-capacity packets are dropped — and counted
// — identically once anything is backlogged.
TEST(QdiscCapacity, OverCapacityPacketHandledIdenticallyByFifoAndFq) {
  FifoQdisc fifo(Bytes(1000));
  FqQdisc fq(FqQdisc::Config{.capacity = Bytes(1000)});
  for (Qdisc* q : {static_cast<Qdisc*>(&fifo), static_cast<Qdisc*>(&fq)}) {
    // 1400-payload wire size (~1458) exceeds the whole 1000-byte capacity:
    // admitted because the queue is empty.
    q->enqueue(make_packet(1400));
    EXPECT_EQ(q->dropped(), 0u);
    EXPECT_FALSE(q->empty());
    // Anything more while backlogged is over capacity: dropped and counted.
    q->enqueue(make_packet(1400));
    EXPECT_EQ(q->dropped(), 1u);
    q->enqueue(make_packet(100));
    EXPECT_EQ(q->dropped(), 2u);
    // The admitted packet still drains, and the queue re-admits afterwards.
    EXPECT_TRUE(q->dequeue(TimePoint::zero()).has_value());
    EXPECT_TRUE(q->empty());
    q->enqueue(make_packet(1400));
    EXPECT_EQ(q->dropped(), 2u);
    EXPECT_FALSE(q->empty());
  }
}

// -------------------------------------------------------------------- NIC

struct NicFixture {
  sim::Simulator sim;
  net::Pipe pipe{sim, {DataRate::gbps(10), Duration::micros(1), Bytes(0), 0.0}};
  Nic nic{sim, std::make_unique<FqQdisc>()};
  std::vector<net::Packet> delivered;

  NicFixture() {
    nic.attach_egress(pipe);
    pipe.set_sink([this](net::Packet p) { delivered.push_back(std::move(p)); });
  }
};

TEST(Nic, PassthroughSmallPacket) {
  NicFixture f;
  f.nic.transmit(make_packet(1000));
  f.sim.run();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].payload.count(), 1000);
}

TEST(Nic, TsoSplitsSuperSegment) {
  NicFixture f;
  auto p = make_packet(10 * 1448);
  p.tso_mss = 1448;
  p.l4 = net::TcpHeader{.seq = 5000, .ack = 0, .flags = net::kTcpAck, .rwnd = 65535, .sack = {}};
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(f.delivered.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(f.delivered[i].payload.count(), 1448);
    EXPECT_EQ(f.delivered[i].tcp().seq, 5000 + i * 1448);
  }
  EXPECT_EQ(f.nic.tso_segments_split(), 1u);
  EXPECT_EQ(f.nic.wire_packets_sent(), 10u);
}

TEST(Nic, TsoLastPacketShort) {
  NicFixture f;
  auto p = make_packet(3 * 1448 + 500);
  p.tso_mss = 1448;
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(f.delivered.size(), 4u);
  EXPECT_EQ(f.delivered.back().payload.count(), 500);
}

TEST(Nic, TsoFinOnlyOnLastPacket) {
  NicFixture f;
  auto p = make_packet(2 * 1000);
  p.tso_mss = 1000;
  net::TcpHeader h;
  h.seq = 0;
  h.flags = net::kTcpAck | net::kTcpFin;
  p.l4 = h;
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_FALSE(f.delivered[0].tcp().has(net::kTcpFin));
  EXPECT_TRUE(f.delivered[1].tcp().has(net::kTcpFin));
}

TEST(Nic, TsoMicroBurstAtLineRate) {
  NicFixture f;
  auto p = make_packet(4 * 1448);
  p.tso_mss = 1448;
  std::vector<TimePoint> tx_times;
  f.pipe.set_tx_tap([&](const net::Packet&, TimePoint t) { tx_times.push_back(t); });
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(tx_times.size(), 4u);
  // Consecutive wire packets separated by exactly one serialisation time.
  const Duration gap01 = tx_times[1] - tx_times[0];
  const Duration gap12 = tx_times[2] - tx_times[1];
  EXPECT_EQ(gap01.ns(), gap12.ns());
  EXPECT_EQ(gap01.ns(),
            DataRate::gbps(10).transmit_time(Bytes(1448 + net::kEthIpTcpHeader)).ns());
}

TEST(Nic, EdtDelaysDequeue) {
  NicFixture f;
  auto p = make_packet(100);
  p.not_before = TimePoint(2'000'000);
  std::vector<TimePoint> tx_times;
  f.pipe.set_tx_tap([&](const net::Packet&, TimePoint t) { tx_times.push_back(t); });
  f.nic.transmit(std::move(p));
  f.sim.run();
  ASSERT_EQ(tx_times.size(), 1u);
  EXPECT_EQ(tx_times[0].ns(), 2'000'000);
}

TEST(Nic, CompletionHandlerFires) {
  NicFixture f;
  const net::FlowKey flow{1, 2, 1000, 80, net::Proto::Tcp};
  std::int64_t completed = 0;
  FnEndpoint ep;
  ep.complete = [&](Bytes b) { completed += b.count(); };
  f.nic.set_completion_handler(flow, ep);
  f.nic.transmit(make_packet(1000, flow));
  f.sim.run();
  EXPECT_EQ(completed, 1000 + net::kEthIpTcpHeader);
}

// A completion handler may install completions for other flows (a TSQ
// wakeup that opens a connection). The NIC dispatches through a pointer
// copied out of its flow table, so the table growing under the running
// handler must not misroute this or any later completion.
TEST(Nic, CompletionHandlerMayInstallOtherFlows) {
  NicFixture f;
  constexpr int kOthers = 32;
  auto key = [](int i) { return net::FlowKey{1, 2, static_cast<net::Port>(1000 + i), 80,
                                             net::Proto::Tcp}; };
  std::vector<std::int64_t> completed(kOthers + 1, 0);
  std::vector<FnEndpoint> eps(kOthers + 1);
  for (int i = 0; i <= kOthers; ++i) {
    eps[i].complete = [&completed, i](Bytes b) { completed[i] += b.count(); };
  }
  bool installed = false;
  eps[0].complete = [&](Bytes b) {
    if (!installed) {
      installed = true;
      for (int i = 1; i <= kOthers; ++i) f.nic.set_completion_handler(key(i), eps[i]);
    }
    completed[0] += b.count();
  };
  f.nic.set_completion_handler(key(0), eps[0]);
  for (int i = 0; i <= kOthers; ++i) f.nic.transmit(make_packet(100 + i, key(i)));
  f.nic.transmit(make_packet(500, key(0)));
  f.sim.run();
  ASSERT_TRUE(installed);
  EXPECT_EQ(completed[0], 100 + 500 + 2 * net::kEthIpTcpHeader);
  for (int i = 1; i <= kOthers; ++i) {
    EXPECT_EQ(completed[i], 100 + i + net::kEthIpTcpHeader) << "flow " << i;
  }
}

TEST(Nic, FlowUnsentAccounting) {
  NicFixture f;
  const net::FlowKey flow{1, 2, 1000, 80, net::Proto::Tcp};
  auto p = make_packet(1000, flow);
  p.not_before = TimePoint(1'000'000);  // paced into the future: stays in qdisc
  f.nic.transmit(std::move(p));
  EXPECT_EQ(f.nic.flow_unsent(flow).count(), 1000 + net::kEthIpTcpHeader);
  f.sim.run();
  EXPECT_EQ(f.nic.flow_unsent(flow).count(), 0);
}

TEST(Nic, FlowUnsentIsZeroForIdleFlows) {
  NicFixture f;
  const net::FlowKey flow{1, 2, 1000, 80, net::Proto::Tcp};
  EXPECT_EQ(f.nic.flow_unsent(flow).count(), 0);  // never seen
  f.nic.transmit(make_packet(1000, flow));
  auto super = make_packet(3000, flow);
  super.tso_mss = 1000;  // split into three wire packets, each tracked in the ring
  f.nic.transmit(std::move(super));
  EXPECT_GT(f.nic.flow_unsent(flow).count(), 0);
  f.sim.run();
  EXPECT_EQ(f.nic.flow_unsent(flow).count(), 0);  // every wire packet completed
}

TEST(Nic, RingBackpressureBoundsInflight) {
  sim::Simulator sim;
  // Slow pipe so the ring fills.
  net::Pipe pipe(sim, {DataRate::mbps(1), Duration::micros(1), Bytes(0), 0.0});
  Nic nic(sim, std::make_unique<FifoQdisc>(), Nic::Config{Bytes(3000)});
  nic.attach_egress(pipe);
  pipe.set_sink([](net::Packet) {});
  for (int i = 0; i < 10; ++i) nic.transmit(make_packet(1400));
  // With a 3000-byte ring, at most 2 full packets can be posted; the rest
  // must still be in the qdisc.
  EXPECT_GT(nic.qdisc().backlog().count(), 0);
  sim.run();
  EXPECT_EQ(nic.qdisc().backlog().count(), 0);
}

// Regression for the pump wakeup audit: when the tx ring is full, pump()
// cancels the pacing wakeup and does not rearm it. A paced packet parked in
// the qdisc behind a full ring must still drain via the
// on_wire_complete -> pump path once serialisations finish.
TEST(Nic, PacedPacketSurvivesFullRing) {
  sim::Simulator sim;
  // 1 Mb/s: each ~1458B wire packet takes ~11.7ms to serialise, so the ring
  // stays full long past the pacing deadline.
  net::Pipe pipe(sim, {DataRate::mbps(1), Duration::micros(1), Bytes(0), 0.0});
  Nic nic(sim, std::make_unique<FqQdisc>(), Nic::Config{Bytes(3000)});
  nic.attach_egress(pipe);
  std::vector<net::Packet> delivered;
  pipe.set_sink([&](net::Packet p) { delivered.push_back(std::move(p)); });

  for (int i = 0; i < 3; ++i) nic.transmit(make_packet(1400));  // fill the ring + qdisc
  auto paced = make_packet(1400);
  paced.not_before = TimePoint(5'000'000);  // 5ms: before the first completion
  nic.transmit(std::move(paced));
  // The paced packet is stuck behind a full ring with no wakeup armed...
  EXPECT_GT(nic.qdisc().backlog().count(), 0);
  sim.run();
  // ...but completions re-pump, so the flow must not stall.
  EXPECT_EQ(delivered.size(), 4u);
  EXPECT_EQ(nic.qdisc().backlog().count(), 0);
}

/// fq that counts the dequeues which return nothing.
struct CountingFq final : Qdisc {
  FqQdisc inner;
  std::size_t empty_dequeues = 0;

  void enqueue(net::Packet&& p) override { inner.enqueue(std::move(p)); }
  std::optional<net::Packet> dequeue(TimePoint now) override {
    std::optional<net::Packet> p = inner.dequeue(now);
    if (!p) ++empty_dequeues;
    return p;
  }
  TimePoint next_ready(TimePoint now) const override { return inner.next_ready(now); }
  bool empty() const override { return inner.empty(); }
  Bytes backlog() const override { return inner.backlog(); }
  std::uint64_t dropped() const override { return inner.dropped(); }
  Bytes flow_backlog(const net::FlowKey& flow) const override { return inner.flow_backlog(flow); }
};

// After every pump exactly one wakeup is pending, at the earliest head's
// time: a paced packet that goes ahead of the queued ones re-arms it in
// place (one cancel each), and the NIC never dequeues while every head is
// paced out.
TEST(Nic, PumpKeepsOneWakeupAtTheEarliestHead) {
  sim::Simulator sim;
  net::Pipe pipe(sim, {DataRate::gbps(10), Duration::micros(1), Bytes(0), 0.0});
  Nic nic(sim, std::make_unique<CountingFq>());
  nic.attach_egress(pipe);
  std::vector<std::pair<net::Port, std::int64_t>> sent;  // (source port, tx time)
  pipe.set_tx_tap(
      [&](const net::Packet& p, TimePoint t) { sent.emplace_back(p.flow.src_port, t.ns()); });
  pipe.set_sink([](net::Packet) {});
  auto flow = [](int i) {
    return net::FlowKey{1, 2, static_cast<net::Port>(1000 + i), 80, net::Proto::Tcp};
  };

  const std::int64_t heads[] = {80'000, 30'000, 50'000, 30'000, 90'000};
  std::int64_t earliest = heads[0];
  for (int i = 0; i < 5; ++i) {
    nic.transmit(make_packet(100, flow(i), TimePoint(heads[i])));
    earliest = std::min(earliest, heads[i]);
    EXPECT_EQ(sim.pending(), 1u) << "after packet " << i;
  }
  // Packet 1 moved the wakeup earlier; packets 2 to 4 re-armed it at the
  // same time. Each re-arm counts one cancel.
  EXPECT_EQ(sim.cancelled(), 4u);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.now().ns(), earliest);
  sim.run();

  // 1003 leaves when 1001 has serialised, not when it was due.
  const std::int64_t serialise =
      DataRate::gbps(10).transmit_time(Bytes(100 + net::kEthIpTcpHeader)).ns();
  const std::vector<std::pair<net::Port, std::int64_t>> want = {
      {1001, 30'000}, {1003, 30'000 + serialise}, {1002, 50'000}, {1000, 80'000}, {1004, 90'000}};
  EXPECT_EQ(sent, want);
  EXPECT_EQ(static_cast<CountingFq&>(nic.qdisc()).empty_dequeues, 0u);
}

TEST(Nic, PacedFarFutureRearmsAfterRingDrains) {
  sim::Simulator sim;
  net::Pipe pipe(sim, {DataRate::mbps(1), Duration::micros(1), Bytes(0), 0.0});
  Nic nic(sim, std::make_unique<FqQdisc>(), Nic::Config{Bytes(3000)});
  nic.attach_egress(pipe);
  std::vector<TimePoint> tx_times;
  pipe.set_tx_tap([&](const net::Packet&, TimePoint t) { tx_times.push_back(t); });
  pipe.set_sink([](net::Packet) {});

  for (int i = 0; i < 2; ++i) nic.transmit(make_packet(1400));
  auto paced = make_packet(1400);
  // 80ms: long after the ring drains (~23ms), so the drain path must rearm
  // a wakeup for the pacing deadline rather than send early or never.
  paced.not_before = TimePoint(80'000'000);
  nic.transmit(std::move(paced));
  sim.run();
  ASSERT_EQ(tx_times.size(), 3u);
  EXPECT_EQ(tx_times.back().ns(), 80'000'000);
}

// -------------------------------------------------------------------- CPU

TEST(CpuModel, DisabledIsFree) {
  CpuModel cpu;
  EXPECT_FALSE(cpu.enabled());
  EXPECT_EQ(cpu.dispatch(TimePoint(100), Bytes(10000), 10), TimePoint(100));
}

TEST(CpuModel, SerialisesWork) {
  CpuModel cpu(CpuModel::Costs{Duration::nanos(500), Duration::nanos(20), 0.0});
  // Two segments of 4 packets each: 500 + 4*20 = 580 ns apiece.
  const TimePoint t1 = cpu.dispatch(TimePoint::zero(), Bytes(4000), 4);
  EXPECT_EQ(t1.ns(), 580);
  const TimePoint t2 = cpu.dispatch(TimePoint::zero(), Bytes(4000), 4);
  EXPECT_EQ(t2.ns(), 1160);  // queued behind the first
  EXPECT_EQ(cpu.busy_time().ns(), 1160);
}

TEST(CpuModel, PerByteCost) {
  CpuModel cpu(CpuModel::Costs{Duration(0), Duration(0), 0.5});
  const TimePoint t = cpu.dispatch(TimePoint::zero(), Bytes(1000), 1);
  EXPECT_EQ(t.ns(), 500);
}

TEST(CpuModel, IdleGapsNotAccumulated) {
  CpuModel cpu(CpuModel::Costs{Duration::nanos(100), Duration(0), 0.0});
  (void)cpu.dispatch(TimePoint::zero(), Bytes(1), 1);
  const TimePoint t = cpu.dispatch(TimePoint(10'000), Bytes(1), 1);
  EXPECT_EQ(t.ns(), 10'100);  // starts at now, not at previous free_at
  EXPECT_EQ(cpu.busy_time().ns(), 200);
}

// ------------------------------------------------------------------- Host

TEST(Host, DemuxToRegisteredFlow) {
  sim::Simulator sim;
  Host host(sim, 2);
  const net::FlowKey incoming{1, 2, 1000, 80, net::Proto::Tcp};
  int got = 0;
  FnEndpoint ep;
  ep.packet = [&](net::Packet) { ++got; };
  ASSERT_TRUE(host.register_flow(incoming, ep));
  host.receive(make_packet(100, incoming));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(host.unmatched_packets(), 0u);
}

TEST(Host, ListenerFallback) {
  sim::Simulator sim;
  Host host(sim, 2);
  int got = 0;
  host.bind_listener(80, net::Proto::Tcp, [&](net::Packet) { ++got; });
  host.receive(make_packet(100, {1, 2, 55555, 80, net::Proto::Tcp}));
  EXPECT_EQ(got, 1);
}

TEST(Host, ExactFlowBeatsListener) {
  sim::Simulator sim;
  Host host(sim, 2);
  const net::FlowKey incoming{1, 2, 1000, 80, net::Proto::Tcp};
  int flow_got = 0, listener_got = 0;
  FnEndpoint ep;
  ep.packet = [&](net::Packet) { ++flow_got; };
  host.register_flow(incoming, ep);
  host.bind_listener(80, net::Proto::Tcp, [&](net::Packet) { ++listener_got; });
  host.receive(make_packet(100, incoming));
  EXPECT_EQ(flow_got, 1);
  EXPECT_EQ(listener_got, 0);
}

TEST(Host, UnmatchedCounted) {
  sim::Simulator sim;
  Host host(sim, 2);
  host.receive(make_packet(100));
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(Host, DuplicateFlowRegistrationRejected) {
  sim::Simulator sim;
  Host host(sim, 2);
  const net::FlowKey k{1, 2, 1000, 80, net::Proto::Tcp};
  FnEndpoint first, second;
  EXPECT_TRUE(host.register_flow(k, first));
  EXPECT_FALSE(host.register_flow(k, second));
}

// The page-load client opens its remaining connections from inside the
// flow handler that receives the HTML, so a handler may grow the host's
// flow table, and remove other flows from it, while it runs. Every packet
// must still reach the endpoint registered for its key.
TEST(Host, FlowHandlerMayRegisterAndUnregisterWhileDispatched) {
  sim::Simulator sim;
  Host host(sim, 2);
  constexpr int kNew = 32;
  auto key = [](int i) { return net::FlowKey{1, 2, static_cast<net::Port>(1000 + i), 80,
                                             net::Proto::Tcp}; };
  // 0 = the dispatched flow, 1 = a flow it unregisters, 2.. = flows it adds.
  std::vector<std::vector<std::uint64_t>> got(kNew + 2);
  std::vector<FnEndpoint> eps(kNew + 2);
  for (int i = 0; i < kNew + 2; ++i) {
    eps[i].packet = [&got, i](net::Packet p) { got[i].push_back(p.id); };
  }
  eps[0].packet = [&](net::Packet p) {
    if (got[0].empty()) {
      for (int i = 2; i < kNew + 2; ++i) ASSERT_TRUE(host.register_flow(key(i), eps[i]));
      host.unregister_flow(key(1));
    }
    got[0].push_back(p.id);
  };
  ASSERT_TRUE(host.register_flow(key(1), eps[1]));
  ASSERT_TRUE(host.register_flow(key(0), eps[0]));

  std::vector<std::vector<std::uint64_t>> sent(kNew + 2);
  auto send = [&](int i) {
    net::Packet p = make_packet(100, key(i));
    sent[i].push_back(p.id);
    host.receive(std::move(p));
  };
  send(1);  // still registered
  send(0);  // runs the re-entrant handler
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kNew + 2; ++i) {
      if (i != 1) send(i);
    }
  }
  host.receive(make_packet(100, key(1)));  // unregistered: unmatched

  for (int i = 0; i < kNew + 2; ++i) EXPECT_EQ(got[i], sent[i]) << "flow " << i;
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(Host, EphemeralPortsDistinct) {
  sim::Simulator sim;
  Host host(sim, 1);
  EXPECT_NE(host.allocate_port(), host.allocate_port());
}

TEST(HostPair, WiringDeliversBothWays) {
  HostPair hp;
  int at_server = 0, at_client = 0;
  hp.server().bind_listener(80, net::Proto::Tcp, [&](net::Packet) { ++at_server; });
  hp.client().bind_listener(80, net::Proto::Tcp, [&](net::Packet) { ++at_client; });
  hp.client().nic().transmit(make_packet(100, {1, 2, 999, 80, net::Proto::Tcp}));
  hp.server().nic().transmit(make_packet(100, {2, 1, 999, 80, net::Proto::Tcp}));
  hp.run();
  EXPECT_EQ(at_server, 1);
  EXPECT_EQ(at_client, 1);
}

}  // namespace
}  // namespace stob::stack
