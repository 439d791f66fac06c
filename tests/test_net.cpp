// Tests for the network substrate: packets, pipes, duplex paths, taps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "net/packet.hpp"
#include "net/path.hpp"
#include "net/pipe.hpp"
#include "sim/simulator.hpp"

namespace stob::net {
namespace {

Packet make_packet(std::int64_t payload, FlowKey flow = {1, 2, 1000, 80, Proto::Tcp}) {
  Packet p;
  p.id = next_packet_id();
  p.flow = flow;
  p.header = Bytes(kEthIpTcpHeader);
  p.payload = Bytes(payload);
  return p;
}

TEST(Packet, FlowKeyReversal) {
  const FlowKey k{1, 2, 1000, 80, Proto::Tcp};
  const FlowKey r = k.reversed();
  EXPECT_EQ(r.src_host, 2u);
  EXPECT_EQ(r.dst_host, 1u);
  EXPECT_EQ(r.src_port, 80);
  EXPECT_EQ(r.dst_port, 1000);
  EXPECT_EQ(r.reversed(), k);
}

TEST(Packet, FlowKeyHashDistinguishes) {
  FlowKeyHash h;
  const FlowKey a{1, 2, 1000, 80, Proto::Tcp};
  const FlowKey b{1, 2, 1001, 80, Proto::Tcp};
  EXPECT_NE(h(a), h(b));
  EXPECT_EQ(h(a), h(a));
}

TEST(Packet, WireSize) {
  const Packet p = make_packet(1000);
  EXPECT_EQ(p.wire_size().count(), 1000 + kEthIpTcpHeader);
}

TEST(Packet, UniqueIds) {
  const auto a = next_packet_id();
  const auto b = next_packet_id();
  EXPECT_NE(a, b);
}

TEST(Pipe, DeliversWithSerialisationAndDelay) {
  sim::Simulator s;
  // 8 Mbps, 1 ms delay: 1000B wire packet -> 1 ms serialise + 1 ms delay.
  Pipe pipe(s, {DataRate::mbps(8), Duration::millis(1), Bytes(0), 0.0});
  TimePoint delivered_at;
  pipe.set_sink([&](Packet) { delivered_at = s.now(); });
  Packet p = make_packet(1000 - kEthIpTcpHeader);
  pipe.send(std::move(p));
  s.run();
  EXPECT_EQ(delivered_at.ns(), 2'000'000);
  EXPECT_EQ(pipe.delivered_packets(), 1u);
}

TEST(Pipe, BackToBackSerialisation) {
  sim::Simulator s;
  Pipe pipe(s, {DataRate::mbps(8), Duration::millis(0), Bytes(0), 0.0});
  std::vector<TimePoint> deliveries;
  pipe.set_sink([&](Packet) { deliveries.push_back(s.now()); });
  for (int i = 0; i < 3; ++i) pipe.send(make_packet(1000 - kEthIpTcpHeader));
  s.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0].ns(), 1'000'000);
  EXPECT_EQ(deliveries[1].ns(), 2'000'000);
  EXPECT_EQ(deliveries[2].ns(), 3'000'000);
}

TEST(Pipe, PreservesOrder) {
  sim::Simulator s;
  Pipe pipe(s, {DataRate::gbps(1), Duration::micros(10), Bytes(0), 0.0});
  std::vector<std::uint64_t> ids;
  pipe.set_sink([&](Packet p) { ids.push_back(p.id); });
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(100);
    sent.push_back(p.id);
    pipe.send(std::move(p));
  }
  s.run();
  EXPECT_EQ(ids, sent);
}

// The arrival lane: however many packets a constant-delay pipe has in
// propagation, only the oldest one's arrival is an event in the heap.
TEST(Pipe, ConstantDelayPipeHoldsOneArrivalEvent) {
  sim::Simulator s;
  const Duration delay = Duration::millis(10);
  Pipe pipe(s, {DataRate::gbps(1), delay, Bytes(0), 0.0});
  const Duration tx = DataRate::gbps(1).transmit_time(make_packet(100).wire_size());
  std::vector<std::uint64_t> ids;
  pipe.set_sink([&](Packet&& p) {
    ids.push_back(p.id);
    EXPECT_EQ(s.now(), p.sent_at + tx + delay);
  });
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(100);
    sent.push_back(p.id);
    pipe.send(std::move(p));
  }
  // Mid-serialisation: the serialiser's event plus the lane head.
  s.run(TimePoint(tx.ns() * 10 + 1));
  EXPECT_EQ(pipe.in_flight_packets(), 10u);
  EXPECT_EQ(s.pending(), 2u);
  // All 50 serialised, none arrived: one pending event.
  s.run(TimePoint(Duration::millis(1).ns()));
  EXPECT_EQ(pipe.in_flight_packets(), 50u);
  EXPECT_EQ(s.pending(), 1u);
  // Direct deliveries join the same lane.
  for (int i = 0; i < 5; ++i) {
    Packet p = make_packet(100);
    p.sent_at = s.now() - tx;
    sent.push_back(p.id);
    pipe.deliver(std::move(p));
  }
  EXPECT_EQ(pipe.in_flight_packets(), 55u);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(ids, sent);
  EXPECT_EQ(pipe.in_flight_packets(), 0u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Pipe, DropTailWhenFull) {
  sim::Simulator s;
  // Tiny queue: 2 full packets' worth.
  Pipe pipe(s, {DataRate::kbps(64), Duration::millis(1), Bytes(3000), 0.0});
  pipe.set_sink([](Packet) {});
  for (int i = 0; i < 10; ++i) pipe.send(make_packet(1400));
  EXPECT_GT(pipe.dropped_packets(), 0u);
  s.run();
  EXPECT_EQ(pipe.delivered_packets() + pipe.dropped_packets(), 10u);
}

TEST(Pipe, UnboundedQueueNeverDrops) {
  sim::Simulator s;
  Pipe pipe(s, {DataRate::kbps(64), Duration::millis(1), Bytes(0), 0.0});
  pipe.set_sink([](Packet) {});
  for (int i = 0; i < 100; ++i) pipe.send(make_packet(1400));
  s.run();
  EXPECT_EQ(pipe.dropped_packets(), 0u);
  EXPECT_EQ(pipe.delivered_packets(), 100u);
}

TEST(Pipe, LossModelDropsApproximately) {
  sim::Simulator s;
  Pipe pipe(s, {DataRate::gbps(1), Duration::micros(1), Bytes(0), 0.25});
  int received = 0;
  pipe.set_sink([&](Packet) { ++received; });
  for (int i = 0; i < 2000; ++i) pipe.send(make_packet(100));
  s.run();
  EXPECT_NEAR(static_cast<double>(received) / 2000.0, 0.75, 0.05);
  EXPECT_EQ(pipe.lost_packets() + pipe.delivered_packets(), 2000u);
}

TEST(Pipe, LostPacketFiresTxAccountingButNoRxTap) {
  // Loss happens after serialisation: the sender side (tx tap, tx_complete,
  // i.e. the NIC ring free) must see the packet, the receiver side (rx tap,
  // sink) must not.
  sim::Simulator s;
  Pipe pipe(s, {DataRate::gbps(1), Duration::millis(1), Bytes(0), 1.0});
  int tx_taps = 0, rx_taps = 0, completions = 0, sunk = 0;
  pipe.set_tx_tap([&](const Packet&, TimePoint) { ++tx_taps; });
  pipe.set_rx_tap([&](const Packet&, TimePoint) { ++rx_taps; });
  pipe.set_tx_complete([&](const Packet&) { ++completions; });
  pipe.set_sink([&](Packet) { ++sunk; });
  pipe.send(make_packet(1000));
  s.run();
  EXPECT_EQ(tx_taps, 1);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rx_taps, 0);
  EXPECT_EQ(sunk, 0);
  EXPECT_EQ(pipe.lost_packets(), 1u);
  EXPECT_EQ(pipe.delivered_packets(), 0u);
}

TEST(Pipe, TapsObserveTxAndRx) {
  sim::Simulator s;
  Pipe pipe(s, {DataRate::mbps(8), Duration::millis(1), Bytes(0), 0.0});
  TimePoint tx_at, rx_at;
  pipe.set_tx_tap([&](const Packet&, TimePoint t) { tx_at = t; });
  pipe.set_rx_tap([&](const Packet&, TimePoint t) { rx_at = t; });
  pipe.set_sink([](Packet) {});
  pipe.send(make_packet(1000 - kEthIpTcpHeader));
  s.run();
  EXPECT_EQ(tx_at.ns(), 0);           // serialisation starts immediately
  EXPECT_EQ(rx_at.ns(), 2'000'000);   // after serialise + propagate
}

TEST(Pipe, TxCompleteFreesAtSerialisationEnd) {
  sim::Simulator s;
  Pipe pipe(s, {DataRate::mbps(8), Duration::millis(5), Bytes(0), 0.0});
  TimePoint complete_at;
  pipe.set_tx_complete([&](const Packet&) { complete_at = s.now(); });
  pipe.set_sink([](Packet) {});
  pipe.send(make_packet(1000 - kEthIpTcpHeader));
  s.run();
  EXPECT_EQ(complete_at.ns(), 1'000'000);  // independent of propagation delay
}

TEST(Pipe, QueueDepthAccounting) {
  sim::Simulator s;
  Pipe pipe(s, {DataRate::kbps(64), Duration::millis(1), Bytes(0), 0.0});
  pipe.set_sink([](Packet) {});
  for (int i = 0; i < 5; ++i) pipe.send(make_packet(1000 - kEthIpTcpHeader));
  EXPECT_GT(pipe.max_queued_bytes().count(), 0);
  s.run();
  EXPECT_EQ(pipe.queued_bytes().count(), 0);
}

/// Fault model for the in-flight slab: every fifth packet is lost, the
/// others are delivered with extra delays that shrink packet by packet over
/// runs of 16 (so later packets overtake earlier ones), and every third is
/// duplicated.
/// Each copy's expected arrival time is recorded against its packet id.
class ScramblingFault final : public FaultModel {
 public:
  explicit ScramblingFault(sim::Simulator& sim) : sim_(sim) {}

  void on_transmitted(Pipe& pipe, Packet&& p) override {
    const int k = seen_++;
    if (k % 5 == 4) {
      pipe.count_lost(p);
      return;
    }
    const Duration extra = Duration::micros(100) * (16 - k % 16);
    if (k % 3 == 0) {
      Packet dup = p;
      deliver(pipe, std::move(dup), extra + Duration::micros(1));
    }
    deliver(pipe, std::move(p), extra);
  }

  /// pipe.deliver() with the arrival recorded and in-flight counted.
  void deliver(Pipe& pipe, Packet p, Duration extra) {
    expected_.emplace(p.id, sim_.now() + pipe.config().delay + extra);
    peak_in_flight_ = std::max(peak_in_flight_, ++in_flight_);
    pipe.deliver(std::move(p), extra);
  }

  /// Checks an arrival against the record and forgets it.
  void arrived(std::uint64_t id) {
    --in_flight_;
    const auto [lo, hi] = expected_.equal_range(id);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == sim_.now()) {
        expected_.erase(it);
        return;
      }
    }
    ADD_FAILURE() << "packet " << id << " arrived unexpectedly at " << sim_.now().ns();
  }

  std::size_t pending() const { return expected_.size(); }
  std::size_t peak_in_flight() const { return peak_in_flight_; }

 private:
  sim::Simulator& sim_;
  int seen_ = 0;
  std::multimap<std::uint64_t, TimePoint> expected_;
  std::size_t in_flight_ = 0;
  std::size_t peak_in_flight_ = 0;
};

/// Payload size and TCP header derived from the packet id, so a packet that
/// picked up another slot's contents fails the check.
Packet make_marked_packet(Port src_port) {
  Packet p = make_packet(0, {1, 2, src_port, 80, Proto::Tcp});
  p.payload = Bytes(100 + static_cast<std::int64_t>(p.id % 1000));
  p.tcp().seq = p.id * 7919;
  p.tcp().flags = kTcpAck;
  p.tcp().sack.push_back({p.id, p.id + 3});
  return p;
}

void expect_marked(const Packet& p) {
  EXPECT_EQ(p.payload.count(), 100 + static_cast<std::int64_t>(p.id % 1000)) << p.id;
  ASSERT_TRUE(p.is_tcp());
  EXPECT_EQ(p.tcp().seq, p.id * 7919);
  EXPECT_EQ(p.tcp().flags, kTcpAck);
  ASSERT_EQ(p.tcp().sack.size(), 1u);
  EXPECT_EQ(p.tcp().sack[0].first, p.id);
  EXPECT_EQ(p.tcp().sack[0].second, p.id + 3);
}

TEST(Pipe, InFlightSlotsSurviveReorderDuplicationLossAndReentry) {
  sim::Simulator s;
  Pipe pipe(s, {DataRate::mbps(100), Duration::millis(2), Bytes(0), 0.0});
  ScramblingFault fault(s);
  pipe.set_fault_model(&fault);
  constexpr Port kFirst = 1000, kResent = 1001, kRedelivered = 1002;
  std::size_t sunk = 0, rx_taps = 0;
  pipe.set_rx_tap([&](const Packet& p, TimePoint t) {
    ++rx_taps;
    EXPECT_EQ(t, s.now());
    expect_marked(p);
  });
  pipe.set_sink([&](Packet p) {
    ++sunk;
    fault.arrived(p.id);
    expect_marked(p);
    // Re-enter the pipe from its own sink: one packet back through the
    // serialiser and the fault model, one straight into propagation.
    if (p.flow.src_port == kFirst && p.id % 4 == 0) {
      pipe.send(make_marked_packet(kResent));
      fault.deliver(pipe, make_marked_packet(kRedelivered), Duration::micros(50));
    }
  });
  for (int i = 0; i < 200; ++i) pipe.send(make_marked_packet(kFirst));
  s.run();

  EXPECT_EQ(fault.pending(), 0u);
  EXPECT_EQ(sunk, pipe.delivered_packets());
  EXPECT_EQ(rx_taps, sunk);
  EXPECT_GT(pipe.lost_packets(), 0u);
  EXPECT_EQ(pipe.in_flight_packets(), 0u);
  // Slots are reused: the slab grew only to the peak in flight, well below
  // the number of deliveries.
  EXPECT_EQ(pipe.in_flight_high_water(), fault.peak_in_flight());
  EXPECT_LT(pipe.in_flight_high_water(), pipe.delivered_packets() / 2);
  pipe.set_fault_model(nullptr);
}

TEST(Pipe, DestroyedPipeReleasesPacketsInFlight) {
  sim::Simulator s;
  {
    Pipe pipe(s, {DataRate::gbps(1), Duration::millis(10), Bytes(0), 0.0});
    pipe.set_sink([](Packet) { ADD_FAILURE() << "delivered after destruction"; });
    for (int i = 0; i < 20; ++i) pipe.send(make_marked_packet(1000));
    s.run(TimePoint::zero() + Duration::millis(5));
    EXPECT_EQ(pipe.in_flight_packets(), 20u);
  }  // the slab destroys the 20 packets still in propagation (ASan checks)
}

TEST(DuplexPath, SymmetricRtt) {
  sim::Simulator s;
  DuplexPath path(s, DuplexPath::symmetric(DataRate::gbps(1), Duration::millis(5)));
  EXPECT_EQ(path.base_rtt().ms(), 10.0);
}

TEST(DuplexPath, DirectionsAreIndependent) {
  sim::Simulator s;
  DuplexPath path(s, DuplexPath::symmetric(DataRate::mbps(8), Duration::millis(1)));
  int fwd = 0, bwd = 0;
  path.forward().set_sink([&](Packet) { ++fwd; });
  path.backward().set_sink([&](Packet) { ++bwd; });
  path.forward().send(make_packet(100));
  path.backward().send(make_packet(100));
  path.backward().send(make_packet(100));
  s.run();
  EXPECT_EQ(fwd, 1);
  EXPECT_EQ(bwd, 2);
}

TEST(DuplexPath, AsymmetricDirectionsDiffer) {
  sim::Simulator s;
  // ADSL-shaped: fat/short downlink, thin/long uplink.
  DuplexPath path(s, DuplexPath::asymmetric(DataRate::mbps(5), Duration::millis(15),
                                            DataRate::mbps(50), Duration::millis(5)));
  EXPECT_EQ(path.forward().config().rate.bits_per_sec(), DataRate::mbps(5).bits_per_sec());
  EXPECT_EQ(path.backward().config().rate.bits_per_sec(), DataRate::mbps(50).bits_per_sec());
  EXPECT_EQ(path.forward().config().delay.ns(), Duration::millis(15).ns());
  EXPECT_EQ(path.backward().config().delay.ns(), Duration::millis(5).ns());
  EXPECT_EQ(path.base_rtt().ms(), 20.0);
}

TEST(DuplexPath, PipeSelectorByDirection) {
  sim::Simulator s;
  DuplexPath path(s, DuplexPath::symmetric(DataRate::mbps(8), Duration::millis(1)));
  EXPECT_EQ(&path.pipe(Direction::ClientToServer), &path.forward());
  EXPECT_EQ(&path.pipe(Direction::ServerToClient), &path.backward());
}

}  // namespace
}  // namespace stob::net
