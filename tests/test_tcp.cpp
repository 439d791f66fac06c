// TCP end-to-end tests over the simulated stack: handshake, bulk transfer,
// loss recovery, flow control, teardown, pacing/TSO behaviour, and the
// reliability property sweep (every byte delivered exactly once in order,
// for a grid of network conditions and CCAs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <tuple>

#include "stack/host_pair.hpp"
#include "tcp/bbr.hpp"
#include "tcp/congestion.hpp"
#include "tcp/cubic.hpp"
#include "tcp/reno.hpp"
#include "tcp/rtt.hpp"
#include "tcp/tcp_connection.hpp"
#include "util/rng.hpp"

namespace stob::tcp {
namespace {

using stack::HostPair;

struct Transfer {
  HostPair hp;
  std::unique_ptr<TcpListener> listener;
  std::unique_ptr<TcpConnection> client;
  TcpConnection* server_conn = nullptr;
  Bytes server_received;
  bool client_connected = false;
  bool server_closed = false;

  explicit Transfer(HostPair::Config cfg = HostPair::Config{},
                    TcpConnection::Config conn_cfg = TcpConnection::Config{})
      : hp(cfg) {
    listener = std::make_unique<TcpListener>(hp.server(), 80, conn_cfg);
    listener->set_accept_callback([this](TcpConnection& c) {
      server_conn = &c;
      c.on_data = [this](Bytes n) { server_received += n; };
      c.on_closed = [this] { server_closed = true; };
    });
    client = std::make_unique<TcpConnection>(hp.client(), conn_cfg);
    client->on_connected = [this] { client_connected = true; };
  }
};

TEST(TcpHandshake, Establishes) {
  Transfer t;
  t.client->connect(2, 80);
  t.hp.run();
  EXPECT_TRUE(t.client_connected);
  ASSERT_NE(t.server_conn, nullptr);
  EXPECT_EQ(t.client->state(), TcpConnection::State::Established);
  EXPECT_EQ(t.server_conn->state(), TcpConnection::State::Established);
}

TEST(TcpHandshake, SurvivesSynLoss) {
  HostPair::Config cfg;
  cfg.path = net::DuplexPath::symmetric(DataRate::mbps(100), Duration::millis(5));
  cfg.path.forward.loss_rate = 0.5;  // drops SYNs with 50% probability
  Transfer t(cfg);
  t.client->connect(2, 80);
  t.hp.run(TimePoint(Duration::seconds(30).ns()));
  EXPECT_TRUE(t.client_connected);
}

TEST(TcpTransfer, SmallMessage) {
  Transfer t;
  t.client->connect(2, 80);
  t.client->send(Bytes(1000));
  t.hp.run();
  EXPECT_EQ(t.server_received.count(), 1000);
}

TEST(TcpTransfer, SendBeforeConnectIsBuffered) {
  Transfer t;
  t.client->send(Bytes(5000));  // buffered while still Closed/SynSent
  t.client->connect(2, 80);
  t.hp.run();
  EXPECT_EQ(t.server_received.count(), 5000);
}

TEST(TcpTransfer, BulkMegabyte) {
  Transfer t;
  t.client->connect(2, 80);
  t.client->send(Bytes::mebi(1));
  t.hp.run();
  EXPECT_EQ(t.server_received.count(), Bytes::mebi(1).count());
  EXPECT_EQ(t.client->stats().bytes_delivered.count(), Bytes::mebi(1).count());
}

TEST(TcpTransfer, SendBufferCapRespected) {
  TcpConnection::Config cc;
  cc.send_buffer = Bytes(10'000);
  Transfer t(HostPair::Config{}, cc);
  t.client->connect(2, 80);
  const Bytes accepted = t.client->send(Bytes(50'000));
  EXPECT_EQ(accepted.count(), 10'000);
}

TEST(TcpTransfer, ThroughputApproachesLinkRate) {
  // 100 Mbps, 10 ms one-way delay; 4 MB transfer should take just over
  // 4MB*8/100Mbps = 0.32 s once the window opens.
  HostPair::Config cfg;
  cfg.path = net::DuplexPath::symmetric(DataRate::mbps(100), Duration::millis(10),
                                        Bytes::kibi(512));
  Transfer t(cfg);
  t.client->connect(2, 80);
  t.client->send(Bytes::mebi(4));
  // Step in 100 ms increments so the clock reflects completion time rather
  // than the run horizon.
  TimePoint horizon = TimePoint::zero();
  while (t.server_received < Bytes::mebi(4) && horizon < TimePoint(Duration::seconds(20).ns())) {
    horizon += Duration::millis(100);
    t.hp.run(horizon);
  }
  ASSERT_EQ(t.server_received.count(), Bytes::mebi(4).count());
  const double secs = t.hp.sim().now().sec();
  EXPECT_LT(secs, 2.0);
  const double mbps = Bytes::mebi(4).bits() / 1e6 / secs;
  EXPECT_GT(mbps, 40.0);  // at least 40% utilisation including slow start
}

TEST(TcpTransfer, DelayedAcksReduceAckCount) {
  Transfer t;
  t.client->connect(2, 80);
  t.client->send(Bytes::mebi(1));
  t.hp.run();
  ASSERT_NE(t.server_conn, nullptr);
  // Roughly one ACK per two MSS-sized packets, plus timer flushes.
  const auto acks = t.server_conn->stats().acks_sent;
  const auto packets = static_cast<std::uint64_t>(Bytes::mebi(1).count() / 1448);
  EXPECT_LT(acks, packets);
}

TEST(TcpLoss, RecoversFromForwardLoss) {
  HostPair::Config cfg;
  cfg.path = net::DuplexPath::symmetric(DataRate::mbps(50), Duration::millis(10));
  cfg.path.forward.loss_rate = 0.02;
  Transfer t(cfg);
  t.client->connect(2, 80);
  t.client->send(Bytes::mebi(1));
  t.hp.run(TimePoint(Duration::seconds(60).ns()));
  EXPECT_EQ(t.server_received.count(), Bytes::mebi(1).count());
  EXPECT_GT(t.client->stats().retransmissions, 0u);
}

TEST(TcpLoss, FastRetransmitTriggersBeforeRto) {
  HostPair::Config cfg;
  cfg.path = net::DuplexPath::symmetric(DataRate::mbps(50), Duration::millis(10));
  cfg.path.forward.loss_rate = 0.01;
  Transfer t(cfg);
  t.client->connect(2, 80);
  t.client->send(Bytes::mebi(2));
  t.hp.run(TimePoint(Duration::seconds(60).ns()));
  EXPECT_EQ(t.server_received.count(), Bytes::mebi(2).count());
  EXPECT_GT(t.client->stats().fast_retransmits, 0u);
}

TEST(TcpLoss, ReverseLossOnlyAffectsAcks) {
  HostPair::Config cfg;
  cfg.path = net::DuplexPath::symmetric(DataRate::mbps(50), Duration::millis(10));
  cfg.path.backward.loss_rate = 0.05;  // ACK loss: cumulative acks tolerate it
  Transfer t(cfg);
  t.client->connect(2, 80);
  t.client->send(Bytes::mebi(1));
  t.hp.run(TimePoint(Duration::seconds(60).ns()));
  EXPECT_EQ(t.server_received.count(), Bytes::mebi(1).count());
}

TEST(TcpClose, GracefulBothWays) {
  Transfer t;
  bool client_closed = false;
  t.client->on_closed = [&] { client_closed = true; };
  t.client->connect(2, 80);
  t.client->send(Bytes(10'000));
  // Close the client right away; the FIN must still trail the data.
  t.client->close();
  t.hp.run(TimePoint(Duration::seconds(30).ns()));
  // Client sent FIN; server conn is in CloseWait until it closes.
  ASSERT_NE(t.server_conn, nullptr);
  EXPECT_EQ(t.server_received.count(), 10'000);
  EXPECT_EQ(t.server_conn->state(), TcpConnection::State::CloseWait);
  t.server_conn->close();
  t.hp.run(TimePoint(Duration::seconds(60).ns()));
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(t.client->state(), TcpConnection::State::Done);
  EXPECT_EQ(t.server_conn->state(), TcpConnection::State::Done);
}

TEST(TcpClose, FinAfterBufferDrains) {
  Transfer t;
  t.client->connect(2, 80);
  t.client->send(Bytes(100'000));
  t.client->close();  // FIN must not cut the data short
  t.hp.run(TimePoint(Duration::seconds(30).ns()));
  EXPECT_EQ(t.server_received.count(), 100'000);
}

TEST(TcpFlowControl, ZeroWindowBlocksAndResumes) {
  TcpConnection::Config cc;
  cc.recv_buffer = Bytes(20'000);
  cc.auto_consume = false;  // server app does not read
  Transfer t(HostPair::Config{}, cc);
  t.client->connect(2, 80);
  t.client->send(Bytes(100'000));
  t.hp.run(TimePoint(Duration::seconds(5).ns()));
  ASSERT_NE(t.server_conn, nullptr);
  // Receiver buffer filled; sender blocked around the 20 kB mark.
  EXPECT_LE(t.server_received.count(), 21'000);
  EXPECT_GT(t.server_received.count(), 0);
  // App reads in rounds: each consume reopens the 20 kB window, so the
  // transfer completes after a few rounds.
  TimePoint horizon = t.hp.sim().now();
  for (int round = 0; round < 12 && t.server_received.count() < 100'000; ++round) {
    t.server_conn->consume(Bytes(100'000));
    horizon += Duration::seconds(10);
    t.hp.run(horizon);
  }
  EXPECT_EQ(t.server_received.count(), 100'000);
}

TEST(TcpBidirectional, DataBothWaysSimultaneously) {
  Transfer t;
  Bytes client_received;
  t.client->on_data = [&](Bytes n) { client_received += n; };
  t.listener->set_accept_callback([&t](TcpConnection& c) {
    t.server_conn = &c;
    c.on_data = [&t](Bytes n) { t.server_received += n; };
    c.on_connected = [&c] { c.send(Bytes(200'000)); };
  });
  t.client->connect(2, 80);
  t.client->send(Bytes(300'000));
  t.hp.run(TimePoint(Duration::seconds(30).ns()));
  EXPECT_EQ(t.server_received.count(), 300'000);
  EXPECT_EQ(client_received.count(), 200'000);
}

TEST(TcpTso, SuperSegmentsSplitOnWire) {
  Transfer t;
  std::int64_t max_wire_payload = 0;
  t.hp.path().forward().set_tx_tap([&](const net::Packet& p, TimePoint) {
    max_wire_payload = std::max(max_wire_payload, p.payload.count());
  });
  t.client->connect(2, 80);
  t.client->send(Bytes::mebi(1));
  t.hp.run();
  EXPECT_EQ(t.server_received.count(), Bytes::mebi(1).count());
  // No wire packet may exceed the MSS even though the transport sent
  // multi-MSS TSO segments.
  EXPECT_LE(max_wire_payload, 1448);
  EXPECT_GT(t.hp.client().nic().tso_segments_split(), 0u);
}

TEST(TcpTso, DisabledSendsMssPackets) {
  TcpConnection::Config cc;
  cc.tso_enabled = false;
  Transfer t(HostPair::Config{}, cc);
  t.client->connect(2, 80);
  t.client->send(Bytes(200'000));
  t.hp.run();
  EXPECT_EQ(t.server_received.count(), 200'000);
  EXPECT_EQ(t.hp.client().nic().tso_segments_split(), 0u);
}

TEST(TcpNagle, CoalescesSmallWrites) {
  TcpConnection::Config cc;
  cc.nagle = true;
  Transfer t(HostPair::Config{}, cc);
  std::uint64_t data_packets = 0;
  t.hp.path().forward().set_tx_tap([&](const net::Packet& p, TimePoint) {
    if (p.payload.count() > 0) ++data_packets;
  });
  t.client->connect(2, 80);
  t.hp.run();
  // 50 tiny writes in the same instant: Nagle allows one in-flight small
  // segment; the rest coalesce behind it.
  for (int i = 0; i < 50; ++i) t.client->send(Bytes(10));
  t.hp.run();
  EXPECT_EQ(t.server_received.count(), 500);
  EXPECT_LE(data_packets, 3u);
}

TEST(TcpRtt, SrttApproximatesPathRtt) {
  HostPair::Config cfg;
  cfg.path = net::DuplexPath::symmetric(DataRate::mbps(100), Duration::millis(25));
  Transfer t(cfg);
  t.client->connect(2, 80);
  t.client->send(Bytes(500'000));
  t.hp.run();
  // Base RTT is 50 ms; allow serialisation/queueing/delack slack.
  EXPECT_GT(t.client->srtt().ms(), 45.0);
  EXPECT_LT(t.client->srtt().ms(), 120.0);
}

TEST(TcpStats, AccountingConsistent) {
  Transfer t;
  t.client->connect(2, 80);
  t.client->send(Bytes(250'000));
  t.hp.run();
  const auto& st = t.client->stats();
  EXPECT_EQ(st.bytes_delivered.count(), 250'000);
  EXPECT_GE(st.bytes_sent.count(), 250'000);  // includes retransmissions
  EXPECT_GT(st.segments_sent, 0u);
}

// ---------------------------------------------------------------- property
// Reliability sweep: for a grid of (cca, loss, rate, rtt) the stream is
// delivered exactly once, in order, no matter what.

using ReliabilityParams = std::tuple<std::string, double, int, int>;

class TcpReliability : public ::testing::TestWithParam<ReliabilityParams> {};

TEST_P(TcpReliability, DeliversExactlyOnce) {
  const auto& [cca, loss, mbps, rtt_ms] = GetParam();
  HostPair::Config cfg;
  cfg.path = net::DuplexPath::symmetric(DataRate::mbps(mbps), Duration::millis(rtt_ms / 2),
                                        Bytes::kibi(256));
  cfg.path.forward.loss_rate = loss;
  cfg.path.backward.loss_rate = loss / 2;
  TcpConnection::Config cc;
  cc.cca = cca;
  Transfer t(cfg, cc);
  t.client->connect(2, 80);
  const Bytes payload = Bytes(300'000);
  t.client->send(payload);
  t.hp.run(TimePoint(Duration::seconds(120).ns()));
  EXPECT_EQ(t.server_received.count(), payload.count())
      << "cca=" << cca << " loss=" << loss << " mbps=" << mbps << " rtt=" << rtt_ms;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpReliability,
    ::testing::Combine(::testing::Values("reno", "cubic", "bbr"),
                       ::testing::Values(0.0, 0.01, 0.05),
                       ::testing::Values(10, 100),
                       ::testing::Values(10, 80)));

// -------------------------------------------------------- congestion units

TEST(RenoCc, SlowStartDoublesPerRtt) {
  RenoCc cc(Bytes(1000));
  const Bytes before = cc.cwnd();
  AckEvent ev;
  ev.newly_acked = before;  // a full window acked
  ev.srtt = Duration::millis(10);
  cc.on_ack(ev);
  EXPECT_EQ(cc.cwnd().count(), 2 * before.count());
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(RenoCc, LossHalvesWindow) {
  RenoCc cc(Bytes(1000));
  AckEvent ev;
  ev.newly_acked = Bytes(100'000);
  ev.srtt = Duration::millis(10);
  cc.on_ack(ev);
  const Bytes before = cc.cwnd();
  cc.on_loss(TimePoint::zero());
  EXPECT_EQ(cc.cwnd().count(), before.count() / 2);
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(RenoCc, RtoResetsToOneMss) {
  RenoCc cc(Bytes(1000));
  cc.on_rto(TimePoint::zero());
  EXPECT_EQ(cc.cwnd().count(), 1000);
}

TEST(RenoCc, CongestionAvoidanceLinearGrowth) {
  RenoCc cc(Bytes(1000));
  cc.on_loss(TimePoint::zero());  // leave slow start
  const Bytes w0 = cc.cwnd();
  // One window's worth of acks -> roughly +1 MSS.
  std::int64_t acked = 0;
  while (acked < w0.count()) {
    AckEvent ev;
    ev.newly_acked = Bytes(1000);
    ev.srtt = Duration::millis(10);
    cc.on_ack(ev);
    acked += 1000;
  }
  EXPECT_NEAR(static_cast<double>(cc.cwnd().count() - w0.count()), 1000.0, 300.0);
}

TEST(RenoCc, PacingRateTracksWindow) {
  RenoCc cc(Bytes(1000));
  EXPECT_TRUE(cc.pacing_rate().is_zero());  // no srtt yet
  AckEvent ev;
  ev.newly_acked = Bytes(1000);
  ev.srtt = Duration::millis(10);
  cc.on_ack(ev);
  // cwnd 11000 bytes / 10 ms * 2 (slow start) = 17.6 Mbps.
  EXPECT_NEAR(cc.pacing_rate().mbps_f(), 17.6, 0.5);
}

TEST(CubicCc, GrowsAfterLossTowardsWmax) {
  CubicCc cc(Bytes(1000));
  // Exit slow start with a loss at 100 kB.
  AckEvent ev;
  ev.newly_acked = Bytes(90'000);
  ev.srtt = Duration::millis(20);
  ev.now = TimePoint::zero();
  cc.on_ack(ev);
  cc.on_loss(TimePoint::zero());
  const Bytes after_loss = cc.cwnd();
  EXPECT_LT(after_loss.count(), 100'000);
  // Feed acks over simulated time; window should recover.
  TimePoint now = TimePoint::zero();
  for (int i = 0; i < 200; ++i) {
    now += Duration::millis(20);
    AckEvent e;
    e.newly_acked = Bytes(10'000);
    e.srtt = Duration::millis(20);
    e.now = now;
    cc.on_ack(e);
  }
  EXPECT_GT(cc.cwnd().count(), after_loss.count());
}

TEST(CubicCc, RtoCollapsesWindow) {
  CubicCc cc(Bytes(1000));
  cc.on_rto(TimePoint::zero());
  EXPECT_EQ(cc.cwnd().count(), 1000);
}

TEST(BbrCc, LearnsBottleneckBandwidth) {
  BbrCc cc(Bytes(1000));
  TimePoint now = TimePoint::zero();
  for (int i = 0; i < 100; ++i) {
    now += Duration::millis(10);
    AckEvent ev;
    ev.now = now;
    ev.newly_acked = Bytes(12'500);
    ev.rtt_sample = Duration::millis(10);
    ev.srtt = Duration::millis(10);
    ev.delivery_rate = DataRate::mbps(10);
    ev.inflight = Bytes(12'500);
    cc.on_ack(ev);
  }
  EXPECT_EQ(cc.btlbw().bits_per_sec(), DataRate::mbps(10).bits_per_sec());
  EXPECT_EQ(cc.min_rtt().ms(), 10.0);
  EXPECT_NE(cc.mode(), BbrCc::Mode::Startup);  // full pipe detected
}

TEST(BbrCc, RtoKeepsModelAndStopsProbing) {
  BbrCc cc(Bytes(1000));
  AckEvent ev;
  ev.now = TimePoint(1);
  ev.delivery_rate = DataRate::mbps(10);
  ev.rtt_sample = Duration::millis(5);
  ev.srtt = Duration::millis(5);
  ev.newly_acked = Bytes(1000);
  cc.on_ack(ev);
  cc.on_rto(TimePoint(2));
  // The bandwidth model survives; the flow paces at the believed rate
  // without probing gain so the repair traffic cannot re-overrun the path.
  EXPECT_EQ(cc.btlbw().bits_per_sec(), DataRate::mbps(10).bits_per_sec());
  EXPECT_EQ(cc.mode(), BbrCc::Mode::ProbeBw);
  EXPECT_EQ(cc.pacing_rate().bits_per_sec(), DataRate::mbps(10).bits_per_sec());
}

TEST(BbrCc, RtoWithoutModelRestartsStartup) {
  BbrCc cc(Bytes(1000));
  cc.on_rto(TimePoint(1));
  EXPECT_TRUE(cc.btlbw().is_zero());
  EXPECT_EQ(cc.mode(), BbrCc::Mode::Startup);
}

/// BbrCc as it was with a linear-scan bandwidth filter: every sample of the
/// last 10 s kept in arrival order, btlbw() their maximum. The equivalence
/// tests below drive it beside BbrCc, whose filter is a monotonic
/// max-queue, and require the same model after every ACK.
class LinearScanBbr {
 public:
  explicit LinearScanBbr(Bytes mss) : mss_(mss.count()), initial_cwnd_(10 * mss_) {}

  DataRate btlbw() const {
    std::int64_t best = 0;
    for (const auto& [t, bps] : samples_) best = std::max(best, bps);
    return DataRate(best);
  }

  void on_ack(const AckEvent& ev) {
    srtt_ = ev.srtt;
    if (!ev.delivery_rate.is_zero()) samples_.emplace_back(ev.now, ev.delivery_rate.bits_per_sec());
    while (!samples_.empty() && ev.now - samples_.front().first > kWindow) samples_.pop_front();
    if (ev.rtt_sample.ns() > 0 &&
        (ev.rtt_sample < min_rtt_ || ev.now - min_rtt_stamp_ > kWindow)) {
      min_rtt_ = ev.rtt_sample;
      min_rtt_stamp_ = ev.now;
    }
    switch (mode_) {
      case BbrCc::Mode::Startup:
        if (ev.now - round_start_ >= std::max(srtt_, Duration::millis(1))) {
          round_start_ = ev.now;
          const std::int64_t bw = btlbw().bits_per_sec();
          if (bw > full_bw_ + full_bw_ / 4) {
            full_bw_ = bw;
            full_bw_count_ = 0;
          } else if (full_bw_ > 0 && ++full_bw_count_ >= 3) {
            mode_ = BbrCc::Mode::Drain;
          }
        }
        break;
      case BbrCc::Mode::Drain:
        if (ev.inflight <= bdp(1.0)) {
          mode_ = BbrCc::Mode::ProbeBw;
          cycle_index_ = 0;
          cycle_stamp_ = ev.now;
        }
        break;
      case BbrCc::Mode::ProbeBw:
        if (ev.now - cycle_stamp_ >= std::max(min_rtt_, Duration::millis(1))) {
          cycle_index_ = (cycle_index_ + 1) % 8;
          cycle_stamp_ = ev.now;
        }
        if (ev.now - min_rtt_stamp_ > kWindow) {
          mode_ = BbrCc::Mode::ProbeRtt;
          probe_rtt_done_ = ev.now + Duration::millis(200);
        }
        break;
      case BbrCc::Mode::ProbeRtt:
        if (ev.now >= probe_rtt_done_) {
          min_rtt_stamp_ = ev.now;
          mode_ = BbrCc::Mode::ProbeBw;
          cycle_index_ = 0;
          cycle_stamp_ = ev.now;
        }
        break;
    }
  }

  void on_rto() {
    if (btlbw().is_zero()) {
      full_bw_ = 0;
      full_bw_count_ = 0;
      mode_ = BbrCc::Mode::Startup;
      return;
    }
    mode_ = BbrCc::Mode::ProbeBw;
    cycle_index_ = 2;
  }

  Bytes cwnd() const {
    switch (mode_) {
      case BbrCc::Mode::Startup:
        return bdp(kStartupGain) < Bytes(initial_cwnd_) ? Bytes(initial_cwnd_)
                                                        : bdp(kStartupGain);
      case BbrCc::Mode::Drain:
      case BbrCc::Mode::ProbeBw:
        return bdp(2.0);
      case BbrCc::Mode::ProbeRtt:
        return Bytes(4 * mss_);
    }
    return Bytes(initial_cwnd_);
  }

  DataRate pacing_rate() const {
    static constexpr double kProbeGains[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    const DataRate bw = btlbw();
    if (bw.is_zero()) {
      if (srtt_.ns() <= 0) return DataRate(0);
      return DataRate::from(Bytes(initial_cwnd_), srtt_) * kStartupGain;
    }
    double gain = 1.0;
    switch (mode_) {
      case BbrCc::Mode::Startup: gain = kStartupGain; break;
      case BbrCc::Mode::Drain: gain = 1.0 / kStartupGain; break;
      case BbrCc::Mode::ProbeBw: gain = kProbeGains[cycle_index_]; break;
      case BbrCc::Mode::ProbeRtt: gain = 1.0; break;
    }
    return bw * gain;
  }

  BbrCc::Mode mode() const { return mode_; }

 private:
  static constexpr double kStartupGain = 2.885;
  static constexpr Duration kWindow = Duration::seconds(10);

  Bytes bdp(double gain) const {
    const DataRate bw = btlbw();
    if (bw.is_zero() || min_rtt_ >= Duration::seconds(10)) return Bytes(initial_cwnd_);
    const double bytes = bw.gbps_f() * 1e9 / 8.0 * min_rtt_.sec() * gain;
    return Bytes(std::max<std::int64_t>(static_cast<std::int64_t>(bytes), 4 * mss_));
  }

  std::int64_t mss_;
  std::int64_t initial_cwnd_;
  BbrCc::Mode mode_ = BbrCc::Mode::Startup;
  std::deque<std::pair<TimePoint, std::int64_t>> samples_;
  Duration min_rtt_ = Duration::seconds(10);
  TimePoint min_rtt_stamp_ = TimePoint::zero();
  Duration srtt_;
  std::int64_t full_bw_ = 0;
  int full_bw_count_ = 0;
  TimePoint round_start_ = TimePoint::zero();
  int cycle_index_ = 0;
  TimePoint cycle_stamp_ = TimePoint::zero();
  TimePoint probe_rtt_done_ = TimePoint::zero();
};

enum class RateShape { Random, Rising, Falling, Ties };

/// Feeds the same seeded ACK stream to BbrCc and LinearScanBbr and requires
/// the same bandwidth, window, pacing rate and mode after every ACK and
/// every RTO. A quarter of the ACKs carry no rate sample, and about one
/// gap in 64 is longer than the 10 s window, which empties it.
void expect_same_model(RateShape shape, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape) << " seed " << seed);
  BbrCc cc(Bytes(1000));
  LinearScanBbr ref(Bytes(1000));
  Rng rng(seed);
  TimePoint now = TimePoint::zero();
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t r = rng.uniform_int(0, 63);
    now += r == 0 ? Duration::seconds(11) : Duration::micros(rng.uniform_int(0, 40'000));
    std::int64_t mbps = 0;
    switch (shape) {
      case RateShape::Random: mbps = rng.uniform_int(1, 200); break;
      case RateShape::Rising: mbps = 1 + i / 4; break;
      case RateShape::Falling: mbps = 1 + (3000 - i) / 4; break;
      case RateShape::Ties: mbps = 10 * rng.uniform_int(1, 3); break;
    }
    AckEvent ev;
    ev.now = now;
    ev.newly_acked = Bytes(1000);
    ev.rtt_sample = rng.chance(0.1) ? Duration() : Duration::micros(rng.uniform_int(5'000, 60'000));
    ev.srtt = Duration::millis(20);
    ev.delivery_rate = rng.chance(0.25) ? DataRate(0) : DataRate::mbps(mbps);
    ev.inflight = Bytes(rng.uniform_int(0, 400'000));
    cc.on_ack(ev);
    ref.on_ack(ev);
    ASSERT_EQ(cc.btlbw().bits_per_sec(), ref.btlbw().bits_per_sec()) << "ack " << i;
    ASSERT_EQ(cc.cwnd().count(), ref.cwnd().count()) << "ack " << i;
    ASSERT_EQ(cc.pacing_rate().bits_per_sec(), ref.pacing_rate().bits_per_sec()) << "ack " << i;
    ASSERT_EQ(cc.mode(), ref.mode()) << "ack " << i;
    if (rng.chance(0.01)) {
      cc.on_rto(now);
      ref.on_rto();
      ASSERT_EQ(cc.mode(), ref.mode()) << "rto after ack " << i;
      ASSERT_EQ(cc.pacing_rate().bits_per_sec(), ref.pacing_rate().bits_per_sec());
    }
  }
}

TEST(BbrCc, MaxQueueFilterMatchesLinearScan) {
  for (const RateShape shape :
       {RateShape::Random, RateShape::Rising, RateShape::Falling, RateShape::Ties}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) expect_same_model(shape, seed);
  }
}

TEST(BbrCc, SampleExactlyOneWindowOldStays) {
  BbrCc cc(Bytes(1000));
  LinearScanBbr ref(Bytes(1000));
  const auto ack = [&](TimePoint now, DataRate rate) {
    AckEvent ev;
    ev.now = now;
    ev.srtt = Duration::millis(10);
    ev.delivery_rate = rate;
    cc.on_ack(ev);
    ref.on_ack(ev);
    EXPECT_EQ(cc.btlbw().bits_per_sec(), ref.btlbw().bits_per_sec());
  };
  const TimePoint t0 = TimePoint::zero() + Duration::seconds(1);
  ack(t0, DataRate::mbps(50));
  ack(t0 + Duration::seconds(5), DataRate::mbps(20));
  // Eviction is `age > window`: a sample exactly 10 s old still counts.
  ack(t0 + Duration::seconds(10), DataRate(0));
  EXPECT_EQ(cc.btlbw().bits_per_sec(), DataRate::mbps(50).bits_per_sec());
  ack(t0 + Duration::seconds(10) + Duration::nanos(1), DataRate(0));
  EXPECT_EQ(cc.btlbw().bits_per_sec(), DataRate::mbps(20).bits_per_sec());
  ack(t0 + Duration::seconds(15) + Duration::nanos(1), DataRate(0));
  EXPECT_TRUE(cc.btlbw().is_zero());
}

TEST(CongestionFactory, KnownNamesAndUnknownThrows) {
  EXPECT_EQ(make_congestion_control("reno", Bytes(1448))->name(), "reno");
  EXPECT_EQ(make_congestion_control("cubic", Bytes(1448))->name(), "cubic");
  EXPECT_EQ(make_congestion_control("bbr", Bytes(1448))->name(), "bbr");
  EXPECT_THROW(make_congestion_control("vegas", Bytes(1448)), std::invalid_argument);
}

// -------------------------------------------------------------- RTT units

TEST(RttEstimator, FirstSampleInitialises) {
  RttEstimator est;
  est.add_sample(Duration::millis(100));
  EXPECT_EQ(est.srtt().ms(), 100.0);
  EXPECT_EQ(est.rttvar().ms(), 50.0);
  EXPECT_TRUE(est.has_sample());
}

TEST(RttEstimator, SmoothsTowardsSamples) {
  RttEstimator est;
  est.add_sample(Duration::millis(100));
  for (int i = 0; i < 50; ++i) est.add_sample(Duration::millis(20));
  EXPECT_NEAR(est.srtt().ms(), 20.0, 2.0);
}

TEST(RttEstimator, RtoRespectsMinimum) {
  RttEstimator est;  // default min 200 ms
  for (int i = 0; i < 20; ++i) est.add_sample(Duration::micros(100));
  EXPECT_GE(est.rto(), Duration::millis(200));
}

TEST(RttEstimator, BackoffDoubles) {
  RttEstimator est;
  est.add_sample(Duration::millis(100));
  const Duration before = est.rto();
  est.backoff();
  EXPECT_EQ(est.rto().ns(), 2 * before.ns());
}

TEST(RttEstimator, MinRttTracked) {
  RttEstimator est;
  est.add_sample(Duration::millis(30));
  est.add_sample(Duration::millis(10));
  est.add_sample(Duration::millis(50));
  EXPECT_EQ(est.min_rtt().ms(), 10.0);
}

// ------------------------------------------------------------- TSO sizing

TEST(TsoAutosize, UnpacedUsesMax) {
  EXPECT_EQ(tso_autosize(DataRate(0), Bytes(1448), Bytes(65160)).count(), 65160);
}

TEST(TsoAutosize, TargetsOneMillisecond) {
  // 100 Mbps * 1 ms = 12500 bytes -> 8 MSS = 11584.
  const Bytes b = tso_autosize(DataRate::mbps(100), Bytes(1448), Bytes(65160));
  EXPECT_EQ(b.count(), (12500 / 1448) * 1448);
}

TEST(TsoAutosize, FloorsAtTwoMss) {
  const Bytes b = tso_autosize(DataRate::kbps(100), Bytes(1448), Bytes(65160));
  EXPECT_EQ(b.count(), 2 * 1448);
}

TEST(TsoAutosize, CapsAtMax) {
  const Bytes b = tso_autosize(DataRate::gbps(100), Bytes(1448), Bytes(65160));
  EXPECT_EQ(b.count(), 65160);
}

TEST(TsoAutosize, MultipleOfMss) {
  for (int mbps : {1, 10, 100, 1000, 10000}) {
    const Bytes b = tso_autosize(DataRate::mbps(mbps), Bytes(1448), Bytes(65160));
    EXPECT_EQ(b.count() % 1448, 0) << mbps;
  }
}

}  // namespace
}  // namespace stob::tcp
