// Tests for the adverse-network fault layer (src/fault/fault.hpp) and the
// runtime stack-invariant checker (src/fault/invariants.hpp): impairment
// semantics, seeded determinism, transport recovery driven through the
// fault layer, and the checker's clean / violating verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/policy.hpp"
#include "exp/experiment.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "net/packet.hpp"
#include "net/path.hpp"
#include "net/pipe.hpp"
#include "obs/trace_recorder.hpp"
#include "quic/quic_connection.hpp"
#include "sim/simulator.hpp"
#include "stack/host.hpp"
#include "stack/host_pair.hpp"
#include "tcp/tcp_connection.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

namespace stob::fault {
namespace {

using stack::HostPair;

net::Packet make_packet(std::int64_t payload) {
  net::Packet p;
  p.id = net::next_packet_id();
  p.flow = {1, 2, 1000, 80, net::Proto::Tcp};
  p.header = Bytes(net::kEthIpTcpHeader);
  p.payload = Bytes(payload);
  return p;
}

net::Pipe::Config fast_pipe() {
  return {DataRate::gbps(1), Duration::millis(1), Bytes(0), 0.0};
}

// ------------------------------------------------------------ impairments

TEST(FaultInjector, DropFiresTxAccountingNeverRx) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  Profile p;
  p.iid_loss = 1.0;
  FaultInjector inj(s, pipe, p, Rng(1));
  int tx_taps = 0, rx_taps = 0, completions = 0, sunk = 0;
  pipe.set_tx_tap([&](const net::Packet&, TimePoint) { ++tx_taps; });
  pipe.set_rx_tap([&](const net::Packet&, TimePoint) { ++rx_taps; });
  pipe.set_tx_complete([&](const net::Packet&) { ++completions; });
  pipe.set_sink([&](net::Packet) { ++sunk; });
  pipe.send(make_packet(1000));
  s.run();
  // The sender's ring must be freed (tx side saw the packet) but nothing
  // may reach the receive side of the link.
  EXPECT_EQ(tx_taps, 1);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rx_taps, 0);
  EXPECT_EQ(sunk, 0);
  EXPECT_EQ(pipe.lost_packets(), 1u);
  EXPECT_EQ(pipe.delivered_packets(), 0u);
  EXPECT_EQ(inj.stats().lost, 1u);
}

TEST(FaultInjector, GilbertElliottLossIsBursty) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  Profile p;
  p.bursty = {0.05, 0.30, 0.0, 1.0};  // Bad state loses everything
  FaultInjector inj(s, pipe, p, Rng(42));
  std::vector<std::uint64_t> sent;
  std::unordered_set<std::uint64_t> received;
  pipe.set_sink([&](net::Packet q) { received.insert(q.id); });
  for (int i = 0; i < 2000; ++i) {
    net::Packet q = make_packet(100);
    sent.push_back(q.id);
    pipe.send(std::move(q));
  }
  s.run();
  // Stationary Bad occupancy is 0.05/(0.05+0.30) ~ 14%; check the loss mass
  // is in that ballpark and that losses cluster into bursts, which an
  // i.i.d. model at the same rate almost never produces.
  const auto lost = static_cast<std::int64_t>(inj.stats().lost);
  EXPECT_GT(lost, 150);
  EXPECT_LT(lost, 500);
  int run = 0, max_run = 0;
  for (std::uint64_t id : sent) {
    run = received.count(id) != 0 ? 0 : run + 1;
    max_run = std::max(max_run, run);
  }
  EXPECT_GE(max_run, 3);
}

TEST(FaultInjector, DuplicationDeliversBothCopies) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  Profile p;
  p.duplicate = {1.0};
  FaultInjector inj(s, pipe, p, Rng(3));
  std::vector<std::uint64_t> arrivals;
  pipe.set_sink([&](net::Packet q) { arrivals.push_back(q.id); });
  for (int i = 0; i < 3; ++i) pipe.send(make_packet(500));
  s.run();
  ASSERT_EQ(arrivals.size(), 6u);
  EXPECT_EQ(inj.stats().duplicated, 3u);
  EXPECT_EQ(pipe.delivered_packets(), 6u);
  // Each original immediately followed by its copy.
  for (std::size_t i = 0; i < arrivals.size(); i += 2) {
    EXPECT_EQ(arrivals[i], arrivals[i + 1]);
  }
}

TEST(FaultInjector, CorruptionIsDeliveredMarkedAndDroppedAtHost) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  Profile p;
  p.corrupt = {1.0};
  FaultInjector inj(s, pipe, p, Rng(4));
  int corrupted_arrivals = 0;
  stack::Host host(s, 2);
  pipe.set_sink([&](net::Packet q) {
    if (q.corrupted) ++corrupted_arrivals;
    host.receive(std::move(q));
  });
  pipe.send(make_packet(800));
  s.run();
  // The packet occupies the wire and reaches the host, but checksum
  // validation eats it before any transport demux.
  EXPECT_EQ(corrupted_arrivals, 1);
  EXPECT_EQ(inj.stats().corrupted, 1u);
  EXPECT_EQ(host.checksum_drops(), 1u);
  EXPECT_EQ(host.unmatched_packets(), 0u);
}

TEST(FaultInjector, ReorderingInvertsArrivalOrder) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  Profile p;
  p.reorder = {0.3, 4, Duration::millis(1)};
  FaultInjector inj(s, pipe, p, Rng(5));
  std::vector<std::uint64_t> sent, arrivals;
  pipe.set_sink([&](net::Packet q) { arrivals.push_back(q.id); });
  for (int i = 0; i < 100; ++i) {
    net::Packet q = make_packet(100);
    sent.push_back(q.id);
    pipe.send(std::move(q));
  }
  s.run();
  ASSERT_EQ(arrivals.size(), sent.size());  // reordering never loses
  EXPECT_GT(inj.stats().reordered, 0u);
  EXPECT_NE(arrivals, sent);
  EXPECT_TRUE(std::is_permutation(arrivals.begin(), arrivals.end(), sent.begin()));
}

TEST(FaultInjector, JitterPreservesOrder) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  Profile p;
  p.jitter = {Duration::millis(5)};
  FaultInjector inj(s, pipe, p, Rng(6));
  std::vector<std::uint64_t> sent, arrivals;
  std::vector<TimePoint> times;
  pipe.set_sink([&](net::Packet q) {
    arrivals.push_back(q.id);
    times.push_back(s.now());
  });
  for (int i = 0; i < 100; ++i) {
    net::Packet q = make_packet(100);
    sent.push_back(q.id);
    pipe.send(std::move(q));
  }
  s.run();
  EXPECT_EQ(arrivals, sent);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(inj.stats().delivered, 100u);
}

TEST(FaultInjector, FlapDropsOnlyDuringBlackout) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  Profile p;
  p.flap = {Duration::millis(10), Duration::millis(10)};  // 10 up / 10 down
  FaultInjector inj(s, pipe, p, Rng(7));
  int sunk = 0;
  pipe.set_sink([&](net::Packet) { ++sunk; });
  s.schedule_at(TimePoint(Duration::millis(5).ns()), [&] { pipe.send(make_packet(100)); });
  s.schedule_at(TimePoint(Duration::millis(15).ns()), [&] { pipe.send(make_packet(100)); });
  s.run();
  EXPECT_EQ(sunk, 1);
  EXPECT_EQ(inj.stats().flap_lost, 1u);
  EXPECT_FALSE(inj.link_down(TimePoint(Duration::millis(5).ns())));
  EXPECT_TRUE(inj.link_down(TimePoint(Duration::millis(15).ns())));
  // Past the active horizon the link stays up so event queues drain.
  EXPECT_FALSE(inj.link_down(TimePoint(Duration::seconds(91).ns())));
}

TEST(FaultInjector, OscillationTogglesAndRestoresBaseRate) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  const std::int64_t base_bps = pipe.config().rate.bits_per_sec();
  Profile p;
  p.oscillation = {0.25, Duration::millis(20)};
  p.active_for = Duration::millis(100);
  FaultInjector inj(s, pipe, p, Rng(8));
  std::int64_t bps_at_15ms = 0;
  s.schedule_at(TimePoint(Duration::millis(15).ns()),
                [&] { bps_at_15ms = pipe.config().rate.bits_per_sec(); });
  s.run();
  EXPECT_EQ(bps_at_15ms, base_bps / 4);  // in the low half-period
  EXPECT_EQ(pipe.config().rate.bits_per_sec(), base_bps);  // restored at horizon
}

TEST(FaultInjector, SameSeedSameArrivalSchedule) {
  auto run_once = [](std::uint64_t seed) {
    net::PacketIdScope ids;
    sim::Simulator s;
    net::Pipe pipe(s, fast_pipe());
    FaultInjector inj(s, pipe, adverse_mix(), Rng(seed));
    std::vector<std::pair<std::uint64_t, std::int64_t>> arrivals;
    pipe.set_sink([&](net::Packet q) { arrivals.emplace_back(q.id, s.now().ns()); });
    for (int i = 0; i < 300; ++i) pipe.send(make_packet(200));
    s.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(FaultInjector, DetachRestoresCleanPipe) {
  sim::Simulator s;
  net::Pipe pipe(s, fast_pipe());
  {
    Profile p;
    p.iid_loss = 1.0;
    FaultInjector inj(s, pipe, p, Rng(1));
    EXPECT_EQ(pipe.fault_model(), &inj);
  }
  EXPECT_EQ(pipe.fault_model(), nullptr);
  int sunk = 0;
  pipe.set_sink([&](net::Packet) { ++sunk; });
  pipe.send(make_packet(100));
  s.run();
  EXPECT_EQ(sunk, 1);
}

// ------------------------------------------- transport recovery via faults

struct Transfer {
  HostPair hp;
  std::unique_ptr<tcp::TcpListener> listener;
  std::unique_ptr<tcp::TcpConnection> client;
  Bytes server_received;
  bool client_connected = false;

  explicit Transfer(HostPair::Config cfg = HostPair::Config{},
                    tcp::TcpConnection::Config conn_cfg = tcp::TcpConnection::Config{})
      : hp(cfg) {
    listener = std::make_unique<tcp::TcpListener>(hp.server(), 80, conn_cfg);
    listener->set_accept_callback([this](tcp::TcpConnection& c) {
      c.on_data = [this](Bytes n) { server_received += n; };
    });
    client = std::make_unique<tcp::TcpConnection>(hp.client(), conn_cfg);
    client->on_connected = [this] { client_connected = true; };
  }
};

TEST(FaultTransport, TcpTransferCompletesUnderBurstyLoss) {
  Transfer t;
  PathFaults faults(t.hp.sim(), t.hp.path(), PathProfile::symmetric(bursty_loss()), Rng(11));
  t.client->connect(2, 80);
  t.client->send(Bytes(200'000));
  t.hp.run(TimePoint(Duration::seconds(60).ns()));
  EXPECT_EQ(t.server_received.count(), 200'000);
  EXPECT_GT(faults.forward().stats().lost + faults.backward().stats().lost, 0u);
}

TEST(FaultTransport, TcpRtoBacksOffExponentiallyAndResets) {
  Transfer t;
  t.client->connect(2, 80);
  // A short clean exchange first: RTO needs an RTT sample to leave its 1 s
  // initial value (the handshake alone is not sampled).
  t.client->send(Bytes(2000));
  t.hp.run(TimePoint(Duration::millis(500).ns()));
  ASSERT_TRUE(t.client_connected);
  ASSERT_EQ(t.server_received.count(), 2000);
  const Duration rto_before = t.client->rto();
  EXPECT_LT(rto_before.ns(), Duration::seconds(1).ns());

  // Blackout: everything the client sends vanishes, so each RTO fire
  // doubles the timeout.
  Profile blackout;
  blackout.iid_loss = 1.0;
  auto inj = std::make_unique<FaultInjector>(t.hp.sim(), t.hp.path().forward(), blackout, Rng(12));
  t.client->send(Bytes(5000));
  t.hp.run(TimePoint(Duration::seconds(8).ns()));
  EXPECT_GE(t.client->rto().ns(), 4 * rto_before.ns());  // doubled at least twice
  EXPECT_GE(t.client->stats().retransmissions, 2u);

  // Heal the path and let the retransmission drain through.
  inj.reset();
  t.hp.run(TimePoint(Duration::seconds(25).ns()));
  EXPECT_EQ(t.server_received.count(), 7000);
  // Karn's rule keeps retransmitted segments out of the estimator, so the
  // reset needs one fresh (never-retransmitted) exchange.
  t.client->send(Bytes(2000));
  t.hp.run(TimePoint(Duration::seconds(40).ns()));
  EXPECT_EQ(t.server_received.count(), 9000);
  EXPECT_LT(t.client->rto().ns(), Duration::seconds(1).ns());
}

TEST(FaultTransport, TcpRtoRespectsMaxCap) {
  tcp::TcpConnection::Config cc;
  cc.rtt.max_rto = Duration::seconds(2);
  Transfer t(HostPair::Config{}, cc);
  t.client->connect(2, 80);
  t.hp.run(TimePoint(Duration::millis(200).ns()));
  ASSERT_TRUE(t.client_connected);

  Profile blackout;
  blackout.iid_loss = 1.0;
  auto inj = std::make_unique<FaultInjector>(t.hp.sim(), t.hp.path().forward(), blackout, Rng(13));
  t.client->send(Bytes(5000));
  t.hp.run(TimePoint(Duration::seconds(7).ns()));
  EXPECT_EQ(t.client->rto().ns(), Duration::seconds(2).ns());  // pinned at the cap

  inj.reset();
  t.hp.run(TimePoint(Duration::seconds(30).ns()));
  EXPECT_EQ(t.server_received.count(), 5000);
}

struct QuicPair {
  HostPair hp;
  std::unique_ptr<quic::QuicListener> listener;
  std::unique_ptr<quic::QuicConnection> client;
  Bytes server_received;

  QuicPair() {
    listener = std::make_unique<quic::QuicListener>(hp.server(), 443,
                                                    quic::QuicConnection::Config{});
    listener->set_accept_callback([this](quic::QuicConnection& c) {
      c.on_stream_data = [this](std::uint64_t, Bytes n, bool) { server_received += n; };
    });
    client = std::make_unique<quic::QuicConnection>(hp.client(), quic::QuicConnection::Config{});
  }
};

TEST(FaultTransport, QuicPtoBacksOffUnderProbeLossAndResets) {
  QuicPair q;
  q.client->connect(2, 443);
  q.hp.run(TimePoint(Duration::millis(200).ns()));
  ASSERT_TRUE(q.client->established());
  EXPECT_EQ(q.client->pto_backoff(), 0);

  Profile blackout;
  blackout.iid_loss = 1.0;
  auto inj =
      std::make_unique<FaultInjector>(q.hp.sim(), q.hp.path().forward(), blackout, Rng(14));
  q.client->send_stream(0, Bytes(20'000));
  q.hp.run(TimePoint(Duration::seconds(6).ns()));
  EXPECT_GE(q.client->pto_backoff(), 2);  // repeated probes lost -> exponential backoff

  inj.reset();
  q.hp.run(TimePoint(Duration::seconds(40).ns()));
  EXPECT_EQ(q.server_received.count(), 20'000);
  EXPECT_EQ(q.client->pto_backoff(), 0);  // newly-acked data resets the backoff
}

// ------------------------------------------------------ invariant checker

TEST(InvariantChecker, CleanTcpPageLoadPassesAllChecks) {
  StackInvariantChecker checker;
  obs::ScopedListener guard(checker);
  workload::PageLoadOptions po;
  po.tls_records = true;  // arms the TLS->TCP conservation invariant
  Rng rng(21);
  const workload::PageLoadResult r =
      workload::run_page_load(workload::nine_sites()[0], rng, po);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(checker.checks(), 9878u);
  EXPECT_EQ(checker.violations(), 0u) << checker.first_report();
}

TEST(InvariantChecker, CleanQuicTransferPassesAllChecks) {
  StackInvariantChecker checker;
  obs::ScopedListener guard(checker);
  QuicPair q;
  q.client->connect(2, 443);
  q.client->send_stream(0, Bytes(300'000));
  q.hp.run(TimePoint(Duration::seconds(30).ns()));
  EXPECT_EQ(q.server_received.count(), 300'000);
  EXPECT_GT(checker.checks(), 100u);
  EXPECT_EQ(checker.violations(), 0u) << checker.first_report();
}

TEST(InvariantChecker, AdversePathStaysViolationFree) {
  StackInvariantChecker checker;
  obs::ScopedListener guard(checker);
  workload::PageLoadOptions po;
  po.path_faults = PathProfile::symmetric(adverse_mix());
  Rng rng(22);
  (void)workload::run_page_load(workload::nine_sites()[1], rng, po);
  EXPECT_EQ(checker.checks(), 9775u);
  EXPECT_EQ(checker.violations(), 0u) << checker.first_report();
}

TEST(InvariantChecker, InjectedViolationReportsWithFlightRecorderDump) {
  obs::TraceRecorder recorder(64);
  obs::ScopedRecorder rec_guard(recorder);
  StackInvariantChecker checker;
  obs::ScopedListener guard(checker);
  // Produce some traffic so the flight recorder has a tail to dump.
  Transfer t;
  t.client->connect(2, 80);
  t.client->send(Bytes(10'000));
  t.hp.run(TimePoint(Duration::seconds(5).ns()));
  ASSERT_GT(recorder.events().size(), 0u);

  checker.inject_violation_for_test();
  EXPECT_EQ(checker.violations(), 1u);
  EXPECT_NE(checker.first_report().find("injected-for-test"), std::string::npos);
  EXPECT_NE(checker.first_report().find("flight recorder"), std::string::npos);
}

TEST(InvariantChecker, ThrowModeThrows) {
  StackInvariantChecker::Config cfg;
  cfg.throw_on_violation = true;
  StackInvariantChecker checker(cfg);
  EXPECT_THROW(checker.inject_violation_for_test(), StackInvariantError);
}

// Synthetic events that break exactly one invariant each. The flow, the
// off-grid timestamp (rounded in the text) and the packet id all appear
// in the report prefix.
const net::FlowKey kFlow{1, 2, 1000, 443, net::Proto::Tcp};
const TimePoint kAt(1'234'567);

obs::PacketEvent packet(obs::Layer layer, obs::Direction dir, obs::EventKind kind,
                        std::int64_t bytes, std::uint64_t seq = 0) {
  obs::PacketEvent ev;
  ev.time = kAt;
  ev.flow = kFlow;
  ev.layer = layer;
  ev.dir = dir;
  ev.kind = kind;
  ev.bytes = bytes;
  ev.seq = seq;
  ev.packet_id = 42;
  return ev;
}

obs::DepartureEvent departure() {
  obs::DepartureEvent ev;
  ev.flow = kFlow;
  ev.now = kAt;
  ev.departure = ev.cca_departure = TimePoint(2'000'000);
  ev.bytes = ev.cca_segment = 1448;
  ev.cwnd = 14480;
  return ev;
}

struct ViolationCase {
  const char* invariant;
  void (*drive)(StackInvariantChecker&);
  std::uint64_t checks;  ///< checks() after driving
  const char* report;    ///< first_report(), byte for byte
};

std::vector<ViolationCase> violation_cases() {
  using obs::Direction;
  using obs::EventKind;
  using obs::Layer;
  return {
      {"cca-departure-never-earlier",
       [](StackInvariantChecker& c) {
         obs::DepartureEvent ev = departure();
         ev.departure = TimePoint(1'500'000);
         c.on_departure(ev);
       },
       2,
       "stack invariant violated: cca-departure-never-earlier — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s departure t=0.001500s < cca_departure t=0.002000s"},
      {"cca-segment-never-larger",
       [](StackInvariantChecker& c) {
         obs::DepartureEvent ev = departure();
         ev.bytes = 2896;
         c.on_departure(ev);
       },
       2,
       "stack invariant violated: cca-segment-never-larger — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s bytes 2896 > cca_segment 1448"},
      {"cwnd-respected",
       [](StackInvariantChecker& c) {
         obs::DepartureEvent ev = departure();
         ev.window_limited = true;
         ev.inflight = 14000;
         ev.cwnd_slack = 10;
         c.on_departure(ev);
       },
       3,
       "stack invariant violated: cwnd-respected — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s "
       "inflight 14000 + bytes 1448 > cwnd 14480 + slack 10"},
      {"tcp-seq-monotonic",
       [](StackInvariantChecker& c) {
         c.on_packet(packet(Layer::Tcp, Direction::Tx, EventKind::Send, 100, 5000));
         c.on_packet(packet(Layer::Tcp, Direction::Tx, EventKind::Send, 100, 4000));
       },
       2,
       "stack invariant violated: tcp-seq-monotonic — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s pkt#42 seq 4000 < previous 5000"},
      {"tls-tcp-conservation",
       [](StackInvariantChecker& c) {
         c.on_packet(packet(Layer::Tls, Direction::Tx, EventKind::Send, 1000));
         c.on_packet(packet(Layer::Tcp, Direction::Tx, EventKind::Send, 1448, 0));
       },
       2,
       "stack invariant violated: tls-tcp-conservation — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s pkt#42 "
       "tcp stream high 1448 > sealed tls bytes 1000"},
      {"no-retx-of-acked",
       [](StackInvariantChecker& c) {
         c.on_ack_advance(kFlow, 5000);
         c.on_packet(packet(Layer::Tcp, Direction::Tx, EventKind::Retransmit, 1000, 1000));
       },
       1,
       "stack invariant violated: no-retx-of-acked — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s pkt#42 retx [1000, 2000) entirely below una 5000"},
      {"quic-pn-strictly-increasing",
       [](StackInvariantChecker& c) {
         c.on_packet(packet(Layer::Quic, Direction::Tx, EventKind::Send, 1200, 7));
         c.on_packet(packet(Layer::Quic, Direction::Tx, EventKind::Retransmit, 1200, 7));
       },
       2,
       "stack invariant violated: quic-pn-strictly-increasing — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s pkt#42 pn 7 <= previous 7"},
      {"qdisc-conservation",
       [](StackInvariantChecker& c) {
         c.on_packet(packet(Layer::Qdisc, Direction::Tx, EventKind::Enqueue, 1000));
         c.on_packet(packet(Layer::Qdisc, Direction::Tx, EventKind::Dequeue, 1500));
       },
       1,
       "stack invariant violated: qdisc-conservation — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s pkt#42 qdisc released 1500 > admitted 1000"},
      {"qdisc-nic-conservation",
       [](StackInvariantChecker& c) {
         c.on_packet(packet(Layer::Qdisc, Direction::Tx, EventKind::Enqueue, 1000));
         c.on_packet(packet(Layer::Nic, Direction::Tx, EventKind::Send, 1000));
       },
       1,
       "stack invariant violated: qdisc-nic-conservation — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s pkt#42 nic pushed 1000 > qdisc released 0"},
      {"nic-wire-conservation",
       [](StackInvariantChecker& c) {
         c.on_packet(packet(Layer::Nic, Direction::Tx, EventKind::Send, 1000));
         c.on_packet(packet(Layer::Wire, Direction::Tx, EventKind::Send, 3000));
       },
       1,
       "stack invariant violated: nic-wire-conservation — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s pkt#42 wire tx 3000 > nic pushed 1000"},
      {"wire-conservation",
       [](StackInvariantChecker& c) {
         net::Packet dup;
         dup.flow = kFlow;
         dup.payload = Bytes(300);
         c.on_fault(obs::FaultKind::Duplicate, dup, kAt);
         c.on_packet(packet(Layer::Wire, Direction::Tx, EventKind::Send, 1000));
         c.on_packet(packet(Layer::Wire, Direction::Rx, EventKind::Receive, 1400));
       },
       1,
       "stack invariant violated: wire-conservation — "
       "flow [tcp 1:1000->2:443] t=t=0.001235s pkt#42 "
       "wire rx 1400 > wire tx 1000 + dup budget 300"},
      {"qdisc-backlog-bound",
       [](StackInvariantChecker& c) {
         c.on_queue_depth(obs::QueueKind::QdiscBacklog, 70000, 65536);
       },
       1,
       "stack invariant violated: qdisc-backlog-bound — "
       "depth 70000 outside [0, 65536]"},
      {"nic-ring-bound",
       [](StackInvariantChecker& c) { c.on_queue_depth(obs::QueueKind::NicRing, -1, 4096); },
       1,
       "stack invariant violated: nic-ring-bound — "
       "depth -1 outside [0, 4096]"},
  };
}

TEST(InvariantChecker, EveryViolationReportIsPinnedByteForByte) {
  const std::vector<ViolationCase> cases = violation_cases();
  ASSERT_EQ(cases.size(), 13u);  // one per invariant the checker enforces
  StackInvariantChecker::Config throwing;
  throwing.throw_on_violation = true;
  for (const ViolationCase& vc : cases) {
    SCOPED_TRACE(vc.invariant);
    StackInvariantChecker checker;
    vc.drive(checker);
    EXPECT_EQ(checker.violations(), 1u);
    EXPECT_EQ(checker.checks(), vc.checks);
    EXPECT_EQ(checker.first_report(), vc.report);

    // Throw mode throws the same text.
    StackInvariantChecker thrower(throwing);
    try {
      vc.drive(thrower);
      ADD_FAILURE() << "no StackInvariantError thrown";
    } catch (const StackInvariantError& e) {
      EXPECT_EQ(std::string(e.what()), vc.report);
    }
  }
}

TEST(InvariantChecker, LedgersAreKeptPerFlow) {
  // Interleaved flows share no state: each keeps its own sequence and
  // conservation ledgers, however the events alternate between them.
  StackInvariantChecker checker;
  std::vector<obs::PacketEvent> sends;
  for (std::uint16_t port = 1000; port < 1012; ++port) {
    obs::PacketEvent ev = packet(obs::Layer::Tcp, obs::Direction::Tx, obs::EventKind::Send, 100);
    ev.flow.src_port = port;
    ev.seq = 1'000'000u * (port - 999u);  // each flow at its own stream offset
    sends.push_back(ev);
  }
  for (int round = 0; round < 3; ++round) {
    for (obs::PacketEvent& ev : sends) {
      checker.on_packet(ev);
      checker.on_packet(ev);  // a repeat of the same offset is allowed
      ev.seq += 100;
    }
  }
  EXPECT_EQ(checker.checks(), 72u);
  EXPECT_EQ(checker.violations(), 0u) << checker.first_report();

  // Regress only the first flow, after the other flows moved on.
  obs::PacketEvent back = sends.front();
  back.seq -= 400;
  checker.on_packet(back);
  EXPECT_EQ(checker.violations(), 1u);
  EXPECT_NE(checker.first_report().find("tcp 1:1000->2:443"), std::string::npos);
}

/// A deliberately unguarded policy: ships every segment immediately,
/// ignoring the CCA pacing schedule — exactly what core::CcaGuard exists to
/// prevent. The checker must catch it through the real stack.
class AggressivePolicy final : public core::Policy {
 public:
  core::SegmentDecision on_segment(const core::SegmentContext& ctx) override {
    return core::SegmentDecision{ctx.cca_segment, ctx.mss, ctx.now};
  }
  std::string name() const override { return "aggressive"; }
};

TEST(InvariantChecker, AggressivePolicyCannotOutrunPacerThroughRealStack) {
  // The transport holds segments internally until their pacing slot
  // (send_more's pacing_next_ gate), so even a policy that ships everything
  // "now" cannot produce a departure ahead of the CCA schedule — the
  // checker confirms the admission gate enforces the invariant end-to-end.
  StackInvariantChecker checker;
  obs::ScopedListener guard(checker);
  AggressivePolicy policy;
  tcp::TcpConnection::Config cc;
  cc.policy = &policy;
  cc.tso_enabled = false;  // more, smaller emissions = more chances to slip
  HostPair::Config cfg;
  cfg.path = net::DuplexPath::symmetric(DataRate::mbps(20), Duration::millis(10));
  Transfer t(cfg, cc);
  t.client->connect(2, 80);
  t.client->send(Bytes(500'000));
  t.hp.run(TimePoint(Duration::seconds(30).ns()));
  EXPECT_EQ(t.server_received.count(), 500'000);
  EXPECT_GT(checker.checks(), 1000u);
  EXPECT_EQ(checker.violations(), 0u) << checker.first_report();
}

/// A broken link component that replays every packet without declaring the
/// copy to the observability tap — the receiver then sees more wire bytes
/// than were ever transmitted plus the (empty) duplication budget.
class RogueDuplicator final : public net::FaultModel {
 public:
  void on_transmitted(net::Pipe& pipe, net::Packet&& p) override {
    net::Packet copy = p;
    pipe.deliver(std::move(p));
    pipe.deliver(std::move(copy), Duration::micros(1));
  }
};

TEST(InvariantChecker, CatchesRogueWireDuplication) {
  StackInvariantChecker checker;
  obs::ScopedListener guard(checker);
  sim::Simulator s;
  net::Pipe pipe(s, {DataRate::gbps(1), Duration::millis(1), Bytes(0), 0.0});
  RogueDuplicator rogue;
  pipe.set_fault_model(&rogue);
  pipe.set_sink([](net::Packet) {});
  pipe.send(make_packet(1000));
  s.run();
  pipe.set_fault_model(nullptr);
  EXPECT_GT(checker.violations(), 0u);
  EXPECT_NE(checker.first_report().find("wire-conservation"), std::string::npos);
}

// --------------------------------------------------------- exp fault axis

TEST(ExpFaultAxis, GridDecomposition) {
  exp::ExperimentGrid grid;
  grid.sites = {workload::nine_sites()[0], workload::nine_sites()[1]};
  grid.samples = 2;
  grid.ccas = {"reno", "cubic"};
  grid.faults = {PathProfile::symmetric(clean()), PathProfile::symmetric(bursty_loss())};
  EXPECT_EQ(grid.job_count(), 2u * 2u * 2u * 2u);
  const exp::JobSpec first = grid.job(0);
  EXPECT_EQ(first.cca, 0u);
  EXPECT_EQ(first.sample, 0u);
  EXPECT_EQ(first.site, 0u);
  EXPECT_EQ(first.fault, 0u);
  // cca is the fastest axis, fault the slowest.
  EXPECT_EQ(grid.job(1).cca, 1u);
  EXPECT_EQ(grid.job(1).fault, 0u);
  const exp::JobSpec last = grid.job(grid.job_count() - 1);
  EXPECT_EQ(last.cca, 1u);
  EXPECT_EQ(last.sample, 1u);
  EXPECT_EQ(last.site, 1u);
  EXPECT_EQ(last.fault, 1u);
  // First job of the second fault block: everything else rewinds to zero.
  const exp::JobSpec block = grid.job(grid.job_count() / 2);
  EXPECT_EQ(block.fault, 1u);
  EXPECT_EQ(block.cca, 0u);
  EXPECT_EQ(block.sample, 0u);
  EXPECT_EQ(block.site, 0u);
}

TEST(ExpFaultAxis, GridRunsCheckerAndStaysDeterministic) {
  exp::ExperimentGrid grid;
  grid.sites = {workload::nine_sites()[0]};
  grid.samples = 1;
  grid.faults = {PathProfile::symmetric(bursty_loss())};
  grid.base_seed = 77;
  exp::RunOptions run;
  run.jobs = 2;
  run.check_invariants = true;
  run.check_determinism = true;  // re-runs serially and compares bytes
  const std::vector<exp::JobResult> results = exp::run_grid(grid, run);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].invariant_checks, 0u);
  EXPECT_EQ(results[0].invariant_violations, 0u) << results[0].first_violation;
}

}  // namespace
}  // namespace stob::fault
