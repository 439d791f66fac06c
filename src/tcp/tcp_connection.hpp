// TCP connection over the simulated host stack.
//
// Implements the mechanisms the paper's argument depends on:
//  * socket-buffer deferral: app writes are buffered and transmitted when
//    window/pacing/CPU allow, asynchronously from send(),
//  * congestion window, receive window, RTO with exponential backoff,
//    NewReno fast retransmit/recovery, delayed ACKs, optional Nagle,
//  * Linux-style pacing via earliest-departure-time (EDT) timestamps
//    enforced by the fq qdisc,
//  * TSO autosizing (~1 ms of data at the pacing rate) with the NIC
//    splitting super-segments into MSS-sized wire packets at line rate,
//  * TCP Small Queues: bounded unsent bytes below the transport,
//  * Stob policy hooks at exactly the three control points the paper
//    identifies: TSO segment size, wire packet size, departure time.
//
// Sequence numbers are absolute 64-bit stream offsets starting at 0; the
// SYN consumes no sequence space, the FIN consumes one unit (as in TCP).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "core/policy.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "stack/host.hpp"
#include "tcp/congestion.hpp"
#include "tcp/rtt.hpp"

namespace stob::tcp {

class TcpConnection : private stack::FlowEndpoint {
 public:
  enum class State {
    Closed,
    SynSent,
    SynReceived,
    Established,
    FinWait1,   // our FIN sent, not yet acked
    FinWait2,   // our FIN acked, waiting for peer FIN
    CloseWait,  // peer FIN received, app has not closed yet
    LastAck,    // peer FIN received and our FIN sent
    Done,
  };

  struct Config {
    Bytes send_buffer = Bytes::mebi(4);   ///< cap on unsent application bytes
    Bytes recv_buffer = Bytes::mebi(1);   ///< advertised-window cap
    std::int64_t mss = 1448;              ///< 1500 MTU - IP(20) - TCP w/opts(32)
    bool tso_enabled = true;
    Bytes tso_max = Bytes(65160);         ///< 45 * 1448 (~64 KB GSO limit)
    bool pacing_enabled = true;
    bool nagle = false;
    std::string cca = "cubic";
    /// Initial congestion window in MSS units; 0 = stack default (10).
    /// CDNs commonly tune this (10..32), which shapes the first bursts.
    int initial_cwnd_segments = 0;
    int delack_segments = 2;
    Duration delack_timeout = Duration::millis(25);
    /// Immediate ACKs for the first N data segments of the connection
    /// (Linux quickack): keeps the peer's startup bandwidth samples and
    /// window growth honest before delayed ACKs kick in.
    int quickack_segments = 16;
    RttEstimator::Config rtt;
    /// TSQ budget; 0 selects max(128 KiB, 2 * current TSO size).
    Bytes tsq_limit = Bytes(0);
    /// Stob policy consulted for every data segment; not owned. nullptr
    /// means stock behaviour.
    core::Policy* policy = nullptr;
    /// Deliver and discard received bytes immediately (keeps the advertised
    /// window open). Disable to exercise flow control via consume().
    bool auto_consume = true;
  };

  struct Stats {
    std::uint64_t segments_sent = 0;       // data segments (incl. retx)
    std::uint64_t retransmissions = 0;
    std::uint64_t rto_fires = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t dup_acks_received = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t ooo_segments = 0;
    Bytes bytes_sent;                      // payload, incl. retx
    Bytes bytes_delivered;                 // payload acked (excl. FIN)
    Bytes bytes_received;                  // payload delivered in order
  };

  TcpConnection(stack::Host& host, Config cfg);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Active open towards (dst, dst_port). Allocates a local ephemeral port.
  void connect(net::HostId dst, net::Port dst_port);

  /// Passive open: adopt an incoming SYN (called by TcpListener).
  void accept(const net::Packet& syn);

  /// Append `n` bytes of application data to the send buffer. Returns the
  /// bytes actually buffered (may be less if the buffer cap is hit).
  Bytes send(Bytes n);

  /// Graceful close: a FIN is sent once the send buffer drains.
  void close();

  /// Consume received bytes (only meaningful with auto_consume = false);
  /// reopens the advertised window.
  void consume(Bytes n);

  // Application callbacks.
  std::function<void()> on_connected;
  std::function<void(Bytes)> on_data;     ///< newly in-order payload bytes
  std::function<void()> on_peer_closed;   ///< peer's FIN consumed (half-close)
  std::function<void()> on_closed;        ///< both directions shut down

  // Introspection.
  State state() const { return state_; }
  const net::FlowKey& key() const { return key_; }
  const Stats& stats() const { return stats_; }
  Bytes cwnd() const { return cca_->cwnd(); }
  DataRate pacing_rate() const { return cca_->pacing_rate(); }
  Duration srtt() const { return rtt_.srtt(); }
  /// Current retransmission timeout (with any exponential backoff applied).
  Duration rto() const { return rtt_.rto(); }
  CongestionControl& cca() { return *cca_; }
  Bytes inflight() const { return Bytes(static_cast<std::int64_t>(snd_nxt_ - snd_una_)); }
  Bytes unsent() const { return Bytes(unsent_bytes_); }
  std::int64_t mss() const { return cfg_.mss; }
  Bytes advertised_window() const;

 private:
  struct SentSeg {
    std::uint64_t seq = 0;
    std::int64_t len = 0;  // payload bytes (the FIN's virtual byte has len 1)
    TimePoint sent;
    int retx_count = 0;
    std::int64_t delivered_at_send = 0;  // snd_una_ when (first) sent
    bool app_limited = false;
    bool is_fin = false;
    bool sacked = false;            // covered by a received SACK block
    bool retx_in_episode = false;   // already retransmitted this recovery episode
  };

  void open_common(net::HostId dst, net::Port dst_port, net::Port src_port);
  // stack::FlowEndpoint: ingress from the host, TSQ wakeups from the NIC.
  void on_packet(net::Packet&& p) override;
  void on_tx_complete(Bytes wire_bytes) override;
  void handle_handshake(const net::Packet& p);
  void process_ack(const net::TcpHeader& h, bool has_payload);
  void process_data(const net::Packet& p);
  void deliver_in_order();

  void send_more();
  /// Emits one data segment starting at `seq` of at most `len` bytes.
  /// Returns emitted payload length (policy may shrink it).
  std::int64_t emit_segment(std::uint64_t seq, std::int64_t len, bool is_retx);
  void retransmit_head();
  /// Mark rtx-queue segments covered by the ACK's SACK blocks.
  void apply_sack(const net::TcpHeader& h);
  /// RFC 6675-style loss recovery: retransmit inferred-lost holes while
  /// the pipe estimate has room under cwnd. Returns segments retransmitted.
  std::size_t retransmit_holes();
  void send_control(std::uint8_t flags);
  void send_ack_now();
  void schedule_delayed_ack();
  void maybe_send_fin();
  void check_done();

  void arm_rto();
  void disarm_rto();
  void on_rto_fire();
  void arm_persist();
  void on_persist_fire();

  std::int64_t usable_window() const;
  Bytes tsq_budget() const;

  stack::Host& host_;
  sim::Simulator& sim_;
  Config cfg_;
  net::FlowKey key_;
  State state_ = State::Closed;
  Stats stats_;

  std::unique_ptr<CongestionControl> cca_;
  RttEstimator rtt_;

  // --- sender state ---
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::int64_t unsent_bytes_ = 0;     // app bytes not yet segmented
  std::int64_t snd_wnd_ = 0;          // peer advertised window
  std::deque<SentSeg> rtx_queue_;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  std::int64_t sacked_bytes_ = 0;
  std::uint64_t high_sack_end_ = 0;   // highest SACKed byte seen
  bool all_lost_after_rto_ = false;   // RTO: treat every unsacked seg as lost
  TimePoint pacing_next_ = TimePoint::zero();
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  std::uint64_t fin_seq_ = 0;
  sim::EventId rto_timer_;
  bool rto_armed_ = false;
  sim::EventId persist_timer_;
  bool persist_armed_ = false;
  bool cpu_continuation_pending_ = false;
  bool pacing_wakeup_pending_ = false;
  TimePoint last_departure_;  // effective departure of the last emitted segment
  std::uint64_t last_tso_bytes_ = 0;

  // --- receiver state ---
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  // start -> end (exclusive)
  std::int64_t unconsumed_ = 0;
  bool fin_received_ = false;
  std::uint64_t fin_in_seq_ = 0;  // peer FIN position (valid if fin_received_)
  bool fin_consumed_ = false;
  int delack_count_ = 0;
  int quickack_budget_ = 0;
  sim::EventId delack_timer_;
  bool delack_armed_ = false;

  /// Liveness token: scheduled lambdas that cannot be cancelled from the
  /// destructor (CPU-completion continuations) hold a weak_ptr to this and
  /// become no-ops if the connection is destroyed first.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

/// Listening socket: creates a TcpConnection per incoming SYN and owns it.
class TcpListener {
 public:
  using AcceptCb = std::function<void(TcpConnection&)>;

  TcpListener(stack::Host& host, net::Port port, TcpConnection::Config conn_cfg);
  ~TcpListener();

  /// Invoked right after the connection object is created (before the
  /// handshake completes) so the app can attach callbacks.
  void set_accept_callback(AcceptCb cb) { accept_cb_ = std::move(cb); }

  std::size_t connection_count() const { return conns_.size(); }

 private:
  void on_packet(net::Packet&& p);

  stack::Host& host_;
  net::Port port_;
  TcpConnection::Config conn_cfg_;
  AcceptCb accept_cb_;
  std::vector<std::unique_ptr<TcpConnection>> conns_;
};

}  // namespace stob::tcp
