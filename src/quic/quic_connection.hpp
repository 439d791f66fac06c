// QUIC-lite transport over UDP datagrams.
//
// The paper notes (§2.3) that QUIC does not escape the problem TCP has:
// although it runs in user space over UDP, packet sizes are decided by
// QUIC's own PMTU discovery and transmission is scheduled by its congestion
// controller — the application still cannot dictate the wire sequence, and
// emerging QUIC segmentation offload recreates TSO behaviour. This module
// implements enough of QUIC to demonstrate that: streams, packet-number
// based loss detection, ACK frames, a PTO probe timer, congestion control
// (shared with TCP), pacing via EDT, and the same Stob policy hooks at
// packetisation time.
//
// Simplifications relative to RFC 9000: a 1-RTT-only handshake (the Initial
// is padded to 1200 B as the RFC requires), a single packet-number space,
// ACK frames that carry one contiguous range, and no flow control (streams
// are assumed adequately buffered).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "core/policy.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "stack/host.hpp"
#include "tcp/congestion.hpp"
#include "tcp/rtt.hpp"

namespace stob::quic {

class QuicConnection : private stack::FlowEndpoint {
 public:
  struct Config {
    std::int64_t max_payload = 1350;  ///< QUIC datagram payload (PMTU - overhead)
    std::string cca = "cubic";
    bool pacing_enabled = true;
    int ack_every = 2;                          ///< ack-eliciting packets per ACK
    Duration ack_delay = Duration::millis(25);
    int packet_threshold = 3;                   ///< PN reordering threshold
    core::Policy* policy = nullptr;             ///< Stob hook (not owned)
    tcp::RttEstimator::Config rtt;
  };

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_lost = 0;
    std::uint64_t pto_fires = 0;
    std::uint64_t acks_sent = 0;
    Bytes bytes_sent;
    Bytes stream_bytes_delivered;
  };

  QuicConnection(stack::Host& host, Config cfg);
  ~QuicConnection();
  QuicConnection(const QuicConnection&) = delete;
  QuicConnection& operator=(const QuicConnection&) = delete;

  /// Client-side open. The Initial is padded to 1200 bytes.
  void connect(net::HostId dst, net::Port dst_port);

  /// Server-side accept of a client's first datagram. Equivalent to
  /// begin_accept() + complete_accept(); QuicListener uses the staged form
  /// so the application can attach callbacks in between.
  void accept(const net::Packet& initial);
  void begin_accept(const net::FlowKey& client_flow);
  void complete_accept(const net::Packet& initial);

  /// Append `n` bytes to `stream_id`'s send queue.
  void send_stream(std::uint64_t stream_id, Bytes n);

  /// Close the stream after its queued data (FIN bit on the last frame).
  void finish_stream(std::uint64_t stream_id);

  // Application callbacks.
  std::function<void()> on_connected;
  /// (stream, newly in-order bytes, fin_reached)
  std::function<void(std::uint64_t, Bytes, bool)> on_stream_data;

  bool established() const { return established_; }
  const net::FlowKey& key() const { return key_; }
  const Stats& stats() const { return stats_; }
  Bytes cwnd() const { return cca_->cwnd(); }
  Duration srtt() const { return rtt_.srtt(); }
  Bytes inflight() const { return Bytes(inflight_); }
  /// Consecutive PTO fires without forward progress (exponential backoff
  /// exponent); reset to 0 by the next newly-acked byte.
  int pto_backoff() const { return pto_backoff_; }

 private:
  struct SendStream {
    std::deque<std::pair<std::uint64_t, std::int64_t>> pending;  // (offset, len)
    std::uint64_t next_offset = 0;
    std::int64_t queued = 0;
    bool fin_queued = false;
    std::uint64_t fin_offset = 0;
    bool fin_sent_pure = false;  // a zero-length FIN frame is in flight
  };

  struct RecvStream {
    std::uint64_t delivered = 0;
    std::map<std::uint64_t, std::uint64_t> ooo;  // start -> end
    bool fin_known = false;
    std::uint64_t fin_offset = 0;
    bool fin_delivered = false;
  };

  struct SentPacket {
    std::uint64_t pn = 0;
    TimePoint sent;
    Bytes size;
    bool ack_eliciting = false;
    std::vector<net::QuicStreamFrame> stream_frames;
    std::int64_t delivered_at_send = 0;
  };

  void open_common(net::HostId dst, net::Port dst_port, net::Port src_port);
  void on_packet(net::Packet&& p) override;  // stack::FlowEndpoint: ingress
  void process_ack(const net::QuicAckFrame& ack);
  void process_stream_frame(const net::QuicStreamFrame& frame);
  void detect_losses(std::uint64_t largest_acked, TimePoint now);
  void requeue_lost(const SentPacket& packet);

  void send_pending();
  /// Builds and transmits one packet; returns bytes of stream payload sent.
  std::int64_t emit_packet(bool force_padding_to_initial);
  void send_ack_now();
  void maybe_ack();
  void arm_pto();
  void on_pto_fire();

  stack::Host& host_;
  sim::Simulator& sim_;
  Config cfg_;
  net::FlowKey key_;
  bool established_ = false;
  bool is_client_ = false;
  Stats stats_;

  std::unique_ptr<tcp::CongestionControl> cca_;
  tcp::RttEstimator rtt_;

  // Sender.
  std::uint64_t next_pn_ = 0;
  std::map<std::uint64_t, SentPacket> sent_;  // unacked packets by PN
  std::int64_t inflight_ = 0;
  std::map<std::uint64_t, SendStream> send_streams_;
  TimePoint pacing_next_ = TimePoint::zero();
  sim::EventId pto_timer_;
  bool pto_armed_ = false;
  int pto_backoff_ = 0;
  std::int64_t delivered_total_ = 0;

  // Receiver.
  std::uint64_t largest_received_ = 0;
  bool any_received_ = false;
  std::uint64_t recv_contiguous_ = 0;  // largest PN below which all received
  std::map<std::uint64_t, RecvStream> recv_streams_;
  int unacked_eliciting_ = 0;
  sim::EventId ack_timer_;
  bool ack_armed_ = false;
};

/// Accepts incoming QUIC connections on a UDP port; owns them.
class QuicListener {
 public:
  using AcceptCb = std::function<void(QuicConnection&)>;

  QuicListener(stack::Host& host, net::Port port, QuicConnection::Config conn_cfg);
  ~QuicListener();

  void set_accept_callback(AcceptCb cb) { accept_cb_ = std::move(cb); }
  std::size_t connection_count() const { return conns_.size(); }

 private:
  void on_packet(net::Packet&& p);

  stack::Host& host_;
  net::Port port_;
  QuicConnection::Config conn_cfg_;
  AcceptCb accept_cb_;
  std::vector<std::unique_ptr<QuicConnection>> conns_;
};

}  // namespace stob::quic
