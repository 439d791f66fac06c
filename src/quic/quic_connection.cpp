#include "quic/quic_connection.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace stob::quic {

namespace {
constexpr std::int64_t kInitialSize = 1200;  // RFC 9000 minimum Initial datagram
constexpr std::int64_t kFrameOverhead = 8;   // stream frame header estimate
}  // namespace

QuicConnection::QuicConnection(stack::Host& host, Config cfg)
    : host_(host),
      sim_(host.simulator()),
      cfg_(cfg),
      cca_(tcp::make_congestion_control(cfg.cca, Bytes(cfg.max_payload))),
      rtt_(cfg.rtt) {}

QuicConnection::~QuicConnection() {
  if (key_.src_port != 0 || key_.dst_port != 0) {
    host_.unregister_flow(key_.reversed());
  }
  if (pto_armed_) sim_.cancel(pto_timer_);
  if (ack_armed_) sim_.cancel(ack_timer_);
}

void QuicConnection::open_common(net::HostId dst, net::Port dst_port, net::Port src_port) {
  key_ = net::FlowKey{host_.id(), dst, src_port, dst_port, net::Proto::Udp};
  host_.register_flow(key_.reversed(), *this);
  if (cfg_.policy != nullptr) cfg_.policy->on_flow_start(key_);
}

void QuicConnection::connect(net::HostId dst, net::Port dst_port) {
  open_common(dst, dst_port, host_.allocate_port());
  is_client_ = true;
  (void)emit_packet(/*force_padding_to_initial=*/true);
  arm_pto();
}

void QuicConnection::accept(const net::Packet& initial) {
  begin_accept(initial.flow);
  complete_accept(initial);
}

void QuicConnection::begin_accept(const net::FlowKey& client_flow) {
  open_common(client_flow.src_host, client_flow.src_port, client_flow.dst_port);
  established_ = true;
}

void QuicConnection::complete_accept(const net::Packet& initial) {
  net::Packet copy = initial;
  on_packet(std::move(copy));
  if (on_connected) on_connected();
}

void QuicConnection::send_stream(std::uint64_t stream_id, Bytes n) {
  if (n.count() <= 0) return;
  SendStream& st = send_streams_[stream_id];
  st.pending.emplace_back(st.next_offset, n.count());
  st.next_offset += static_cast<std::uint64_t>(n.count());
  st.queued += n.count();
  if (established_) send_pending();
}

void QuicConnection::finish_stream(std::uint64_t stream_id) {
  SendStream& st = send_streams_[stream_id];
  st.fin_queued = true;
  st.fin_offset = st.next_offset;
  if (established_) send_pending();
}

// ------------------------------------------------------------------ receive

void QuicConnection::on_packet(net::Packet&& p) {
  if (!p.is_quic()) return;
  const net::QuicHeader& h = p.quic();

  if (!established_ && is_client_) {
    established_ = true;
    pto_backoff_ = 0;
    if (on_connected) on_connected();
  }

  // Track received packet numbers for ACK generation. recv_contiguous_ is
  // the highest PN such that everything at or below it has been seen; pipes
  // deliver in order, so a gap only appears after a loss.
  if (!any_received_ || h.packet_number > largest_received_) {
    largest_received_ = h.packet_number;
  }
  if (!any_received_) {
    any_received_ = true;
    recv_contiguous_ = h.packet_number;
  } else if (h.packet_number == recv_contiguous_ + 1) {
    recv_contiguous_ = h.packet_number;
  }

  obs::record_packet(obs::Layer::Quic, obs::Direction::Rx, obs::EventKind::Receive, p, sim_.now());

  bool eliciting = false;
  for (const net::QuicFrame& frame : h.frames) {
    if (const auto* ack = std::get_if<net::QuicAckFrame>(&frame)) {
      process_ack(*ack);
    } else if (const auto* sf = std::get_if<net::QuicStreamFrame>(&frame)) {
      eliciting = true;
      process_stream_frame(*sf);
    } else {
      eliciting = true;  // padding/ping
    }
  }
  if (eliciting) {
    ++unacked_eliciting_;
    maybe_ack();
  }
  send_pending();
}

void QuicConnection::process_stream_frame(const net::QuicStreamFrame& frame) {
  RecvStream& st = recv_streams_[frame.stream_id];
  if (frame.fin) {
    st.fin_known = true;
    st.fin_offset = frame.offset + static_cast<std::uint64_t>(frame.length);
  }
  if (frame.length > 0) {
    const std::uint64_t start = frame.offset;
    const std::uint64_t end = start + static_cast<std::uint64_t>(frame.length);
    auto [it, inserted] = st.ooo.emplace(start, end);
    if (!inserted && it->second < end) it->second = end;
  }
  // Advance the in-order point.
  std::uint64_t before = st.delivered;
  auto it = st.ooo.begin();
  while (it != st.ooo.end() && it->first <= st.delivered) {
    st.delivered = std::max(st.delivered, it->second);
    it = st.ooo.erase(it);
  }
  const std::int64_t newly = static_cast<std::int64_t>(st.delivered - before);
  const bool fin_now = st.fin_known && !st.fin_delivered && st.delivered >= st.fin_offset;
  if (fin_now) st.fin_delivered = true;
  if (newly > 0 || fin_now) {
    stats_.stream_bytes_delivered += Bytes(newly);
    if (on_stream_data) on_stream_data(frame.stream_id, Bytes(newly), fin_now);
  }
}

void QuicConnection::maybe_ack() {
  if (unacked_eliciting_ >= cfg_.ack_every) {
    send_ack_now();
    return;
  }
  if (!ack_armed_) {
    ack_armed_ = true;
    ack_timer_ = sim_.schedule_after(cfg_.ack_delay, [this] {
      ack_armed_ = false;
      if (unacked_eliciting_ > 0) send_ack_now();
    });
  }
}

void QuicConnection::send_ack_now() {
  if (ack_armed_) {
    sim_.cancel(ack_timer_);
    ack_armed_ = false;
  }
  unacked_eliciting_ = 0;

  net::Packet pkt;
  pkt.id = net::next_packet_id();
  pkt.flow = key_;
  pkt.header = Bytes(net::kEthIpUdpHeader + net::kQuicShortHeader);
  pkt.payload = Bytes(16);  // ACK frame wire size estimate
  net::QuicHeader h;
  h.packet_number = next_pn_++;
  h.ack_eliciting = false;
  // Single-range ACK: when the contiguous run reaches the largest received
  // PN, everything from 0 is covered; otherwise (a gap right below the
  // newest packet) only the newest is acknowledged — the gap shows up as a
  // shrunken range and triggers PN-threshold loss detection at the sender.
  net::QuicAckFrame ack;
  ack.largest_acked = largest_received_;
  ack.first_range = recv_contiguous_ == largest_received_ ? largest_received_ : 0;
  h.frames.emplace_back(ack);
  pkt.l4 = std::move(h);
  ++stats_.acks_sent;
  host_.nic().transmit(std::move(pkt));
}

// --------------------------------------------------------------------- ACK

void QuicConnection::process_ack(const net::QuicAckFrame& ack) {
  const TimePoint now = sim_.now();
  const std::uint64_t lo =
      ack.largest_acked >= ack.first_range ? ack.largest_acked - ack.first_range : 0;

  std::int64_t newly_acked = 0;
  Duration rtt_sample;
  DataRate delivery_rate;
  for (auto it = sent_.begin(); it != sent_.end();) {
    if (it->first >= lo && it->first <= ack.largest_acked) {
      const SentPacket& sp = it->second;
      if (sp.ack_eliciting) inflight_ -= sp.size.count();
      newly_acked += sp.size.count();
      delivered_total_ += sp.size.count();
      if (it->first == ack.largest_acked) {
        rtt_sample = now - sp.sent;
        const std::int64_t delivered = delivered_total_ - sp.delivered_at_send;
        const Duration interval = now - sp.sent;
        if (interval.ns() > 0 && delivered > 0) {
          delivery_rate = DataRate::from(Bytes(delivered), interval);
        }
      }
      it = sent_.erase(it);
    } else {
      ++it;
    }
  }
  if (newly_acked <= 0) return;
  pto_backoff_ = 0;

  if (rtt_sample.ns() > 0) rtt_.add_sample(rtt_sample);

  tcp::AckEvent ev;
  ev.now = now;
  ev.newly_acked = Bytes(newly_acked);
  ev.rtt_sample = rtt_sample;
  ev.srtt = rtt_.srtt();
  ev.delivery_rate = delivery_rate;
  ev.inflight = Bytes(inflight_);
  cca_->on_ack(ev);

  detect_losses(ack.largest_acked, now);

  if (sent_.empty()) {
    if (pto_armed_) {
      sim_.cancel(pto_timer_);
      pto_armed_ = false;
    }
  } else {
    arm_pto();
  }
  send_pending();
}

void QuicConnection::detect_losses(std::uint64_t largest_acked, TimePoint now) {
  bool any_lost = false;
  for (auto it = sent_.begin(); it != sent_.end();) {
    const bool pn_lost = it->first + static_cast<std::uint64_t>(cfg_.packet_threshold) <=
                         largest_acked;
    if (pn_lost) {
      ++stats_.packets_lost;
      obs::count("quic.packets_lost");
      if (it->second.ack_eliciting) inflight_ -= it->second.size.count();
      requeue_lost(it->second);
      it = sent_.erase(it);
      any_lost = true;
    } else {
      ++it;
    }
  }
  if (any_lost) cca_->on_loss(now);
}

void QuicConnection::requeue_lost(const SentPacket& packet) {
  for (const net::QuicStreamFrame& f : packet.stream_frames) {
    SendStream& st = send_streams_[f.stream_id];
    if (f.length > 0) {
      st.pending.emplace_front(f.offset, f.length);
      st.queued += f.length;
    }
    if (f.fin) {
      st.fin_queued = true;
      st.fin_offset = f.offset + static_cast<std::uint64_t>(f.length);
      st.fin_sent_pure = false;  // a lost pure FIN must be retransmittable
    }
  }
}

// -------------------------------------------------------------------- send

void QuicConnection::send_pending() {
  if (!established_) return;
  while (inflight_ < cca_->cwnd().count()) {
    bool have_data = false;
    for (const auto& [id, st] : send_streams_) {
      if (!st.pending.empty() || (st.fin_queued && st.queued == 0)) {
        have_data = true;
        break;
      }
    }
    if (!have_data) break;
    if (emit_packet(false) <= 0) break;
  }
}

std::int64_t QuicConnection::emit_packet(bool force_padding_to_initial) {
  const TimePoint now = sim_.now();
  const DataRate cca_rate = cfg_.pacing_enabled ? cca_->pacing_rate() : DataRate(0);
  TimePoint cca_departure = now;
  if (!cca_rate.is_zero()) cca_departure = std::max(now, pacing_next_);

  // Stob hook: QUIC's packetisation decision point.
  core::SegmentContext ctx;
  ctx.flow = key_;
  ctx.now = now;
  ctx.cca_segment = Bytes(cfg_.max_payload);
  ctx.mss = Bytes(cfg_.max_payload);
  ctx.cca_departure = cca_departure;
  ctx.cca_pacing_rate = cca_rate;
  core::SegmentDecision d = cfg_.policy != nullptr
                                ? cfg_.policy->on_segment(ctx)
                                : core::SegmentDecision::passthrough(ctx);
  const std::int64_t budget =
      std::clamp<std::int64_t>(d.wire_mss.count(), 64, cfg_.max_payload);
  const TimePoint departure = std::max(d.departure, now);

  net::QuicHeader h;
  h.packet_number = next_pn_++;
  SentPacket sp;
  sp.pn = h.packet_number;
  sp.sent = now;
  sp.delivered_at_send = delivered_total_;

  std::int64_t payload = 0;

  // Piggyback an ACK when one is pending.
  if (unacked_eliciting_ > 0) {
    net::QuicAckFrame ack;
    if (recv_contiguous_ == largest_received_) {
      ack.largest_acked = largest_received_;
      ack.first_range = largest_received_;
    } else {
      ack.largest_acked = largest_received_;
      ack.first_range = 0;
    }
    h.frames.emplace_back(ack);
    payload += 16;
    unacked_eliciting_ = 0;
    if (ack_armed_) {
      sim_.cancel(ack_timer_);
      ack_armed_ = false;
    }
  }

  // Stream frames, round-robin over streams with pending data. No stream
  // data rides in the Initial: 1-RTT data starts only once the handshake
  // completes (and, server-side, the application has attached callbacks).
  std::int64_t stream_payload = 0;
  for (auto& [id, st] : send_streams_) {
    if (!established_) break;
    while (!st.pending.empty() && payload + kFrameOverhead < budget) {
      auto& [off, len] = st.pending.front();
      const std::int64_t take = std::min<std::int64_t>(len, budget - payload - kFrameOverhead);
      if (take <= 0) break;
      net::QuicStreamFrame sf;
      sf.stream_id = id;
      sf.offset = off;
      sf.length = take;
      sf.fin = st.fin_queued && off + static_cast<std::uint64_t>(take) == st.fin_offset;
      h.frames.emplace_back(sf);
      sp.stream_frames.push_back(sf);
      payload += take + kFrameOverhead;
      stream_payload += take;
      st.queued -= take;
      off += static_cast<std::uint64_t>(take);
      len -= take;
      if (len == 0) st.pending.pop_front();
    }
    // Pure FIN (no data left).
    if (st.pending.empty() && st.fin_queued && st.queued == 0 && payload + kFrameOverhead <= budget) {
      bool fin_already = false;
      for (const auto& f : sp.stream_frames) {
        if (f.stream_id == id && f.fin) fin_already = true;
      }
      if (!fin_already && !st.fin_sent_pure) {
        net::QuicStreamFrame sf;
        sf.stream_id = id;
        sf.offset = st.fin_offset;
        sf.length = 0;
        sf.fin = true;
        h.frames.emplace_back(sf);
        sp.stream_frames.push_back(sf);
        payload += kFrameOverhead;
        st.fin_sent_pure = true;
      }
    }
  }

  if (force_padding_to_initial) {
    const std::int64_t pad = kInitialSize - payload;
    if (pad > 0) {
      h.frames.emplace_back(net::QuicPaddingFrame{pad});
      payload += pad;
    }
  }

  const bool eliciting = stream_payload > 0 || force_padding_to_initial ||
                         sp.stream_frames.size() > 0;
  if (payload == 0 || (!eliciting && stream_payload == 0 && !force_padding_to_initial)) {
    // Nothing useful to send (roll back the packet number).
    --next_pn_;
    return 0;
  }
  h.ack_eliciting = eliciting;

  net::Packet pkt;
  pkt.id = net::next_packet_id();
  pkt.flow = key_;
  pkt.header = Bytes(net::kEthIpUdpHeader + net::kQuicShortHeader);
  pkt.payload = Bytes(payload);
  pkt.not_before = departure;
  pkt.l4 = std::move(h);

  sp.size = Bytes(payload);
  sp.ack_eliciting = eliciting;
  if (eliciting) inflight_ += payload;
  sent_.emplace(sp.pn, std::move(sp));

  if (!cca_rate.is_zero()) {
    pacing_next_ = departure + cca_rate.transmit_time(Bytes(payload));
  }

  ++stats_.packets_sent;
  stats_.bytes_sent += Bytes(payload);
  if (obs::listener() != nullptr) {
    obs::DepartureEvent dep;
    dep.flow = key_;
    dep.now = now;
    dep.departure = pkt.not_before;
    dep.cca_departure = cca_departure;
    dep.bytes = payload;
    dep.cca_segment = cfg_.max_payload;
    dep.cwnd = cca_->cwnd().count();
    dep.inflight = eliciting ? inflight_ - payload : inflight_;
    // QUIC admits a packet whenever inflight < cwnd (send_pending's loop
    // condition), so an emission may overshoot cwnd by payload - 1 bytes.
    dep.cwnd_slack = payload > 0 ? payload - 1 : 0;
    dep.window_limited = established_ && stream_payload > 0 && !force_padding_to_initial;
    obs::note_departure(dep);
  }
  obs::record_packet(obs::Layer::Quic, obs::Direction::Tx, obs::EventKind::Send, pkt, now);
  obs::count("quic.packets_sent");
  obs::sample("quic.cwnd_bytes", static_cast<double>(cca_->cwnd().count()));
  host_.nic().transmit(std::move(pkt));
  if (eliciting && !pto_armed_) arm_pto();
  return stream_payload;
}

// --------------------------------------------------------------------- PTO

void QuicConnection::arm_pto() {
  Duration pto = rtt_.has_sample()
                     ? rtt_.srtt() + std::max(Duration::millis(1), rtt_.rttvar() * 4) +
                           cfg_.ack_delay
                     : Duration::seconds(1);
  pto = pto * (std::int64_t{1} << std::min(pto_backoff_, 10));
  const TimePoint when = sim_.now() + pto;
  if (pto_armed_ && sim_.reschedule(pto_timer_, when)) return;  // re-armed in place
  pto_armed_ = true;
  pto_timer_ = sim_.schedule_at(when, [this] {
    pto_armed_ = false;
    on_pto_fire();
  });
}

void QuicConnection::on_pto_fire() {
  if (sent_.empty()) return;
  ++stats_.pto_fires;
  obs::count("quic.pto_fires");
  ++pto_backoff_;
  // Probe: retransmit the oldest unacked packet's frames.
  const SentPacket oldest = sent_.begin()->second;
  if (oldest.ack_eliciting) inflight_ -= oldest.size.count();
  sent_.erase(sent_.begin());
  if (!established_ && is_client_) {
    (void)emit_packet(/*force_padding_to_initial=*/true);
  } else {
    requeue_lost(oldest);
    send_pending();
  }
  arm_pto();
}

// ---------------------------------------------------------------- listener

QuicListener::QuicListener(stack::Host& host, net::Port port, QuicConnection::Config conn_cfg)
    : host_(host), port_(port), conn_cfg_(conn_cfg) {
  host_.bind_listener(port_, net::Proto::Udp,
                      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

QuicListener::~QuicListener() { host_.unbind_listener(port_, net::Proto::Udp); }

void QuicListener::on_packet(net::Packet&& p) {
  if (!p.is_quic()) return;
  auto conn = std::make_unique<QuicConnection>(host_, conn_cfg_);
  QuicConnection& ref = *conn;
  conns_.push_back(std::move(conn));
  // Staged accept: the flow key exists when the application's callback
  // runs, and the callbacks it installs see the very first datagram.
  ref.begin_accept(p.flow);
  if (accept_cb_) accept_cb_(ref);
  ref.complete_accept(p);
}

}  // namespace stob::quic
