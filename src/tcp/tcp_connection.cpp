#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace stob::tcp {

namespace {
constexpr int kMaxRetries = 8;  // give up (abort) after this many retx of one segment
}

TcpConnection::TcpConnection(stack::Host& host, Config cfg)
    : host_(host),
      sim_(host.simulator()),
      cfg_(cfg),
      cca_(make_congestion_control(cfg.cca, Bytes(cfg.mss),
                                   Bytes(cfg.initial_cwnd_segments * cfg.mss))),
      rtt_(cfg.rtt) {
  quickack_budget_ = cfg.quickack_segments;
}

TcpConnection::~TcpConnection() {
  if (state_ != State::Closed) {
    host_.unregister_flow(key_.reversed());
    host_.nic().clear_completion_handler(key_);
  }
  disarm_rto();
  if (delack_armed_) sim_.cancel(delack_timer_);
  if (persist_armed_) sim_.cancel(persist_timer_);
}

Bytes TcpConnection::advertised_window() const {
  std::int64_t ooo_bytes = 0;
  for (const auto& [start, end] : ooo_) ooo_bytes += static_cast<std::int64_t>(end - start);
  const std::int64_t wnd = cfg_.recv_buffer.count() - unconsumed_ - ooo_bytes;
  return Bytes(std::max<std::int64_t>(wnd, 0));
}

void TcpConnection::open_common(net::HostId dst, net::Port dst_port, net::Port src_port) {
  key_ = net::FlowKey{host_.id(), dst, src_port, dst_port, net::Proto::Tcp};
  host_.register_flow(key_.reversed(), *this);
  host_.nic().set_completion_handler(key_, *this);
  if (cfg_.policy != nullptr) cfg_.policy->on_flow_start(key_);
}

void TcpConnection::connect(net::HostId dst, net::Port dst_port) {
  assert(state_ == State::Closed);
  open_common(dst, dst_port, host_.allocate_port());
  state_ = State::SynSent;
  send_control(net::kTcpSyn);
  arm_rto();
}

void TcpConnection::accept(const net::Packet& syn) {
  assert(state_ == State::Closed);
  assert(syn.is_tcp() && syn.tcp().has(net::kTcpSyn));
  open_common(syn.flow.src_host, syn.flow.src_port, syn.flow.dst_port);
  snd_wnd_ = syn.tcp().rwnd;
  state_ = State::SynReceived;
  send_control(net::kTcpSyn | net::kTcpAck);
  arm_rto();
}

Bytes TcpConnection::send(Bytes n) {
  const std::int64_t room = cfg_.send_buffer.count() - unsent_bytes_;
  const std::int64_t accepted = std::clamp<std::int64_t>(n.count(), 0, room);
  unsent_bytes_ += accepted;
  if (state_ == State::Established || state_ == State::CloseWait) send_more();
  return Bytes(accepted);
}

void TcpConnection::close() {
  if (fin_pending_ || fin_sent_) return;
  fin_pending_ = true;
  maybe_send_fin();
}

void TcpConnection::consume(Bytes n) {
  const bool was_zero = advertised_window().count() <= 0;
  unconsumed_ = std::max<std::int64_t>(unconsumed_ - n.count(), 0);
  // Window update so a blocked sender can resume.
  if (was_zero && advertised_window().count() > 0) send_ack_now();
}

// TSQ: wire bytes of this flow left the NIC, so more may be queued below.
void TcpConnection::on_tx_complete(Bytes) {
  if (state_ == State::Established || state_ == State::CloseWait) send_more();
}

// --------------------------------------------------------------- RX demux

void TcpConnection::on_packet(net::Packet&& p) {
  if (!p.is_tcp()) return;
  switch (state_) {
    case State::Closed:
      return;
    case State::SynSent:
    case State::SynReceived:
      handle_handshake(p);
      return;
    case State::Done:
      // TIME_WAIT-like behaviour: re-ack retransmitted FIN/data so the peer
      // can finish.
      if (p.tcp().has(net::kTcpFin) || p.payload.count() > 0) send_ack_now();
      return;
    default:
      break;
  }
  const net::TcpHeader& h = p.tcp();
  if (h.has(net::kTcpAck)) process_ack(h, p.payload.count() > 0);
  if (p.payload.count() > 0 || h.has(net::kTcpFin)) process_data(p);
}

void TcpConnection::handle_handshake(const net::Packet& p) {
  const net::TcpHeader& h = p.tcp();
  if (state_ == State::SynSent) {
    if (h.has(net::kTcpSyn) && h.has(net::kTcpAck)) {
      snd_wnd_ = h.rwnd;
      state_ = State::Established;
      disarm_rto();
      send_ack_now();
      if (on_connected) on_connected();
      send_more();
    }
    return;
  }
  // SynReceived.
  if (h.has(net::kTcpSyn) && !h.has(net::kTcpAck)) {
    send_control(net::kTcpSyn | net::kTcpAck);  // retransmitted SYN
    return;
  }
  if (h.has(net::kTcpAck)) {
    snd_wnd_ = h.rwnd;
    state_ = State::Established;
    disarm_rto();
    if (on_connected) on_connected();
    net::Packet copy = p;
    if (copy.payload.count() > 0 || copy.tcp().has(net::kTcpFin)) process_data(copy);
    send_more();
  }
}

// --------------------------------------------------------------- ACK path

void TcpConnection::process_ack(const net::TcpHeader& h, bool has_payload) {
  const std::int64_t prev_wnd = snd_wnd_;
  snd_wnd_ = h.rwnd;

  if (h.ack > snd_una_ && h.ack <= snd_nxt_) {
    const std::int64_t newly = static_cast<std::int64_t>(h.ack - snd_una_);
    const TimePoint now = sim_.now();

    // Pop fully-acked segments. RTT/delivery-rate samples come from the
    // HEAD segment only, and only if it was never retransmitted (Karn's
    // rule): segments further back may have been delivered long ago and
    // merely unblocked by a gap fill, so their "RTT" would include the
    // reordering wait and poison the estimator.
    Duration rtt_sample;
    DataRate delivery_rate;
    bool app_limited = false;
    bool is_head = true;
    while (!rtx_queue_.empty()) {
      SentSeg& seg = rtx_queue_.front();
      if (seg.seq + static_cast<std::uint64_t>(seg.len) <= h.ack) {
        if (is_head && now > seg.sent) {
          // RTT: Karn's rule, never sample a retransmitted segment.
          if (seg.retx_count == 0) rtt_sample = now - seg.sent;
          // Delivery rate: safe to sample even retransmitted heads — if
          // the ACK was for an earlier transmission the interval is too
          // long and the rate is underestimated, which a max filter (BBR)
          // tolerates; without this, long repair episodes starve the
          // bandwidth model entirely.
          const std::int64_t delivered =
              static_cast<std::int64_t>(h.ack) - seg.delivered_at_send;
          const Duration interval = now - seg.sent;
          if (interval.ns() > 0 && delivered > 0) {
            delivery_rate = DataRate::from(Bytes(delivered), interval);
          }
          app_limited = seg.app_limited;
        }
        is_head = false;
        if (seg.sacked) sacked_bytes_ -= seg.len;
        rtx_queue_.pop_front();
      } else if (seg.seq < h.ack) {
        // Partial overlap: trim the acked prefix.
        const std::int64_t cut = static_cast<std::int64_t>(h.ack - seg.seq);
        seg.seq = h.ack;
        seg.len -= cut;
        break;
      } else {
        break;
      }
    }

    snd_una_ = h.ack;
    obs::note_ack_advance(key_, snd_una_);
    stats_.bytes_delivered =
        Bytes(static_cast<std::int64_t>(fin_sent_ ? std::min(snd_una_, fin_seq_) : snd_una_));
    dupacks_ = 0;

    if (rtt_sample.ns() > 0) rtt_.add_sample(rtt_sample);

    apply_sack(h);
    if (all_lost_after_rto_ && snd_una_ >= recover_) all_lost_after_rto_ = false;
    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;
      } else {
        retransmit_holes();  // SACK-based partial-ACK retransmission
      }
    } else if (all_lost_after_rto_ || sacked_bytes_ > 0) {
      // Holes exist outside a dupack episode (e.g. after an RTO): keep
      // repairing them under the pipe limit.
      retransmit_holes();
    }

    AckEvent ev;
    ev.now = now;
    ev.newly_acked = Bytes(newly);
    ev.rtt_sample = rtt_sample;
    ev.srtt = rtt_.srtt();
    ev.delivery_rate = delivery_rate;
    ev.inflight = inflight();
    ev.is_app_limited = app_limited;
    cca_->on_ack(ev);

    if (rtx_queue_.empty()) {
      disarm_rto();
    } else {
      arm_rto();  // restart on forward progress
    }

    if (fin_sent_ && snd_una_ > fin_seq_) {
      if (state_ == State::FinWait1) state_ = State::FinWait2;
      check_done();
      if (state_ == State::Done) return;
    }
    send_more();
    return;
  }

  // Potential duplicate ACK: same ack, a *pure* ACK (data segments with a
  // stale ack field must not count, RFC 5681), outstanding data, and not a
  // window-opening update. (The window may shrink legitimately as the
  // receiver buffers out-of-order data, so only growth disqualifies.)
  if (h.ack == snd_una_ && !has_payload && !rtx_queue_.empty() && snd_wnd_ <= prev_wnd &&
      !h.has(net::kTcpSyn) && !h.has(net::kTcpFin)) {
    ++stats_.dup_acks_received;
    apply_sack(h);
    ++dupacks_;
    // RFC 6582: do not start a new recovery episode while an earlier one
    // (fast retransmit or RTO) still covers unacked data.
    if (dupacks_ == 3 && !in_recovery_ && !all_lost_after_rto_ && snd_una_ >= recover_) {
      in_recovery_ = true;
      recover_ = snd_nxt_;
      for (SentSeg& seg : rtx_queue_) seg.retx_in_episode = false;
      cca_->on_loss(sim_.now());
      ++stats_.fast_retransmits;
      if (retransmit_holes() == 0) retransmit_head();
    } else if (dupacks_ > 3 && in_recovery_) {
      retransmit_holes();  // every further dupack may SACK new data
    }
  } else if (snd_wnd_ > prev_wnd) {
    send_more();  // window update may unblock us
  }
}

// -------------------------------------------------------------- data path

void TcpConnection::process_data(const net::Packet& p) {
  obs::record_packet(obs::Layer::Tcp, obs::Direction::Rx, obs::EventKind::Receive, p, sim_.now());
  const net::TcpHeader& h = p.tcp();
  const std::uint64_t start = h.seq;
  const std::uint64_t end = start + static_cast<std::uint64_t>(p.payload.count());

  if (h.has(net::kTcpFin) && !fin_received_) {
    fin_received_ = true;
    fin_in_seq_ = end;  // FIN sits after this packet's payload
  }

  bool ooo = false;
  if (end <= rcv_nxt_ && !(h.has(net::kTcpFin) && !fin_consumed_)) {
    // Entirely duplicate data: re-ack immediately.
    send_ack_now();
    return;
  }
  if (start > rcv_nxt_) {
    ooo = true;
    ++stats_.ooo_segments;
    if (end > start) {
      // Insert and coalesce [start, end) into the out-of-order set.
      auto [it, inserted] = ooo_.emplace(start, end);
      if (!inserted && it->second < end) it->second = end;
      // Merge with neighbours.
      auto cur = ooo_.lower_bound(start);
      if (cur != ooo_.begin()) --cur;
      while (cur != ooo_.end()) {
        auto nxt = std::next(cur);
        if (nxt == ooo_.end()) break;
        if (nxt->first <= cur->second) {
          cur->second = std::max(cur->second, nxt->second);
          ooo_.erase(nxt);
        } else {
          cur = nxt;
        }
      }
    }
  } else if (end > rcv_nxt_) {
    rcv_nxt_ = end;
  }

  deliver_in_order();

  if (fin_received_ && !fin_consumed_ && rcv_nxt_ == fin_in_seq_) {
    fin_consumed_ = true;
    rcv_nxt_ = fin_in_seq_ + 1;  // FIN consumes one sequence unit
    if (state_ == State::Established) state_ = State::CloseWait;
    send_ack_now();
    if (on_peer_closed) on_peer_closed();
    check_done();
    return;
  }

  if (ooo) {
    send_ack_now();  // duplicate ACK announces the gap
  } else if (quickack_budget_ > 0) {
    --quickack_budget_;
    send_ack_now();
  } else if (++delack_count_ >= cfg_.delack_segments) {
    send_ack_now();
  } else {
    schedule_delayed_ack();
  }
}

void TcpConnection::deliver_in_order() {
  // Pull contiguous out-of-order ranges.
  auto it = ooo_.begin();
  while (it != ooo_.end() && it->first <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, it->second);
    it = ooo_.erase(it);
  }
  const std::int64_t total =
      static_cast<std::int64_t>(fin_consumed_ ? rcv_nxt_ - 1 : rcv_nxt_);
  const std::int64_t newly = total - stats_.bytes_received.count();
  if (newly > 0) {
    stats_.bytes_received = Bytes(total);
    if (!cfg_.auto_consume) unconsumed_ += newly;
    if (on_data) on_data(Bytes(newly));
  }
}

// ---------------------------------------------------------------- TX path

std::int64_t TcpConnection::usable_window() const {
  const std::int64_t wnd = std::min<std::int64_t>(cca_->cwnd().count(), snd_wnd_);
  return wnd - inflight().count();
}

Bytes TcpConnection::tsq_budget() const {
  if (cfg_.tsq_limit.count() > 0) return cfg_.tsq_limit;
  // Linux tcp_small_queue_check: ~1 ms of data at the pacing rate or two
  // TSO segments, whichever is larger, capped at the global limit. Keeping
  // this tight matters: a generous budget parks paced packets in the local
  // qdisc, which inflates RTT samples and wedges model-based CCAs.
  const DataRate rate = cfg_.pacing_enabled ? cca_->pacing_rate() : DataRate(0);
  const std::int64_t rate_based =
      rate.is_zero() ? 0 : rate.bytes_in(Duration::millis(1)).count();
  // ~2 ms of data at the pacing rate, floored at two segments: enough to
  // ride out completion latency at 100 Gb/s without parking a deep local
  // queue at access-link rates (Linux raises tcp_limit_output_bytes for
  // fast NICs for the same reason).
  const std::int64_t budget =
      std::max({2 * static_cast<std::int64_t>(last_tso_bytes_), 2 * rate_based, 2 * cfg_.mss});
  return Bytes(std::min<std::int64_t>(budget, 16 * 1024 * 1024));
}

void TcpConnection::send_more() {
  if (state_ != State::Established && state_ != State::CloseWait) {
    maybe_send_fin();
    return;
  }
  while (unsent_bytes_ > 0) {
    if (cpu_continuation_pending_) return;
    // Internal pacing: hold the next segment inside TCP until its slot in
    // the pacing schedule. Without this, window-permitted data would park
    // in the local qdisc with future EDTs while counting as in-flight,
    // inflating RTT samples and wedging model-based CCAs in Drain.
    if (pacing_next_ > sim_.now()) {
      if (!pacing_wakeup_pending_) {
        pacing_wakeup_pending_ = true;
        sim_.schedule_at(pacing_next_, [this, alive = std::weak_ptr<int>(alive_)] {
          if (alive.expired()) return;
          pacing_wakeup_pending_ = false;
          send_more();
        });
      }
      break;
    }
    const std::int64_t usable = usable_window();
    if (usable <= 0) {
      if (snd_wnd_ <= inflight().count() && snd_wnd_ == 0) arm_persist();
      break;
    }
    if (host_.nic().flow_unsent(key_) >= tsq_budget()) break;  // TCP small queues
    std::int64_t candidate = std::min(unsent_bytes_, usable);
    if (cfg_.nagle && candidate < cfg_.mss && inflight().count() > 0) break;

    const std::uint64_t seq = snd_nxt_;
    const std::int64_t emitted = emit_segment(seq, candidate, /*is_retx=*/false);
    if (emitted <= 0) break;

    SentSeg seg;
    seg.seq = seq;
    seg.len = emitted;
    seg.sent = std::max(sim_.now(), last_departure_);
    seg.delivered_at_send = static_cast<std::int64_t>(snd_una_);
    seg.app_limited = (unsent_bytes_ - emitted) == 0 && usable > emitted;
    rtx_queue_.push_back(seg);
    snd_nxt_ += static_cast<std::uint64_t>(emitted);
    unsent_bytes_ -= emitted;
    if (!rto_armed_) arm_rto();
  }
  maybe_send_fin();
}

std::int64_t TcpConnection::emit_segment(std::uint64_t seq, std::int64_t len, bool is_retx) {
  assert(len > 0);
  const TimePoint now = sim_.now();
  const DataRate cca_rate = cfg_.pacing_enabled ? cca_->pacing_rate() : DataRate(0);
  const Bytes tso = cfg_.tso_enabled
                        ? tso_autosize(cca_rate, Bytes(cfg_.mss), cfg_.tso_max)
                        : Bytes(cfg_.mss);
  const std::int64_t candidate = std::min<std::int64_t>(len, tso.count());

  TimePoint cca_departure = now;
  if (!cca_rate.is_zero()) cca_departure = std::max(now, pacing_next_);

  core::SegmentContext ctx;
  ctx.flow = key_;
  ctx.now = now;
  ctx.stream_offset = seq;
  ctx.cca_segment = Bytes(candidate);
  ctx.mss = Bytes(cfg_.mss);
  ctx.cca_departure = cca_departure;
  ctx.cca_pacing_rate = cca_rate;
  ctx.is_retransmission = is_retx;

  core::SegmentDecision d = cfg_.policy != nullptr
                                ? cfg_.policy->on_segment(ctx)
                                : core::SegmentDecision::passthrough(ctx);

  const std::int64_t seg_len = std::clamp<std::int64_t>(d.segment.count(), 1, candidate);
  const std::int64_t wire_mss = std::clamp<std::int64_t>(d.wire_mss.count(), 1, cfg_.mss);
  const TimePoint departure = std::max(d.departure, now);

  last_tso_bytes_ = static_cast<std::uint64_t>(candidate);
  last_departure_ = departure;

  // Reserve pacing credit at the CCA's rate: the next segment may not start
  // before this one would have finished at the CCA-approved rate.
  if (!cca_rate.is_zero()) {
    pacing_next_ = departure + cca_rate.transmit_time(Bytes(seg_len));
  }

  const std::int64_t wire_pkts = (seg_len + wire_mss - 1) / wire_mss;
  const TimePoint cpu_done = host_.cpu().dispatch(now, Bytes(seg_len), wire_pkts);

  net::Packet pkt;
  pkt.id = net::next_packet_id();
  pkt.flow = key_;
  pkt.header = Bytes(net::kEthIpTcpHeader);
  pkt.payload = Bytes(seg_len);
  pkt.not_before = std::max(departure, cpu_done);
  if (seg_len > wire_mss) pkt.tso_mss = wire_mss;
  net::TcpHeader& h = pkt.tcp();  // l4 starts out as a TcpHeader
  h.seq = seq;
  h.ack = rcv_nxt_;
  h.flags = net::kTcpAck;
  h.rwnd = advertised_window().count();
  for (auto it = ooo_.rbegin(); it != ooo_.rend() && h.sack.size() < 3; ++it) {
    h.sack.emplace_back(it->first, it->second);
  }

  ++stats_.segments_sent;
  stats_.bytes_sent += Bytes(seg_len);
  if (is_retx) ++stats_.retransmissions;

  if (obs::listener() != nullptr) {
    obs::DepartureEvent dep;
    dep.flow = key_;
    dep.now = now;
    dep.departure = pkt.not_before;
    dep.cca_departure = cca_departure;
    dep.bytes = seg_len;
    dep.cca_segment = candidate;
    dep.cwnd = cca_->cwnd().count();
    dep.inflight = inflight().count();
    // New data was admitted under usable_window(), so inflight + bytes <=
    // cwnd holds exactly; retransmissions are pipe-limited instead.
    dep.window_limited = !is_retx;
    dep.is_retransmission = is_retx;
    obs::note_departure(dep);
  }
  obs::record_packet(obs::Layer::Tcp, obs::Direction::Tx,
                     is_retx ? obs::EventKind::Retransmit : obs::EventKind::Send, pkt, now);
  obs::count(is_retx ? "tcp.retransmissions" : "tcp.segments_sent");
  obs::sample("tcp.cwnd_bytes", static_cast<double>(cca_->cwnd().count()));
  if (pkt.not_before > now) obs::sample("tcp.pacing_delay_us", (pkt.not_before - now).us());

  // Sending data carries an ACK: any pending delayed ACK is satisfied.
  if (delack_armed_) {
    sim_.cancel(delack_timer_);
    delack_armed_ = false;
  }
  delack_count_ = 0;

  if (cpu_done > now) {
    // The CPU is busy until cpu_done; the segment reaches the qdisc then,
    // and further segmentation work is deferred as well.
    cpu_continuation_pending_ = true;
    sim_.schedule_at(cpu_done, [this, pkt = std::move(pkt),
                                alive = std::weak_ptr<int>(alive_)]() mutable {
      if (alive.expired()) return;
      host_.nic().transmit(std::move(pkt));
      cpu_continuation_pending_ = false;
      send_more();
    });
  } else {
    host_.nic().transmit(std::move(pkt));
  }
  return seg_len;
}

void TcpConnection::retransmit_head() {
  if (rtx_queue_.empty()) return;
  SentSeg& head = rtx_queue_.front();
  if (head.retx_count >= kMaxRetries) {
    // Abort the connection.
    state_ = State::Done;
    disarm_rto();
    if (on_closed) on_closed();
    return;
  }
  head.retx_count += 1;
  head.sent = sim_.now();  // refreshed to the effective departure below
  head.delivered_at_send = static_cast<std::int64_t>(snd_una_);
  if (head.is_fin) {
    send_control(net::kTcpAck | net::kTcpFin);
    return;
  }
  const std::int64_t emitted = emit_segment(head.seq, head.len, /*is_retx=*/true);
  rtx_queue_.front().sent = std::max(sim_.now(), last_departure_);
  if (emitted < head.len) {
    // The policy shrank the retransmission; keep the tail as its own
    // (already sent once) segment so ordering by seq is preserved.
    SentSeg retxd = head;
    retxd.len = emitted;
    head.seq += static_cast<std::uint64_t>(emitted);
    head.len -= emitted;
    rtx_queue_.push_front(retxd);
  }
}

void TcpConnection::apply_sack(const net::TcpHeader& h) {
  if (h.sack.empty()) return;
  for (SentSeg& seg : rtx_queue_) {
    if (seg.sacked) continue;
    const std::uint64_t seg_end = seg.seq + static_cast<std::uint64_t>(seg.len);
    for (const auto& [start, end] : h.sack) {
      if (seg.seq >= start && seg_end <= end) {
        seg.sacked = true;
        sacked_bytes_ += seg.len;
        high_sack_end_ = std::max(high_sack_end_, seg_end);
        break;
      }
    }
  }
}

std::size_t TcpConnection::retransmit_holes() {
  if (rtx_queue_.empty()) return 0;
  const TimePoint now = sim_.now();
  // Loss inference (RFC 6675): a segment is lost once SACKed data extends
  // at least 3 MSS beyond it; after an RTO everything unsacked is lost.
  auto is_lost = [&](const SentSeg& seg) {
    if (seg.sacked) return false;
    if (all_lost_after_rto_) return true;
    return seg.seq + static_cast<std::uint64_t>(seg.len) +
               3 * static_cast<std::uint64_t>(cfg_.mss) <=
           high_sack_end_;
  };
  // Pipe estimate: unsacked-and-not-lost bytes still in the network, plus
  // retransmissions of this episode that have not timed out.
  std::int64_t pipe = 0;
  for (const SentSeg& seg : rtx_queue_) {
    if (seg.sacked) continue;
    if (!is_lost(seg)) {
      pipe += seg.len;
    } else if (seg.retx_in_episode && now - seg.sent < rtt_.rto()) {
      pipe += seg.len;  // its retransmission is in flight
    }
  }
  const std::int64_t cwnd = cca_->cwnd().count();
  std::size_t sent_count = 0;
  for (std::size_t i = 0; i < rtx_queue_.size() && pipe < cwnd; ++i) {
    SentSeg& seg = rtx_queue_[i];
    if (seg.sacked || !is_lost(seg)) continue;
    // Retransmit each hole once per episode; allow again if its own
    // retransmission has plausibly been lost (per-segment RTO).
    if (seg.retx_in_episode && now - seg.sent < rtt_.rto()) continue;
    if (seg.retx_count >= kMaxRetries) {
      state_ = State::Done;
      disarm_rto();
      if (on_closed) on_closed();
      return sent_count;
    }
    seg.retx_count += 1;
    seg.retx_in_episode = true;
    seg.delivered_at_send = static_cast<std::int64_t>(snd_una_);
    ++sent_count;
    if (seg.is_fin) {
      seg.sent = now;
      send_control(net::kTcpAck | net::kTcpFin);
      pipe += seg.len;
      continue;
    }
    const std::int64_t emitted = emit_segment(seg.seq, seg.len, /*is_retx=*/true);
    seg.sent = std::max(now, last_departure_);
    if (emitted < seg.len) {
      // Policy shrank the retransmission: split the entry, keep order.
      SentSeg tail = seg;
      tail.seq += static_cast<std::uint64_t>(emitted);
      tail.len -= emitted;
      tail.retx_in_episode = false;
      seg.len = emitted;
      rtx_queue_.insert(rtx_queue_.begin() + static_cast<std::ptrdiff_t>(i) + 1, tail);
    }
    pipe += emitted;
  }
  return sent_count;
}

void TcpConnection::send_control(std::uint8_t flags) {
  net::Packet pkt;
  pkt.id = net::next_packet_id();
  pkt.flow = key_;
  pkt.header = Bytes(net::kEthIpTcpHeader);
  pkt.payload = Bytes(0);
  net::TcpHeader& h = pkt.tcp();  // l4 starts out as a TcpHeader
  h.flags = flags;
  h.rwnd = advertised_window().count();
  if (flags & net::kTcpAck) {
    h.ack = rcv_nxt_;
    // SACK option: advertise up to 3 out-of-order ranges, newest/highest
    // first (as real receivers do) so the sender's loss inference covers
    // the whole hole region quickly.
    for (auto it = ooo_.rbegin(); it != ooo_.rend() && h.sack.size() < 3; ++it) {
      h.sack.emplace_back(it->first, it->second);
    }
  }
  if (flags & net::kTcpFin) h.seq = fin_seq_;
  if ((flags & net::kTcpAck) && !(flags & (net::kTcpSyn | net::kTcpFin))) ++stats_.acks_sent;
  host_.nic().transmit(std::move(pkt));
}

void TcpConnection::send_ack_now() {
  if (delack_armed_) {
    sim_.cancel(delack_timer_);
    delack_armed_ = false;
  }
  delack_count_ = 0;
  send_control(net::kTcpAck);
}

void TcpConnection::schedule_delayed_ack() {
  if (delack_armed_) return;
  delack_armed_ = true;
  delack_timer_ = sim_.schedule_after(cfg_.delack_timeout, [this] {
    delack_armed_ = false;
    delack_count_ = 0;
    send_control(net::kTcpAck);
  });
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_ || unsent_bytes_ > 0) return;
  if (state_ != State::Established && state_ != State::CloseWait) return;
  fin_seq_ = snd_nxt_;
  SentSeg seg;
  seg.seq = snd_nxt_;
  seg.len = 1;  // virtual FIN byte
  seg.sent = sim_.now();
  seg.delivered_at_send = static_cast<std::int64_t>(snd_una_);
  seg.is_fin = true;
  rtx_queue_.push_back(seg);
  snd_nxt_ += 1;
  fin_sent_ = true;
  state_ = state_ == State::CloseWait ? State::LastAck : State::FinWait1;
  send_control(net::kTcpAck | net::kTcpFin);
  if (!rto_armed_) arm_rto();
}

void TcpConnection::check_done() {
  const bool our_side_done = fin_sent_ && snd_una_ > fin_seq_;
  if (our_side_done && fin_consumed_ && state_ != State::Done) {
    state_ = State::Done;
    disarm_rto();
    if (persist_armed_) {
      sim_.cancel(persist_timer_);
      persist_armed_ = false;
    }
    if (on_closed) on_closed();
  }
}

// ----------------------------------------------------------------- timers

void TcpConnection::arm_rto() {
  const TimePoint when = sim_.now() + rtt_.rto();
  if (rto_armed_ && sim_.reschedule(rto_timer_, when)) return;  // re-armed in place
  rto_armed_ = true;
  rto_timer_ = sim_.schedule_at(when, [this] {
    rto_armed_ = false;
    on_rto_fire();
  });
}

void TcpConnection::disarm_rto() {
  if (rto_armed_) {
    sim_.cancel(rto_timer_);
    rto_armed_ = false;
  }
}

void TcpConnection::on_rto_fire() {
  if (state_ == State::SynSent) {
    ++stats_.rto_fires;
    rtt_.backoff();
    send_control(net::kTcpSyn);
    arm_rto();
    return;
  }
  if (state_ == State::SynReceived) {
    ++stats_.rto_fires;
    rtt_.backoff();
    send_control(net::kTcpSyn | net::kTcpAck);
    arm_rto();
    return;
  }
  if (rtx_queue_.empty()) return;
  ++stats_.rto_fires;
  obs::count("tcp.rto_fires");
  rtt_.backoff();
  cca_->on_rto(sim_.now());
  in_recovery_ = false;
  dupacks_ = 0;
  all_lost_after_rto_ = true;  // RFC 6675: RTO invalidates the whole pipe
  recover_ = snd_nxt_;
  for (SentSeg& seg : rtx_queue_) seg.retx_in_episode = false;
  pacing_next_ = TimePoint::zero();  // the pacing schedule is stale after idle
  if (retransmit_holes() == 0) retransmit_head();
  if (state_ != State::Done) arm_rto();
}

void TcpConnection::arm_persist() {
  if (persist_armed_ || unsent_bytes_ <= 0) return;
  persist_armed_ = true;
  persist_timer_ = sim_.schedule_after(rtt_.rto(), [this] {
    persist_armed_ = false;
    on_persist_fire();
  });
}

void TcpConnection::on_persist_fire() {
  if (state_ != State::Established && state_ != State::CloseWait) return;
  if (unsent_bytes_ <= 0) return;
  if (snd_wnd_ > inflight().count()) {
    send_more();
    return;
  }
  // Zero-window probe: force out one byte beyond the advertised window.
  const std::uint64_t seq = snd_nxt_;
  const std::int64_t emitted = emit_segment(seq, 1, /*is_retx=*/false);
  if (emitted > 0) {
    SentSeg seg;
    seg.seq = seq;
    seg.len = emitted;
    seg.sent = sim_.now();
    seg.delivered_at_send = static_cast<std::int64_t>(snd_una_);
    rtx_queue_.push_back(seg);
    snd_nxt_ += static_cast<std::uint64_t>(emitted);
    unsent_bytes_ -= emitted;
    if (!rto_armed_) arm_rto();
  }
  arm_persist();
}

// --------------------------------------------------------------- listener

TcpListener::TcpListener(stack::Host& host, net::Port port, TcpConnection::Config conn_cfg)
    : host_(host), port_(port), conn_cfg_(conn_cfg) {
  host_.bind_listener(port_, net::Proto::Tcp,
                      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

TcpListener::~TcpListener() { host_.unbind_listener(port_, net::Proto::Tcp); }

void TcpListener::on_packet(net::Packet&& p) {
  if (!p.is_tcp() || !p.tcp().has(net::kTcpSyn) || p.tcp().has(net::kTcpAck)) return;
  // Reap finished connections before accepting new ones.
  std::erase_if(conns_, [](const std::unique_ptr<TcpConnection>& c) {
    return c->state() == TcpConnection::State::Done;
  });
  auto conn = std::make_unique<TcpConnection>(host_, conn_cfg_);
  TcpConnection& ref = *conn;
  conns_.push_back(std::move(conn));
  // accept() first so the connection's flow key is set by the time the
  // application's accept callback runs; no data can arrive before the
  // handshake completes, so attaching callbacks here is race-free.
  ref.accept(p);
  if (accept_cb_) accept_cb_(ref);
}

}  // namespace stob::tcp
