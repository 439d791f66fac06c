#include "stack/nic.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace stob::stack {

Nic::Nic(sim::Simulator& sim, std::unique_ptr<Qdisc> qdisc)
    : Nic(sim, std::move(qdisc), Config{}) {}

Nic::Nic(sim::Simulator& sim, std::unique_ptr<Qdisc> qdisc, Config cfg)
    : sim_(sim), qdisc_(std::move(qdisc)), cfg_(cfg) {
  assert(qdisc_);
}

void Nic::attach_egress(net::Pipe& pipe) {
  egress_ = &pipe;
  pipe.set_tx_complete([this](const net::Packet& p) { on_wire_complete(p); });
}

void Nic::transmit(net::Packet&& p) {
  p.enqueued_at = sim_.now();
  qdisc_->enqueue(std::move(p));
  pump();
}

void Nic::set_completion_handler(const net::FlowKey& flow, FlowEndpoint& endpoint) {
  completions_[flow] = &endpoint;
}

void Nic::clear_completion_handler(const net::FlowKey& flow) { completions_.erase(flow); }

Bytes Nic::flow_unsent(const net::FlowKey& flow) const {
  const std::int64_t* in_ring = ring_per_flow_.find(flow);
  return qdisc_->flow_backlog(flow) + Bytes(in_ring == nullptr ? 0 : *in_ring);
}

void Nic::pump() {
  if (egress_ == nullptr) return;
  const TimePoint now = sim_.now();
  // Dequeue only while some head is eligible. A dequeue with every head
  // paced into the future returns nothing, and its DRR rotation is the
  // identity, so skipping it changes nothing.
  TimePoint next = qdisc_->next_ready(now);
  while (ring_bytes_ < cfg_.tx_ring && next <= now) {
    std::optional<net::Packet> p = qdisc_->dequeue(now);
    if (!p) break;
    push_to_wire(std::move(*p));
    next = qdisc_->next_ready(now);
  }
  // Re-arm the wakeup for the next paced packet in place, or drop it. The
  // ring-space guard is load-bearing in both directions:
  //  * without it, a full ring + an already-eligible head (next_ready ==
  //    now) would self-schedule at the current timestamp forever;
  //  * with it, dropping the wakeup is safe only because a full ring
  //    implies ring_bytes_ > 0, i.e. packets are in flight in the egress
  //    pipe, and every serialisation completion calls on_wire_complete ->
  //    pump(), which re-evaluates the qdisc and re-arms once space exists.
  //    Paced packets parked in the qdisc behind a full ring therefore
  //    always have a live drain path (regression-tested by
  //    Nic.PacedPacketSurvivesFullRing).
  if (next == TimePoint::max() || ring_bytes_ >= cfg_.tx_ring) {
    sim_.cancel(wakeup_);
  } else if (!sim_.reschedule(wakeup_, next)) {
    wakeup_ = sim_.schedule_at(next, [this] { pump(); });
  }
}

void Nic::push_to_wire(net::Packet&& p) {
  const std::int64_t payload = p.payload.count();
  if (p.tso_mss > 0 && payload > p.tso_mss) {
    // Hardware segmentation: equal-size packets at line rate, the last one
    // possibly short. Only TCP super-segments use this path.
    ++tso_segments_split_;
    obs::count("nic.tso_splits");
    obs::sample("nic.split_factor",
                static_cast<double>((payload + p.tso_mss - 1) / p.tso_mss));
    const std::int64_t mss = p.tso_mss;
    const std::uint64_t first_seq = p.is_tcp() ? p.tcp().seq : 0;
    std::int64_t offset = 0;
    std::int64_t pushed = 0;
    while (offset < payload) {
      const std::int64_t chunk = std::min(mss, payload - offset);
      // Every chunk but the last is a copy; the last takes the packet.
      net::Packet wire = offset + chunk < payload ? net::Packet(p) : std::move(p);
      wire.id = net::next_packet_id();
      wire.payload = Bytes(chunk);
      wire.tso_mss = 0;
      if (wire.is_tcp()) {
        wire.tcp().seq = first_seq + static_cast<std::uint64_t>(offset);
        // FIN applies to the last byte only.
        if (offset + chunk < payload) wire.tcp().flags &= static_cast<std::uint8_t>(~net::kTcpFin);
      }
      offset += chunk;
      ring_bytes_ += wire.wire_size();
      pushed += wire.wire_size().count();
      ring_per_flow_[wire.flow] += wire.wire_size().count();
      ++wire_packets_sent_;
      obs::count("nic.wire_packets");
      obs::record_packet(obs::Layer::Nic, obs::Direction::Tx, obs::EventKind::Send, wire,
                         sim_.now());
      egress_->send(std::move(wire));
    }
    // Ring-bound invariant: the ring may overshoot tx_ring by at most the
    // burst just pushed (a whole super-segment enters once pump() saw room).
    obs::note_queue_depth(obs::QueueKind::NicRing, ring_bytes_.count(),
                          cfg_.tx_ring.count() + pushed);
    return;
  }
  ring_bytes_ += p.wire_size();
  ring_per_flow_[p.flow] += p.wire_size().count();
  ++wire_packets_sent_;
  obs::count("nic.wire_packets");
  obs::record_packet(obs::Layer::Nic, obs::Direction::Tx, obs::EventKind::Send, p, sim_.now());
  obs::note_queue_depth(obs::QueueKind::NicRing, ring_bytes_.count(),
                        cfg_.tx_ring.count() + p.wire_size().count());
  egress_->send(std::move(p));
}

void Nic::on_wire_complete(const net::Packet& p) {
  const Bytes size = p.wire_size();
  ring_bytes_ -= size;
  if (std::int64_t* in_ring = ring_per_flow_.find(p.flow)) {
    *in_ring -= size.count();
    if (*in_ring <= 0) ring_per_flow_.erase(p.flow);
  }
  if (FlowEndpoint* const* slot = completions_.find(p.flow)) {
    // Copy the pointer out before the call: the endpoint may install
    // completions for other flows, which moves the table's entries.
    FlowEndpoint* const endpoint = *slot;
    endpoint->on_tx_complete(size);
  }
  pump();
}

TimePoint CpuModel::dispatch(TimePoint now, Bytes payload, std::int64_t wire_packets) {
  if (!enabled()) return now;
  const Duration cost =
      costs_.per_segment + costs_.per_wire_packet * wire_packets +
      Duration::nanos(static_cast<std::int64_t>(costs_.per_byte_ns *
                                                static_cast<double>(payload.count())));
  const TimePoint start = std::max(now, free_at_);
  free_at_ = start + cost;
  busy_accum_ += cost;
  return free_at_;
}

}  // namespace stob::stack
