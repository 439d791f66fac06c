#include "net/pipe.hpp"

#include <cassert>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace stob::net {

Pipe::Pipe(sim::Simulator& sim, Config cfg) : sim_(sim), cfg_(cfg) {}

void Pipe::send(Packet&& p) {
  const Bytes size = p.wire_size();
  if (cfg_.queue_capacity.count() > 0 && queued_bytes_ + size > cfg_.queue_capacity &&
      !queue_.empty()) {
    ++dropped_packets_;
    STOB_TRACE("pipe") << "drop-tail " << p;
    return;
  }
  queued_bytes_ += size;
  if (queued_bytes_ > max_queued_bytes_) max_queued_bytes_ = queued_bytes_;
  queue_.push_back(std::move(p));
  if (!busy_) start_transmission();
}

void Pipe::start_transmission() {
  assert(!queue_.empty());
  busy_ = true;
  in_service_ = std::move(queue_.front());
  queue_.pop_front();
  Packet& p = in_service_;
  queued_bytes_ -= p.wire_size();
  p.sent_at = sim_.now();
  if (tx_tap_) tx_tap_(p, sim_.now());
  obs::record_packet(obs::Layer::Wire, obs::Direction::Tx, obs::EventKind::Send, p, sim_.now());
  obs::count("wire.packets");
  obs::count("wire.bytes", static_cast<std::uint64_t>(p.wire_size().count()));
  const Duration tx = cfg_.rate.transmit_time(p.wire_size());
  sim_.schedule_after(tx, [this] { on_transmitted(); });
}

void Pipe::on_transmitted() {
  Packet p = std::move(in_service_);
  // Serialiser is free again; keep the link busy back-to-back.
  if (!queue_.empty()) {
    start_transmission();
  } else {
    busy_ = false;
  }
  // Serialisation finished: the sender's NIC ring frees here no matter what
  // happens to the packet in flight (a lost packet still occupied the wire).
  if (tx_complete_) tx_complete_(p);

  // An installed fault model owns the in-flight fate of the packet and
  // replaces the built-in i.i.d. loss check.
  if (fault_model_ != nullptr) {
    fault_model_->on_transmitted(*this, std::move(p));
    return;
  }

  if (cfg_.loss_rate > 0.0 && loss_rng_.chance(cfg_.loss_rate)) {
    count_lost(p);
    return;
  }

  deliver(std::move(p));
}

void Pipe::deliver(Packet&& p, Duration extra) {
  ++delivered_packets_;
  delivered_bytes_ += p.wire_size();
  const InFlight::Index slot = in_flight_.put(std::move(p));
  // The key is reserved now either way, so the arrival fires exactly where
  // a plain schedule here would have put it.
  const sim::Ticket key = sim_.reserve_after(cfg_.delay + extra);
  if (lane_.empty()) {
    lane_.push_back({key, slot});
    sim_.schedule_at(key, [this] { arrive_head(); });
  } else if (key.when() >= lane_.back().key.when()) {
    lane_.push_back({key, slot});  // keys rise along the lane: seq always does
  } else {
    sim_.schedule_at(key, [this, slot] { arrive(slot); });  // overtakes the lane
  }
}

void Pipe::arrive_head() {
  const InFlight::Index slot = lane_.front().slot;
  lane_.pop_front();
  // The next key orders after the one firing now, so it can still be
  // scheduled at exactly its reserved place.
  if (!lane_.empty()) sim_.schedule_at(lane_.front().key, [this] { arrive_head(); });
  arrive(slot);
}

void Pipe::arrive(InFlight::Index slot) {
  // Free the slot before the taps and the sink run: a sink may send() or
  // deliver() again, which can reuse it.
  Packet p = in_flight_.take(slot);
  if (rx_tap_) rx_tap_(p, sim_.now());
  obs::record_packet(obs::Layer::Wire, obs::Direction::Rx, obs::EventKind::Receive, p,
                     sim_.now());
  if (sink_) sink_(std::move(p));
}

void Pipe::count_lost(const Packet& p) {
  ++lost_packets_;
  STOB_TRACE("pipe") << "loss " << p;
}

}  // namespace stob::net
