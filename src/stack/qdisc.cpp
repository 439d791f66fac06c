#include "stack/qdisc.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace stob::stack {

namespace {

// Observability taps shared by both qdiscs. All of these are single
// load-and-branch no-ops when no recorder/registry is installed.

void note_enqueue(const net::Packet& p, Bytes backlog, Bytes capacity) {
  obs::record_packet(obs::Layer::Qdisc, obs::Direction::Tx, obs::EventKind::Enqueue, p,
                     p.enqueued_at);
  obs::count("qdisc.enqueued");
  obs::sample("qdisc.backlog_bytes", static_cast<double>(backlog.count()));
  // Queue-bound invariant: with the admit-one-into-empty rule, the backlog
  // may exceed capacity only by way of a single oversize packet.
  const std::int64_t bound = capacity.count() > 0
                                 ? std::max(capacity.count(), p.wire_size().count())
                                 : std::numeric_limits<std::int64_t>::max();
  obs::note_queue_depth(obs::QueueKind::QdiscBacklog, backlog.count(), bound);
}

void note_drop(const net::Packet& p) {
  obs::record_packet(obs::Layer::Qdisc, obs::Direction::Tx, obs::EventKind::Drop, p,
                     p.enqueued_at);
  obs::count("qdisc.drops");
}

void note_dequeue(const net::Packet& p, TimePoint now) {
  obs::record_packet(obs::Layer::Qdisc, obs::Direction::Tx, obs::EventKind::Dequeue, p, now);
  obs::count("qdisc.dequeued");
  obs::sample("qdisc.sojourn_us", (now - p.enqueued_at).us());
  if (p.not_before != TimePoint::zero()) {
    const double late = (now - p.not_before).us();
    obs::sample("qdisc.pacing_release_delay_us", late > 0.0 ? late : 0.0);
  }
}

// Shared capacity-drop semantics: a packet that would push the backlog past
// `capacity` is dropped, EXCEPT into an empty queue (admit-one), so a
// single packet larger than the whole capacity still passes instead of
// wedging its flow forever. Keyed on backlogged bytes in both qdiscs so an
// over-capacity packet is handled identically by FIFO and fq.
bool capacity_drop(Bytes capacity, Bytes backlog, Bytes size) {
  return capacity.count() > 0 && backlog + size > capacity && backlog.count() > 0;
}

}  // namespace

// ---------------------------------------------------------------- FifoQdisc

void FifoQdisc::enqueue(net::Packet&& p) {
  const Bytes size = p.wire_size();
  if (capacity_drop(capacity_, backlog_, size)) {
    ++dropped_;
    note_drop(p);
    return;
  }
  backlog_ += size;
  per_flow_bytes_[p.flow] += size.count();
  note_enqueue(p, backlog_, capacity_);
  queue_.push_back(std::move(p));
}

std::optional<net::Packet> FifoQdisc::dequeue(TimePoint now) {
  // Every path returns `out`, so it is built in the caller's storage and
  // the packet is moved once, out of the queue.
  std::optional<net::Packet> out;
  if (queue_.empty()) return out;
  const net::Packet& p = out.emplace(std::move(queue_.front()));
  queue_.pop_front();
  const Bytes size = p.wire_size();
  backlog_ -= size;
  if (std::int64_t* bytes = per_flow_bytes_.find(p.flow)) {
    *bytes -= size.count();
    if (*bytes <= 0) per_flow_bytes_.erase(p.flow);
  }
  note_dequeue(p, now);
  return out;
}

TimePoint FifoQdisc::next_ready(TimePoint now) const {
  return queue_.empty() ? TimePoint::max() : now;
}

Bytes FifoQdisc::flow_backlog(const net::FlowKey& flow) const {
  const std::int64_t* bytes = per_flow_bytes_.find(flow);
  return Bytes(bytes == nullptr ? 0 : *bytes);
}

// ------------------------------------------------------------------ FqQdisc

FqQdisc::FqQdisc() : FqQdisc(Config{}) {}

void FqQdisc::enqueue(net::Packet&& p) {
  const Bytes size = p.wire_size();
  if (capacity_drop(cfg_.capacity, backlog_, size)) {
    ++dropped_;
    note_drop(p);
    return;
  }
  // Clamp absurd EDT values (fq's horizon), so a buggy policy cannot wedge
  // the flow forever.
  if (p.not_before > p.enqueued_at + cfg_.horizon) p.not_before = p.enqueued_at + cfg_.horizon;

  // A new flow, or one that drained and returns, joins the back of the round.
  if (flows_.find(p.flow) == nullptr) round_.push_back(p.flow);
  FlowQueue& fq = flows_[p.flow];
  fq.bytes += size.count();
  backlog_ += size;
  note_enqueue(p, backlog_, cfg_.capacity);
  fq.packets.push_back(std::move(p));
}

std::optional<net::Packet> FqQdisc::dequeue(TimePoint now) {
  // Every path returns `out`, so it is built in the caller's storage and
  // the packet is moved once, out of its flow's queue.
  std::optional<net::Packet> out;
  std::size_t ineligible_streak = 0;
  while (!round_.empty()) {
    const net::FlowKey key = round_.front();
    FlowQueue* const entry = flows_.find(key);
    assert(entry != nullptr);  // round_ holds exactly the backlogged flows
    FlowQueue& fq = *entry;
    const net::Packet& head = fq.packets.front();
    if (head.not_before > now) {
      // Paced into the future: let other flows run (work conservation
      // across flows; within the flow order is preserved).
      round_.pop_front();
      round_.push_back(key);
      if (++ineligible_streak >= round_.size()) return out;
      continue;
    }
    ineligible_streak = 0;
    const std::int64_t size = head.wire_size().count();
    if (fq.deficit < size) {
      // Deficit exhausted: top up one quantum and end this flow's visit
      // (rotate to the back) so other flows get their turn — classic DRR.
      fq.deficit += cfg_.quantum.count();
      round_.pop_front();
      round_.push_back(key);
      continue;
    }
    out.emplace(std::move(fq.packets.front()));
    fq.packets.pop_front();
    fq.deficit -= size;
    fq.bytes -= size;
    backlog_ -= Bytes(size);
    if (fq.packets.empty()) {
      round_.pop_front();
      flows_.erase(key);
    }
    note_dequeue(*out, now);
    return out;
  }
  return out;
}

TimePoint FqQdisc::next_ready(TimePoint now) const {
  TimePoint earliest = TimePoint::max();
  for (const auto& [key, fq] : flows_) {
    const TimePoint t = fq.packets.front().not_before;
    earliest = std::min(earliest, std::max(t, now));
  }
  return earliest;
}

Bytes FqQdisc::flow_backlog(const net::FlowKey& flow) const {
  const FlowQueue* fq = flows_.find(flow);
  return Bytes(fq == nullptr ? 0 : fq->bytes);
}

}  // namespace stob::stack
