// Discrete-event simulation core.
//
// The whole network stack runs on top of this: every asynchronous activity
// (link serialisation, packet arrival, qdisc dequeue, TCP timers,
// application think time) fires as an event at an absolute TimePoint. Events
// at the same time fire in scheduling order (FIFO tie-break), which keeps
// runs deterministic.
//
// Hot-path design (see DESIGN.md §11): the ready queue is an indexed 4-ary
// min-heap of 16-byte slots ordered on (when, seq). Callbacks live in a
// stable node pool beside the heap; each heap slot carries its node index
// and a dense side-array maps nodes back to heap positions, so cancel() is
// a true O(log n) heap removal — no tombstone set, no lazy-skip
// bookkeeping, and pending() is exact by construction. Event ids are
// (node, generation) pairs: nodes are recycled through a freelist and bump
// their generation on every release, so a stale id for a recycled node can
// never cancel the new occupant. Callbacks are sim::Event (small-buffer
// optimised) constructed in place in their node, so the common
// schedule/fire cycle performs zero heap allocations and moves each
// capture exactly once.
//
// A caller that knows an event's time before it wants the event in the
// heap can reserve its key: reserve_at()/reserve_after() hand out a Ticket
// holding (when, seq) and consume the sequence number right then, and
// schedule_at(ticket, cb) later pushes the event at exactly that key. The
// event fires where a plain schedule at reservation time would have put
// it. net::Pipe uses this to keep only the head of each FIFO of packets in
// propagation in the heap (DESIGN.md §11).
//
// A timer that is re-armed before it fires (the NIC's pacing wakeup, TCP's
// RTO, QUIC's PTO) is moved with reschedule(): the slot is re-keyed and
// sifted where it stands, with the key a cancel and a fresh schedule would
// have given it, so the callback is neither destroyed nor rebuilt.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/units.hpp"

namespace stob::sim {

/// Handle to a scheduled event; allows cancellation (e.g. TCP retransmission
/// timers that are rearmed on every ACK). Generation-checked: a handle to an
/// event that already fired or was cancelled is harmlessly inert even after
/// its pool node has been reused.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return slot_ != 0; }

 private:
  friend class Simulator;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;  // node index + 1; 0 = invalid
  std::uint32_t gen_ = 0;   // must match the node's generation to act
};

/// A reserved firing key (when, seq): see Simulator::reserve_at. Opaque
/// apart from its time; schedule it at most once, and no later than the
/// clock reaching its time (the event that schedules it must order before
/// it).
class Ticket {
 public:
  Ticket() = default;
  TimePoint when() const { return TimePoint(when_ns_); }

 private:
  friend class Simulator;
  Ticket(std::int64_t when_ns, std::uint64_t seq) : when_ns_(when_ns), seq_(seq) {}
  std::int64_t when_ns_ = 0;
  std::uint64_t seq_ = 0;  // 0 = never reserved
};

class Simulator {
 public:
  using Callback = Event;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedule `cb` to run at absolute time `when` (clamped to now if in the
  /// past). Returns a handle usable with cancel(). Accepts any void()
  /// callable; the capture is constructed directly in the scheduler's node
  /// pool (no intermediate copies, no allocation for hot-path sizes).
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(TimePoint when, F&& cb) {
    return schedule_at(reserve_at(when), std::forward<F>(cb));
  }

  /// Reserve the key a schedule_at(when, ...) made now would get: `when`
  /// clamped to now, and the next sequence number, which is consumed here.
  /// Nothing is queued until the ticket is scheduled.
  Ticket reserve_at(TimePoint when) {
    if (when < now_) when = now_;  // never schedule into the past
    return Ticket(when.ns(), next_seq_++);
  }

  Ticket reserve_after(Duration delay) { return reserve_at(now_ + delay); }

  /// Schedule `cb` at a reserved key. It fires exactly where a plain
  /// schedule at reservation time would have: before every event scheduled
  /// after the reservation for the same time.
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(const Ticket& key, F&& cb) {
    assert(key.seq_ != 0 && "ticket was never reserved");
    assert(key.when_ns_ >= now_.ns() && "ticket scheduled after its time");
    const std::uint32_t node = acquire_node();
    if constexpr (std::is_same_v<std::decay_t<F>, Event>) {
      assert(cb);
      cb_ref(node) = std::forward<F>(cb);
    } else {
      cb_ref(node).emplace(std::forward<F>(cb));
    }
    const Slot slot{key.when_ns_, (key.seq_ << kNodeBits) | node};
    heap_.push_back(slot);  // placeholder; sift_up assigns the final position
    if (heap_.size() > heap_high_water_) heap_high_water_ = heap_.size();
    sift_up(heap_.size() - 1, slot);
    return EventId(node + 1, meta_[node].gen);
  }

  /// Schedule `cb` to run `delay` from now.
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_after(Duration delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled,
  /// or invalid id is a harmless no-op (timers race with the events that
  /// disarm them).
  void cancel(EventId id);

  /// Move a pending event to `when` (clamped to now) in place: it takes the
  /// next sequence number, as schedule_at would, so it fires exactly where
  /// cancel(id) followed by a schedule_at(when, ...) of the same callback
  /// would have put it, and `id` stays valid. Counts one cancel, like that
  /// pair. Returns false, and does nothing, when `id` is not pending
  /// (fired, cancelled, stale, or the event now running).
  bool reschedule(EventId id, TimePoint when);

  /// Run until the queue drains or `until`, whichever first.
  /// Returns the number of events executed.
  /// Defined inline so the dispatch loop (pop, node recycle, callback
  /// invoke) compiles into the caller's translation unit.
  std::size_t run(TimePoint until = TimePoint::max()) {
    std::size_t n = 0;
    while (step(until)) ++n;
    if (now_ < until && until != TimePoint::max()) now_ = until;
    return n;
  }

  /// Run at most one event. Returns false if the queue is empty or the next
  /// event is after `until`.
  bool step(TimePoint until = TimePoint::max()) {
    if (heap_.empty()) return false;
    const Slot top = heap_[0];
    if (top.when_ns > until.ns()) return false;
    // Detach the event before invoking: bump the generation (so a stale
    // EventId for this event is already inert) and pull it out of the heap,
    // but invoke the callback in place — chunked storage keeps its address
    // stable even if the callback grows the pool — and only put the node on
    // the freelist afterwards, so a re-entrant schedule cannot reuse
    // storage that is still executing.
    const std::uint32_t node = top.node();
    {
      NodeMeta& m = meta_[node];
      ++m.gen;
      m.heap_pos = kNoPos;
    }
    pop_root();
    now_ = TimePoint(top.when_ns);
    ++executed_;
    Event& cb = cb_ref(node);
    cb();
    cb = Event{};  // destroy the capture now that it has run
    // meta_ may have been reallocated by callbacks scheduling; re-index.
    meta_[node].heap_pos = free_head_;  // freelist link
    free_head_ = node;
    return true;
  }

  /// Number of pending events. Exact: cancelled events leave the heap
  /// immediately.
  std::size_t pending() const { return heap_.size(); }

  /// Total events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Total events cancelled since construction (cancellation churn — mostly
  /// transport timers rearmed before firing). Counts only events that were
  /// actually pending when cancelled; a reschedule() counts as one.
  std::uint64_t cancelled() const { return cancelled_total_; }

  /// Largest number of simultaneously pending events ever reached — the
  /// run's event-memory footprint (nodes, like freed pool chunks, are never
  /// returned to the allocator). Deterministic for a deterministic run;
  /// obs::scrape_simulator exports it so manifests capture it per job.
  std::size_t heap_high_water() const { return heap_high_water_; }

 private:
  static constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

  /// aux packs (seq << kNodeBits) | node: 40 bits of FIFO sequence over 24
  /// bits of node index. Comparing aux directly is the seq comparison —
  /// node bits only discriminate when seqs are equal, which cannot happen.
  /// Limits: ≤16.7M *concurrently pending* events (asserted in
  /// acquire_node) and ≤2^40 ≈ 1.1e12 total schedules per Simulator.
  static constexpr std::uint32_t kNodeBits = 24;
  static constexpr std::uint64_t kNodeMask = (std::uint64_t{1} << kNodeBits) - 1;

  /// 16-byte heap slot (4 per cache line); the callback stays put in its
  /// pool node so sift operations move only these.
  struct Slot {
    std::int64_t when_ns;
    std::uint64_t aux;  // (seq << kNodeBits) | node
    std::uint32_t node() const { return static_cast<std::uint32_t>(aux & kNodeMask); }
  };

  /// Per-node bookkeeping, kept out of the (large) callback array so the
  /// backref writes done by sift operations stay in a dense 8-byte-stride
  /// side table. heap_pos doubles as the freelist link while the node is
  /// free: a node is never both in the heap and on the freelist, and every
  /// read of heap_pos (in cancel) is gated by the generation check, which
  /// fails for freed nodes because release bumps gen.
  struct NodeMeta {
    std::uint32_t heap_pos = kNoPos;  // or next free node while free
    std::uint32_t gen = 1;
  };

  static bool before(const Slot& a, const Slot& b) {
#if defined(__SIZEOF_INT128__)
    // when_ns is never negative (schedule_at clamps to now, and now starts
    // at 0), so (when, aux) compares lexicographically as one unsigned
    // 128-bit key — branchless, which matters in the sift-down best-child
    // tournament where the outcome is data-dependent.
    const auto key = [](const Slot& s) {
      return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(s.when_ns)) << 64) |
             s.aux;
    };
    return key(a) < key(b);
#else
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.aux < b.aux;  // seq lives in the high bits
#endif
  }

  // Callback storage is chunked so Event addresses are stable for the
  // lifetime of their node: step() can invoke a callback in place (no
  // move-out) even if the callback schedules enough new events to grow the
  // pool mid-dispatch.
  static constexpr std::size_t kChunkShift = 8;  // 256 Events per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  Event& cb_ref(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  std::uint32_t acquire_node() {
    if (free_head_ != kNoPos) {
      const std::uint32_t idx = free_head_;
      free_head_ = meta_[idx].heap_pos;  // freelist link; place() overwrites
      return idx;
    }
    assert(meta_.size() <= kNodeMask && "more than 2^24 concurrently pending events");
    if (meta_.size() == chunks_.size() * kChunkSize) {
      chunks_.emplace_back(new Event[kChunkSize]);
    }
    meta_.emplace_back();
    return static_cast<std::uint32_t>(meta_.size() - 1);
  }

  void release_node(std::uint32_t idx) {
    NodeMeta& m = meta_[idx];
    cb_ref(idx) = Event{};
    ++m.gen;  // invalidate every outstanding EventId for this node
    m.heap_pos = free_head_;
    free_head_ = idx;
  }

  void place(std::size_t pos, const Slot& slot) {
    heap_[pos] = slot;
    meta_[slot.node()].heap_pos = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos, Slot slot) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!before(slot, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, slot);
  }

  // 4-ary layout: children of i are 4i+1..4i+4, parent is (i-1)/4. Wider
  // nodes halve the tree depth vs. a binary heap and keep the sift-down
  // working set inside one or two cache lines of 16-byte slots. Defined
  // inline so pop_root()/step() compile into the caller's TU.
  void sift_down(std::size_t pos, Slot slot) {
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first_child = 4 * pos + 1;
      if (first_child >= size) break;
      std::size_t best = first_child;
      const std::size_t last_child = first_child + 4 < size ? first_child + 4 : size;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], slot)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, slot);
  }

  /// The heap position of `id`'s event, or kNoPos when it is not pending
  /// (invalid, fired, cancelled, or stale for a recycled node).
  std::uint32_t pending_pos(EventId id) const;

  /// Put `slot` at `pos` and sift it whichever way its new neighbourhood
  /// needs.
  void reseat(std::size_t pos, const Slot& slot);

  void remove_at(std::size_t pos);

  /// remove_at(0) without the interior-position checks — the hot pop path.
  void pop_root() {
    const Slot last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  TimePoint now_;
  std::size_t heap_high_water_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::vector<Slot> heap_;
  std::vector<std::unique_ptr<Event[]>> chunks_;  // node pool: stable callback storage
  std::vector<NodeMeta> meta_;  // node pool: heap backref / generation / freelist
  std::uint32_t free_head_ = kNoPos;
};

}  // namespace stob::sim
