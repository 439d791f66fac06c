// Differential test: sim::Simulator vs. a naive reference scheduler.
//
// The reference keeps events in a plain vector and fires the (when, seq)
// minimum by linear scan — slow, but so simple it is obviously correct.
// Both schedulers are driven through identical seeded op scripts (schedule,
// schedule_after, past-time clamping, same-tick bursts, cancellation —
// including cancel-after-fire and cancel/schedule from inside a firing
// callback — keys reserved now and scheduled later, also from inside a
// firing callback, and re-arms in place, which the reference does as a
// cancel plus a fresh schedule of the same callback) and must produce the
// identical firing log, clock, pending count, cancel count and re-arm
// results. Any event-loop replacement has to pass this before the
// golden-trace corpus even gets a say.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace stob::sim {
namespace {

// ------------------------------------------------------------- reference

class ReferenceScheduler {
 public:
  struct Id {
    std::uint64_t seq = 0;  // 0 = invalid
  };
  /// The key is assigned at reservation, exactly as schedule_at would.
  struct Ticket {
    TimePoint at;
    std::uint64_t seq = 0;
    TimePoint when() const { return at; }
  };

  TimePoint now() const { return now_; }

  Id schedule_at(TimePoint when, std::function<void()> cb) {
    if (when < now_) when = now_;
    entries_.push_back(Entry{when, next_seq_, std::move(cb)});
    return Id{next_seq_++};
  }

  Id schedule_after(Duration delay, std::function<void()> cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  Ticket reserve_at(TimePoint when) {
    if (when < now_) when = now_;
    return Ticket{when, next_seq_++};
  }

  Ticket reserve_after(Duration delay) { return reserve_at(now_ + delay); }

  Id schedule_at(const Ticket& key, std::function<void()> cb) {
    entries_.push_back(Entry{key.at, key.seq, std::move(cb)});
    return Id{key.seq};
  }

  void cancel(Id id) {
    const std::size_t i = find(id);
    if (i == entries_.size()) return;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    ++cancelled_;
  }

  /// Cancel plus a fresh schedule of the same callback; `id` follows the
  /// event to its new sequence number.
  bool reschedule(Id& id, TimePoint when) {
    const std::size_t i = find(id);
    if (i == entries_.size()) return false;
    std::function<void()> cb = std::move(entries_[i].cb);
    cancel(id);
    id = schedule_at(when, std::move(cb));
    return true;
  }

  bool step(TimePoint until = TimePoint::max()) {
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (best == entries_.size() || entries_[i].when < entries_[best].when ||
          (entries_[i].when == entries_[best].when && entries_[i].seq < entries_[best].seq)) {
        best = i;
      }
    }
    if (best == entries_.size() || entries_[best].when > until) return false;
    Entry entry = std::move(entries_[best]);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(best));
    now_ = entry.when;
    ++executed_;
    entry.cb();
    return true;
  }

  std::size_t run(TimePoint until = TimePoint::max()) {
    std::size_t n = 0;
    while (step(until)) ++n;
    if (now_ < until && until != TimePoint::max()) now_ = until;
    return n;
  }

  std::size_t pending() const { return entries_.size(); }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t cancelled() const { return cancelled_; }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq = 0;
    std::function<void()> cb;
  };

  /// The entry's index, or entries_.size() when `id` is not pending.
  std::size_t find(Id id) const {
    for (std::size_t i = 0; id.seq != 0 && i < entries_.size(); ++i) {
      if (entries_[i].seq == id.seq) return i;
    }
    return entries_.size();
  }

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------- driver
//
// One deterministic op script drives both schedulers. Every scheduled
// event carries a token; firing appends (token, now) to the log, and the
// token also decides nested in-callback actions (schedule a child, cancel
// or re-arm a tracked id, reserve a key, schedule a reserved key, or
// nothing) so re-entrant behaviour is exercised from inside the dispatch
// path itself. A re-arm may pick the id of the event that is firing, which
// is no longer pending and must be refused.
//
// Reserved keys wait in `tickets` until an op schedules one. A key whose
// time the clock has passed can no longer be scheduled (the simulator
// asserts it), so such keys are dropped unscheduled, as an owner that
// gave up on them would.

constexpr std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

template <typename Sched, typename Id, typename Ticket>
class Harness {
 public:
  std::vector<std::pair<std::uint64_t, std::int64_t>> log;  // (token, fire time)
  std::vector<std::int64_t> clock_probe;                    // now() after each op
  std::vector<std::size_t> pending_probe;                   // pending() after each op
  std::vector<bool> rearm_log;                              // every reschedule()'s result

  void apply(std::uint64_t op_rand, std::uint64_t token) {
    switch (op_rand % 14) {
      case 0:  // absolute schedule, possibly into the past (clamped to now)
        track(sched.schedule_at(TimePoint(sched.now().ns() + delta(op_rand) - 300),
                                make_cb(token)));
        break;
      case 1:
      case 2:
      case 3:  // future relative schedule (the common transport pattern)
        track(sched.schedule_after(Duration(delta(op_rand)), make_cb(token)));
        break;
      case 4: {  // same-tick burst with FIFO tie-break
        const TimePoint at = TimePoint(sched.now().ns() + 97);
        for (std::uint64_t i = 0; i < 4; ++i) {
          track(sched.schedule_at(at, make_cb(token * 16 + i)));
        }
        break;
      }
      case 5:
      case 6: {  // cancel a tracked id: may be live, fired, or re-cancelled
        if (!ids.empty()) sched.cancel(ids[mix(op_rand) % ids.size()]);
        break;
      }
      case 7:  // bounded run
        sched.run(TimePoint(sched.now().ns() + static_cast<std::int64_t>(op_rand % 2000)));
        break;
      case 8:  // single step
        sched.step();
        break;
      case 9:  // drain everything currently scheduled
        sched.run();
        break;
      case 10:  // reserve a key now (delta may be 0: a same-tick key)
        tickets.push_back(sched.reserve_after(Duration(delta(op_rand) % 400)));
        break;
      case 11:  // reserve into the same tick the burst op uses: ties on `when`
        tickets.push_back(sched.reserve_at(TimePoint(sched.now().ns() + 97)));
        break;
      case 12:  // re-arm a tracked id, earlier or later, possibly into the past
        rearm(op_rand, TimePoint(sched.now().ns() + delta(op_rand) - 300));
        break;
      default:  // schedule a reserved key, oldest first (an arrival lane)
        schedule_reserved(0, token);
        break;
    }
    clock_probe.push_back(sched.now().ns());
    pending_probe.push_back(sched.pending());
  }

  void drain() { sched.run(); }

  Sched sched;

 private:
  std::vector<Id> ids;
  std::vector<Ticket> tickets;

  static std::int64_t delta(std::uint64_t r) { return static_cast<std::int64_t>(mix(r) % 1500); }

  void track(Id id) { ids.push_back(id); }

  /// Whether a callback may still add events. Token cycles can make nested
  /// schedules branch, so both the log and the queue are bounded; the
  /// reference's linear scan makes a deep queue slow.
  bool room() const { return log.size() < 60000 && sched.pending() < 1000; }

  /// Re-arm one of the last eight tracked ids (older ones have mostly
  /// fired): it may be live, fired, cancelled, or the event now firing.
  void rearm(std::uint64_t pick, TimePoint when) {
    if (ids.empty()) return;
    const std::size_t back = mix(pick) % std::min<std::size_t>(ids.size(), 8);
    rearm_log.push_back(sched.reschedule(ids[ids.size() - 1 - back], when));
  }

  /// Schedule the reserved key at `pick` (mod the count) after dropping
  /// the keys whose time has passed.
  void schedule_reserved(std::uint64_t pick, std::uint64_t token) {
    std::erase_if(tickets, [&](const Ticket& t) { return t.when() < sched.now(); });
    if (tickets.empty()) return;
    const auto at = tickets.begin() + static_cast<std::ptrdiff_t>(pick % tickets.size());
    const Ticket key = *at;
    tickets.erase(at);
    track(sched.schedule_at(key, make_cb(token ^ 0x7E7Eull)));
  }

  std::function<void()> make_cb(std::uint64_t token) {
    return [this, token] {
      log.emplace_back(token, sched.now().ns());
      // Nested action decided by the token: exercises schedule-from-callback
      // and cancel-while-dispatching on both schedulers identically.
      const std::uint64_t h = mix(token);
      if (h % 5 == 0 && room()) {
        track(sched.schedule_after(Duration(static_cast<std::int64_t>(h % 700)),
                                   make_cb(token ^ 0xABCDull)));
      } else if (h % 5 == 1 && !ids.empty()) {
        sched.cancel(ids[h % ids.size()]);
      } else if (h % 5 == 2 && room()) {
        // Re-entrant same-tick schedule: must fire later in this same run,
        // after already-queued same-tick events (FIFO by seq).
        track(sched.schedule_at(sched.now(), make_cb(token ^ 0x5A5Aull)));
      } else if (h % 5 == 3) {
        // Re-entrant re-arm, often to this very tick.
        rearm(h, TimePoint(sched.now().ns() + static_cast<std::int64_t>(h % 4) * 60));
      }
      // Independently: reserve a key from inside the dispatch (often for
      // this very tick), or schedule one reserved earlier.
      const std::uint64_t g = mix(h) % 7;
      if (g == 0 && room()) {
        tickets.push_back(sched.reserve_after(Duration(static_cast<std::int64_t>(h % 3) * 50)));
      } else if (g == 1 && room()) {
        schedule_reserved(h >> 7, token);
      }
    };
  }
};

void run_differential(std::uint64_t seed, int ops) {
  Harness<Simulator, EventId, Ticket> fast;
  Harness<ReferenceScheduler, ReferenceScheduler::Id, ReferenceScheduler::Ticket> ref;
  std::uint64_t r = seed;
  for (int i = 0; i < ops; ++i) {
    r = mix(r ^ static_cast<std::uint64_t>(i));
    const std::uint64_t token = (static_cast<std::uint64_t>(i) << 8) | (seed & 0xFF);
    fast.apply(r, token);
    ref.apply(r, token);
    // The clock and the pending count must agree after *every* op, so a
    // divergence is pinned to the op that introduced it.
    ASSERT_EQ(fast.clock_probe.back(), ref.clock_probe.back())
        << "clock diverged after op " << i << " (seed " << seed << ")";
    ASSERT_EQ(fast.pending_probe.back(), ref.pending_probe.back())
        << "pending() diverged after op " << i << " (seed " << seed << ")";
  }
  fast.drain();
  ref.drain();
  ASSERT_EQ(fast.log.size(), ref.log.size()) << "seed " << seed;
  for (std::size_t i = 0; i < fast.log.size(); ++i) {
    ASSERT_EQ(fast.log[i], ref.log[i]) << "firing log diverged at entry " << i << " (seed "
                                       << seed << ")";
  }
  EXPECT_EQ(fast.rearm_log, ref.rearm_log) << "seed " << seed;
  EXPECT_EQ(fast.sched.executed(), ref.sched.executed());
  EXPECT_EQ(fast.sched.cancelled(), ref.sched.cancelled());
  EXPECT_EQ(fast.sched.now().ns(), ref.sched.now().ns());
}

TEST(SimulatorDifferential, TenThousandRandomOpsSeed1) { run_differential(0xA11CEull, 10000); }
TEST(SimulatorDifferential, TenThousandRandomOpsSeed2) { run_differential(0xB0Bull, 10000); }
TEST(SimulatorDifferential, TenThousandRandomOpsSeed3) { run_differential(0xCAFE5EEDull, 10000); }
TEST(SimulatorDifferential, ShortScriptsManySeeds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) run_differential(seed * 7919, 400);
}

// Directed scenario: cancel an event from a callback firing at the same
// tick, where the victim is already in the dispatch window.
TEST(SimulatorDifferential, CancelWhileDispatchingSameTick) {
  Simulator fast;
  ReferenceScheduler ref;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> fast_log, ref_log;
    const TimePoint at = TimePoint(1000 * (trial + 1));

    std::vector<EventId> fast_ids(4);
    std::vector<ReferenceScheduler::Id> ref_ids(4);
    const int victim = trial % 4;
    fast_ids[0] = fast.schedule_at(at, [&] {
      fast_log.push_back(0);
      fast.cancel(fast_ids[static_cast<std::size_t>(victim)]);
    });
    ref_ids[0] = ref.schedule_at(at, [&] {
      ref_log.push_back(0);
      ref.cancel(ref_ids[static_cast<std::size_t>(victim)]);
    });
    for (int i = 1; i < 4; ++i) {
      fast_ids[static_cast<std::size_t>(i)] = fast.schedule_at(at, [&, i] { fast_log.push_back(i); });
      ref_ids[static_cast<std::size_t>(i)] = ref.schedule_at(at, [&, i] { ref_log.push_back(i); });
    }
    fast.run();
    ref.run();
    ASSERT_EQ(fast_log, ref_log) << "victim " << victim;
    ASSERT_EQ(fast.pending(), ref.pending());
  }
}

// Directed scenario: a re-arm takes a fresh sequence number, so an event
// moved onto a busy tick fires after the events already there; it may move
// earlier or later, clamps a past time to now, keeps its id valid, and
// counts one cancel each time.
TEST(SimulatorReschedule, RearmOrdersAsCancelPlusScheduleAndCountsOneCancel) {
  Simulator sim;
  std::vector<char> log;
  const EventId a = sim.schedule_at(TimePoint(100), [&] { log.push_back('a'); });
  sim.schedule_at(TimePoint(100), [&] { log.push_back('b'); });
  const EventId c = sim.schedule_at(TimePoint(50), [&] { log.push_back('c'); });
  const EventId d = sim.schedule_at(TimePoint(60), [&] { log.push_back('d'); });
  sim.run(TimePoint(20));

  EXPECT_TRUE(sim.reschedule(a, TimePoint(100)));  // same time, behind b now
  EXPECT_TRUE(sim.reschedule(c, TimePoint(200)));  // later: sifts down
  EXPECT_TRUE(sim.reschedule(c, TimePoint(5)));    // in the past: clamped to now
  EXPECT_EQ(sim.cancelled(), 3u);
  EXPECT_EQ(sim.pending(), 4u);
  sim.cancel(d);  // ids stay valid across re-arms of other events
  EXPECT_TRUE(sim.reschedule(a, TimePoint(100)));  // and across their own
  EXPECT_EQ(sim.cancelled(), 5u);
  sim.run();
  EXPECT_EQ(log, (std::vector<char>{'c', 'b', 'a'}));
  EXPECT_EQ(sim.executed(), 3u);
  EXPECT_EQ(sim.heap_high_water(), 4u);
}

// Directed scenario: an id that is not pending — default, fired, cancelled,
// or stale for a node that now holds another event — is refused and
// touches nothing: no cancel is counted and the new occupant keeps its
// time.
TEST(SimulatorReschedule, RefusesIdsThatAreNotPending) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  EXPECT_FALSE(sim.reschedule(EventId(), TimePoint(10)));
  const EventId done = sim.schedule_at(TimePoint(10), [&] { fired.push_back(sim.now().ns()); });
  sim.run();
  const EventId dropped = sim.schedule_at(TimePoint(20), [&] { fired.push_back(-1); });
  sim.cancel(dropped);
  // The freelist hands the node of `done` and `dropped` to this event.
  sim.schedule_at(TimePoint(30), [&] { fired.push_back(sim.now().ns()); });
  const std::uint64_t cancelled = sim.cancelled();

  EXPECT_FALSE(sim.reschedule(done, TimePoint(15)));
  EXPECT_FALSE(sim.reschedule(dropped, TimePoint(15)));
  EXPECT_EQ(sim.cancelled(), cancelled);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 30}));
}

// Directed scenario: the event now running is no longer pending, so a
// callback that re-arms its own id is refused (it must schedule anew, as
// the NIC's wakeup and the transport timers do).
TEST(SimulatorReschedule, CallbackCannotRearmItsOwnId) {
  Simulator sim;
  EventId self;
  bool rearmed = true;
  self = sim.schedule_at(TimePoint(5), [&] { rearmed = sim.reschedule(self, TimePoint(50)); });
  sim.run();
  EXPECT_FALSE(rearmed);
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.cancelled(), 0u);
}

// Directed scenario: a key reserved before plain same-tick schedules fires
// before them, even when it is scheduled last — and a key reserved inside a
// callback for the current tick fires in this tick, after the events that
// were already queued for it.
TEST(SimulatorDifferential, ReservedKeysKeepTheirPlaceInSameTickTies) {
  Simulator fast;
  ReferenceScheduler ref;
  std::vector<int> fast_log, ref_log;
  const TimePoint at(5000);

  const Ticket fast_key = fast.reserve_at(at);
  const ReferenceScheduler::Ticket ref_key = ref.reserve_at(at);
  Ticket fast_inner;
  ReferenceScheduler::Ticket ref_inner;
  fast.schedule_at(at, [&] {
    fast_log.push_back(1);
    fast_inner = fast.reserve_after(Duration());
  });
  ref.schedule_at(at, [&] {
    ref_log.push_back(1);
    ref_inner = ref.reserve_after(Duration());
  });
  fast.schedule_at(at, [&] {
    fast_log.push_back(2);
    fast.schedule_at(fast_inner, [&] { fast_log.push_back(4); });
  });
  ref.schedule_at(at, [&] {
    ref_log.push_back(2);
    ref.schedule_at(ref_inner, [&] { ref_log.push_back(4); });
  });
  fast.schedule_at(at, [&] { fast_log.push_back(3); });
  ref.schedule_at(at, [&] { ref_log.push_back(3); });
  fast.schedule_at(fast_key, [&] { fast_log.push_back(0); });
  ref.schedule_at(ref_key, [&] { ref_log.push_back(0); });
  EXPECT_EQ(fast.pending(), 4u);

  fast.run();
  ref.run();
  EXPECT_EQ(fast_log, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(fast_log, ref_log);
  EXPECT_EQ(fast.now(), at);
  EXPECT_EQ(fast.executed(), ref.executed());
}

// Directed scenario: the arrival-lane pattern. Keys are reserved in rising
// order; only the oldest is ever scheduled, and its callback schedules the
// next. Plain events interleave at the same times, and the firing order
// must equal the one where every key was scheduled when reserved.
TEST(SimulatorDifferential, ChainedReservedKeysMatchEagerSchedules) {
  Simulator lane;
  Simulator eager;
  std::vector<int> lane_log, eager_log;
  std::vector<Ticket> keys;
  std::size_t next = 0;
  std::function<void()> fire_head = [&] {
    lane_log.push_back(static_cast<int>(next));
    if (++next < keys.size()) lane.schedule_at(keys[next], fire_head);
  };
  for (int i = 0; i < 12; ++i) {
    const TimePoint when(100 * (i / 3));  // three keys per tick
    keys.push_back(lane.reserve_at(when));
    eager.schedule_at(when, [&, i] { eager_log.push_back(i); });
    lane.schedule_at(when, [&, i] { lane_log.push_back(100 + i); });
    eager.schedule_at(when, [&, i] { eager_log.push_back(100 + i); });
  }
  lane.schedule_at(keys[0], fire_head);
  EXPECT_EQ(lane.pending(), 13u);
  lane.run();
  eager.run();
  EXPECT_EQ(lane_log, eager_log);
  EXPECT_EQ(lane.executed(), eager.executed());
}

}  // namespace
}  // namespace stob::sim
