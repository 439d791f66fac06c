// Stack-wide flight recorder.
//
// The paper's core claim is that app-layer packet-sequence intent is
// destroyed *between* layers: socket buffering defers writes, the CCA and
// fq qdisc reschedule departures, and TSO splits super-segments into
// line-rate micro-bursts. This module records one PacketEvent at every
// layer boundary a packet crosses (TLS record -> TCP/QUIC segment -> qdisc
// -> NIC/TSO -> wire), so the distortion each layer introduces becomes a
// queryable signal rather than a one-off bench observation.
//
// Recording is opt-in via a thread-local slot: with no recorder installed
// every hook is a single (TLS) pointer load and branch — no allocation, no
// formatting — so Tier-1 bench numbers are unaffected. Each simulator runs
// on one thread, so the slot needs no atomics; making it thread-local (vs
// the former process-global) lets the parallel experiment engine (src/exp/)
// give every worker its own recorder without any hook-site locking. The
// single-threaded fast path is unchanged: one load plus one branch.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

namespace stob::obs {

/// Stack layer a packet event was observed at, in top-to-bottom order.
enum class Layer : std::uint8_t { App, Tls, Tcp, Quic, Qdisc, Nic, Wire };

enum class Direction : std::uint8_t { Tx, Rx };

enum class EventKind : std::uint8_t {
  Send,        ///< unit emitted by the layer (record sealed, segment built, ...)
  Receive,     ///< unit delivered upward by the layer
  Retransmit,  ///< transport re-emission of already-sent bytes
  Enqueue,     ///< accepted into a queue (qdisc)
  Dequeue,     ///< released from a queue (post-pacing)
  Drop,        ///< discarded at a queue limit
};

std::string_view to_string(Layer layer);
std::string_view to_string(Direction dir);
std::string_view to_string(EventKind kind);

/// One observation of a packet (or record/segment) at a layer boundary.
struct PacketEvent {
  TimePoint time;
  net::FlowKey flow;
  Layer layer = Layer::App;
  Direction dir = Direction::Tx;
  EventKind kind = EventKind::Send;
  std::int64_t bytes = 0;       ///< transport payload bytes of the unit
  std::uint64_t seq = 0;        ///< stream offset (TLS/TCP) or packet number (QUIC)
  std::uint64_t packet_id = 0;  ///< net::Packet::id where one exists

  friend bool operator==(const PacketEvent&, const PacketEvent&) = default;
};

/// Bounded ring buffer of PacketEvents. When full, the oldest events are
/// overwritten (flight-recorder semantics): the tail of a run is always
/// retained, and capacity bounds memory for arbitrarily long simulations.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  void record(const PacketEvent& ev);

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const;                     ///< events currently held
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t overwritten() const;            ///< events lost to wraparound
  void clear();

  /// Snapshot of the held events, oldest first.
  std::vector<PacketEvent> events() const;

  // ---- exporters ----
  void write_csv(const std::filesystem::path& path) const;
  void write_jsonl(const std::filesystem::path& path) const;
  /// The JSONL export as one in-memory string (exactly the bytes
  /// write_jsonl would emit). The golden-trace corpus hashes this.
  std::string to_jsonl() const;

  static csv::Row csv_header();
  static csv::Row to_csv_row(const PacketEvent& ev);
  /// Inverse of to_csv_row; nullopt on malformed rows (used by round-trip
  /// tests and offline analysis of exported traces).
  static std::optional<PacketEvent> from_csv_row(const csv::Row& row);
  static std::string to_json(const PacketEvent& ev);

 private:
  std::vector<PacketEvent> buf_;
  std::size_t head_ = 0;     // next write position
  std::uint64_t total_ = 0;  // lifetime record() count
};

// ---------------------------------------------------------------- install

namespace detail {
extern constinit thread_local TraceRecorder* g_recorder;  // nullptr = tracing disabled
}  // namespace detail

/// Recorder installed on the calling thread, or nullptr. The disabled fast
/// path at every hook site is exactly this load plus a branch.
inline TraceRecorder* recorder() noexcept { return detail::g_recorder; }

/// Install (or, with nullptr, remove) the calling thread's recorder.
void install_recorder(TraceRecorder* r) noexcept;

/// RAII installation for a scope (a test, one page load, one experiment job)
/// on the calling thread. Restores the previously installed recorder on
/// destruction. Worker threads in the experiment engine use this to give
/// each job an isolated sink.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(TraceRecorder& r) : prev_(recorder()) { install_recorder(&r); }
  ~ScopedRecorder() { install_recorder(prev_); }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  TraceRecorder* prev_;
};

// ---------------------------------------------------------------- listener
//
// A second, independent tap: where TraceRecorder passively stores events
// for later export, a StackListener reacts to them as they happen. The
// fault layer's StackInvariantChecker (src/fault/invariants.hpp) is the
// canonical implementation: it cross-checks every event against the
// stack's safety invariants while a simulation runs. Same thread-local
// discipline as the recorder slot: no listener installed = one pointer
// load and a branch per hook.

/// Queue whose occupancy is being reported to the listener.
enum class QueueKind : std::uint8_t {
  QdiscBacklog,  ///< qdisc backlog, bytes
  NicRing,       ///< NIC tx ring occupancy, bytes
};

/// Impairment the fault layer applied to a packet (see src/fault/).
enum class FaultKind : std::uint8_t { Loss, Corrupt, Duplicate, Reorder, Jitter, Flap };

/// One transport emission, annotated with what the CCA alone would have
/// allowed. This is the hook the never-more-aggressive invariant checks:
/// a Stob policy may delay or shrink an emission, never advance or grow it.
struct DepartureEvent {
  net::FlowKey flow;
  TimePoint now;
  TimePoint departure;      ///< chosen earliest-departure time (post-policy)
  TimePoint cca_departure;  ///< earliest time the CCA/pacer alone allows
  std::int64_t bytes = 0;          ///< payload bytes emitted
  std::int64_t cca_segment = 0;    ///< segment size before policy shaping
  std::int64_t cwnd = 0;           ///< congestion window at emission, bytes
  std::int64_t inflight = 0;       ///< bytes in flight *before* this emission
  /// Emission may exceed `inflight + bytes <= cwnd` by this many bytes
  /// (e.g. QUIC admits a packet whenever inflight < cwnd).
  std::int64_t cwnd_slack = 0;
  bool window_limited = false;     ///< emission was subject to the cwnd check
  bool is_retransmission = false;
};

/// Observer of stack activity on the current thread. All methods are called
/// synchronously from hook sites; implementations must not re-enter the
/// stack.
class StackListener {
 public:
  virtual ~StackListener() = default;
  virtual void on_packet(const PacketEvent& ev) = 0;
  virtual void on_departure(const DepartureEvent& ev) = 0;
  /// Cumulative ACK advanced: `una` is the new lowest unacked offset
  /// (TCP stream offset semantics).
  virtual void on_ack_advance(const net::FlowKey& flow, std::uint64_t una) = 0;
  virtual void on_queue_depth(QueueKind kind, std::int64_t depth, std::int64_t bound) = 0;
  virtual void on_fault(FaultKind kind, const net::Packet& p, TimePoint now) = 0;
};

namespace detail {
extern constinit thread_local StackListener* g_listener;  // nullptr = no listener
}  // namespace detail

inline StackListener* listener() noexcept { return detail::g_listener; }

/// Install (or, with nullptr, remove) the calling thread's listener.
void install_listener(StackListener* l) noexcept;

/// RAII listener installation, mirroring ScopedRecorder.
class ScopedListener {
 public:
  explicit ScopedListener(StackListener& l) : prev_(listener()) { install_listener(&l); }
  ~ScopedListener() { install_listener(prev_); }
  ScopedListener(const ScopedListener&) = delete;
  ScopedListener& operator=(const ScopedListener&) = delete;

 private:
  StackListener* prev_;
};

inline void note_departure(const DepartureEvent& ev) {
  if (StackListener* l = detail::g_listener) l->on_departure(ev);
}

inline void note_ack_advance(const net::FlowKey& flow, std::uint64_t una) {
  if (StackListener* l = detail::g_listener) l->on_ack_advance(flow, una);
}

inline void note_queue_depth(QueueKind kind, std::int64_t depth, std::int64_t bound) {
  if (StackListener* l = detail::g_listener) l->on_queue_depth(kind, depth, bound);
}

inline void note_fault(FaultKind kind, const net::Packet& p, TimePoint now) {
  if (StackListener* l = detail::g_listener) l->on_fault(kind, p, now);
}

/// Record an observation of `p` if a recorder is installed. seq is taken
/// from the transport header (TCP stream offset / QUIC packet number).
inline void record_packet(Layer layer, Direction dir, EventKind kind, const net::Packet& p,
                          TimePoint now) {
  TraceRecorder* r = detail::g_recorder;
  StackListener* l = detail::g_listener;
  if (r == nullptr && l == nullptr) return;
  PacketEvent ev;
  ev.time = now;
  ev.flow = p.flow;
  ev.layer = layer;
  ev.dir = dir;
  ev.kind = kind;
  ev.bytes = p.payload.count();
  ev.seq = p.is_tcp() ? p.tcp().seq : p.quic().packet_number;
  ev.packet_id = p.id;
  if (r != nullptr) r->record(ev);
  if (l != nullptr) l->on_packet(ev);
}

}  // namespace stob::obs
