// The defense interface: packet events in, schedule/pad/delay decisions
// out. Every Table 1 row is one of these.
//
// A defenses::Policy is a streaming state machine over one flow's packet
// sequence — the WFDefProxy shape. A caller (trace replay, or the in-stack
// segment mount below) feeds it one PacketEvent per observed packet in
// time order; the policy emits zero or more PacketOut decisions
// per event: forward the packet (possibly later / resized), inject dummy
// padding, or hold data for a scheduled departure. Because the interface
// speaks packet events rather than whole traces, the same policy object can
// be
//   * replayed over a recorded wf::Trace (run_policy), which is how the
//     experiment grid's defense axis, the overhead meter and the prefix
//     scoping below apply every defense, or
//   * mounted at the in-stack TCP segment hook via defenses::SegmentMount
//     (stack_mount.hpp), where its delay/size decisions are enforced by the
//     transport and clamped by core::CcaGuard. The policy zoo is built for
//     this; the literature baselines (baselines.hpp) hold their output until
//     finish() and are replayed only.
//
// The registry (all_defenses) names every row with its Table 1 metadata and
// a factory; run_policy(PolicyInfo) builds a fresh instance per trace.
//
// Determinism contract: all randomness flows through the Rng handed to
// begin() — the experiment engine passes the job-seeded generator, so a
// policy's output is a pure function of (job seed, input events). Policies
// that need stream-order-independent draws fork the generator in begin();
// the migrated split/delay/FRONT policies deliberately draw from the job
// Rng in event order so their output is byte-identical to the whole-trace
// transforms they replaced (the gate tests/test_policy_parity.cpp pins).
//
// Obs taps are untouched by construction: trace replay happens after the
// simulated stack ran (recorder/metrics sinks already captured the load),
// and the stack mount sits behind the existing core::Policy hook, below
// which every obs tap (TLS/TCP/qdisc/NIC/wire) keeps firing.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "wf/trace.hpp"

namespace stob::defenses {

/// One packet event entering a policy, in trace coordinates (seconds since
/// the first packet; +1 = client->server, -1 = server->client).
struct PacketEvent {
  double time = 0.0;
  int direction = 0;
  std::int64_t size = 0;
};

/// One packet the policy decided to put on the wire.
struct PacketOut {
  double time = 0.0;
  int direction = 0;
  std::int64_t size = 0;
  bool dummy = false;  ///< padding packet carrying no payload

  friend bool operator==(const PacketOut&, const PacketOut&) = default;
};

/// Streaming defense policy. Stateful; one instance drives one flow/trace.
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Called once before the first event. `rng` is the job-seeded generator
  /// (the experiment engine forks one per job); it outlives the stream, so
  /// policies may keep the reference and draw lazily, or fork it for
  /// stream-order-independent randomness. The default does nothing.
  virtual void begin(Rng& rng);

  /// One packet observed; append any output packets to `out`.
  virtual void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) = 0;

  /// End of input (`end_time` = last input packet's timestamp). Emit any
  /// queued payload and trailing schedule; policies must never strand real
  /// payload here.
  virtual void finish(double end_time, std::vector<PacketOut>& out);

 protected:
  /// Trace replay, behind run_policy. The default streams `in` through
  /// begin/on_packet/finish and normalizes the emissions. A policy that
  /// buffers the whole stream anyway may override it to work on the trace
  /// directly; the result must be, bit for bit, what the default makes.
  virtual wf::Trace replay(const wf::Trace& in, Rng& rng);

  friend wf::Trace run_policy(Policy& policy, const wf::Trace& in, Rng& rng);
};

/// Replay a recorded trace through a policy: events in capture order,
/// emissions collected, normalized into a fresh trace. This is the one way
/// a defense is applied to a trace.
wf::Trace run_policy(Policy& policy, const wf::Trace& in, Rng& rng);

/// Chain of policies: stage k+1 consumes the normalized output of stage k
/// (exactly how the zoo's "combined" = delay(split(trace)) composes), so
/// timestamp reordering from an earlier stage is resolved before the next
/// stage sees the packets. Stage 0 reads the input in arrival order,
/// un-normalized. Streamed, the chain buffers its input as trace records
/// and runs the stages at finish(). Replayed by run_policy, stage 0 reads
/// the recorded trace itself. Either way the stages share two buffers for
/// the whole run: the records each stage reads, which its normalized output
/// overwrites, and its emissions. No stage builds a trace of its own, and a
/// replay returns the record buffer as the defended trace.
class ChainPolicy final : public Policy {
 public:
  explicit ChainPolicy(std::vector<std::unique_ptr<Policy>> stages)
      : stages_(std::move(stages)) {}

  std::string name() const override;
  void begin(Rng& rng) override;
  void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) override;
  void finish(double end_time, std::vector<PacketOut>& out) override;

 private:
  wf::Trace replay(const wf::Trace& in, Rng& rng) override;
  /// Runs every stage, stage 0 over `input`; leaves the output in trace_.
  void run_stages(const std::vector<wf::PacketRecord>& input, Rng& rng);

  std::vector<std::unique_ptr<Policy>> stages_;
  wf::Trace trace_;  ///< buffered input, then each stage's normalized output
  Rng* rng_ = nullptr;
};

// ------------------------------------------------------------- registry

/// Which traffic manipulation primitives a defense uses (Table 1 columns).
struct Manipulations {
  bool padding = false;      // dummy packets / object padding
  bool timing = false;       // departure-time modification
  bool packet_size = false;  // per-packet size modification

  std::string describe() const;
};

/// Named registry entry: one Table 1 row. `factory` builds a fresh policy;
/// every trace gets its own instance (run_policy below), so one entry may be
/// shared by every worker of a grid.
struct PolicyInfo {
  struct Meta {
    std::string target = "Stob";           ///< protocol the original system targeted
    std::string strategy = "Obfuscation";  ///< or "Regularization"
    Manipulations manipulations;
  };
  using Factory = std::function<std::unique_ptr<Policy>()>;

  std::string name;
  Meta meta;
  Factory factory;
};

/// Every Table 1 row: the literature baselines FRONT, BuFLO, Tamaraw and
/// ALPaCA-pad (baselines.hpp), then the policy zoo.
const std::vector<PolicyInfo>& all_defenses();

/// The policy zoo, the rows the stack mount can enforce: the migrated §3
/// primitives (split, delay, combined) and the in-stack ports of RegulaTor
/// and full adaptive-padding WTF-PAD. The last five rows of all_defenses().
std::span<const PolicyInfo> policy_zoo();

/// Registry row by name; throws std::invalid_argument on unknown names
/// (listing the known ones).
const PolicyInfo& policy_info(std::string_view name);

/// Fresh streaming policy by name (same lookup rules as policy_info).
std::unique_ptr<Policy> make_policy(std::string_view name);

/// Replays `in` through a fresh instance of `defense`.
wf::Trace run_policy(const PolicyInfo& defense, const wf::Trace& in, Rng& rng);

// ------------------------------------------------- overhead and scoping

/// Bandwidth / latency cost of a defended trace relative to the original.
struct Overhead {
  double bandwidth = 0.0;  ///< (defended_bytes - original_bytes) / original_bytes
  double latency = 0.0;    ///< (defended_duration - original_duration) / original_duration
};

Overhead measure_overhead(const wf::Trace& original, const wf::Trace& defended);

/// Mean overhead over (original, defended) pairs: trace i of `defended` is
/// the defended copy of trace i of `original`, however it was made (a trace
/// replay, or a second page load). Throws std::invalid_argument when the
/// sizes differ.
Overhead measure_overhead(const wf::Dataset& original, const wf::Dataset& defended);

/// Applies `defense` to the first `prefix_packets` packets only; the rest of
/// the trace is carried over unmodified (but shifted by any delay the
/// defended prefix accumulated). prefix_packets = 0 means the whole trace.
wf::Trace apply_to_prefix(const PolicyInfo& defense, const wf::Trace& trace,
                          std::size_t prefix_packets, Rng& rng);

}  // namespace stob::defenses
