// Modular defense-policy interface: packet events in, schedule/pad/delay
// decisions out.
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
//     experiment grid's defense axis evaluates it, or
//   * mounted at the in-stack TCP segment hook via defenses::SegmentMount
//     (stack_mount.hpp), where its delay/size decisions are enforced by the
//     transport and clamped by core::CcaGuard.
//
// Determinism contract: all randomness flows through the Rng handed to
// begin() — the experiment engine passes the job-seeded generator, so a
// policy's output is a pure function of (job seed, input events). Policies
// that need stream-order-independent draws fork the generator in begin();
// the migrated split/delay baselines deliberately draw from the job Rng in
// event order so their output is byte-identical to the pre-interface trace
// transforms (the migration gate tests/test_policy_parity.cpp pins).
//
// Obs taps are untouched by construction: trace replay happens after the
// simulated stack ran (recorder/metrics sinks already captured the load),
// and the stack mount sits behind the existing core::Policy hook, below
// which every obs tap (TLS/TCP/qdisc/NIC/wire) keeps firing.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "defenses/trace_defense.hpp"
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
  /// stream-order-independent randomness.
  virtual void begin(Rng& rng) = 0;

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
/// emissions collected, normalized into a fresh trace. This is the driver
/// the TraceDefense adapter and the parity gate use.
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

/// Adapter: a Policy factory as a TraceDefense, so policy-backed defenses
/// ride the existing experiment-grid defense axis, zoo benches and overhead
/// accounting unchanged. apply() builds a fresh policy per call — the grid
/// shares one TraceDefense across worker threads, and policies are stateful.
class PolicyDefense final : public TraceDefense {
 public:
  using Factory = std::function<std::unique_ptr<Policy>()>;

  struct Meta {
    std::string target = "Stob";
    std::string strategy = "Obfuscation";
    Manipulations manipulations;
  };

  PolicyDefense(std::string name, Meta meta, Factory factory)
      : name_(std::move(name)), meta_(std::move(meta)), factory_(std::move(factory)) {}

  wf::Trace apply(const wf::Trace& trace, Rng& rng) const override;
  std::string name() const override { return name_; }
  std::string target() const override { return meta_.target; }
  std::string strategy() const override { return meta_.strategy; }
  Manipulations manipulations() const override { return meta_.manipulations; }

  /// Build a fresh streaming instance (for stack mounting or custom drivers).
  std::unique_ptr<Policy> make() const { return factory_(); }

 private:
  std::string name_;
  Meta meta_;
  Factory factory_;
};

// ------------------------------------------------------------- registry

/// Named entry of the policy zoo.
struct PolicyInfo {
  std::string name;
  PolicyDefense::Meta meta;
  PolicyDefense::Factory factory;
};

/// All registered streaming policies: the migrated §3 baselines (split,
/// delay, combined) plus the in-stack ports of RegulaTor and full
/// adaptive-padding WTF-PAD.
const std::vector<PolicyInfo>& policy_zoo();

/// Fresh streaming policy by name; throws std::invalid_argument on unknown
/// names (listing the known ones).
std::unique_ptr<Policy> make_policy(std::string_view name);

/// Policy wrapped as a TraceDefense (same lookup rules as make_policy).
std::unique_ptr<TraceDefense> make_policy_defense(std::string_view name);

}  // namespace stob::defenses
