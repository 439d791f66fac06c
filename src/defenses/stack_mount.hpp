// In-stack mounting of streaming defense policies.
//
// SegmentMount adapts a defenses::Policy to the core::Policy hook the
// transport consults for every data segment (tcp_connection.cpp's
// emit_segment), so schedule/size-deciding policies from the zoo run *in
// the stack*: their delay decisions become EDT departure timestamps the fq
// qdisc enforces, and their size decisions bound the wire MSS the NIC
// splits to. Wrap the mount in core::CcaGuard to get the paper's
// never-more-aggressive clamp.
//
// Mapping: each segment the transport is about to send is presented to the
// streaming policy as one PacketEvent (time = the CCA's departure, size =
// the first wire packet of the segment). The first non-dummy emission
// carries the decision — its extra delay shifts the departure, its size
// caps the wire MSS. Dummy emissions cannot be originated at this hook:
// the transport owns sequence space, so injecting payloadless packets here
// would corrupt the stream. They are counted (dummy_suppressed()) and left
// to the padding locus the paper assigns them — TLS record padding
// (stack::TlsConfig::pad_to) or the trace/proxy driver, both of which sit
// where padding bytes are representable. Obs taps are preserved: the mount
// sits above the TCP/qdisc/NIC/wire tap points, which record the enforced
// result.
//
// Only decisions made per event act here. A policy that emits nothing until
// finish() — "combined"'s ChainPolicy, BuFLO and Tamaraw (baselines.hpp) —
// leaves every segment to the 1 ms queued-payload deferral in on_segment(),
// and FRONT's dummies, emitted in finish(), never reach the wire.
// policy_zoo() lists the registry rows built for mounting.
#pragma once

#include <memory>

#include "core/policy.hpp"
#include "defenses/policy.hpp"

namespace stob::defenses {

class SegmentMount final : public core::Policy {
 public:
  /// `seed` feeds the policy's begin() generator; per-job callers should
  /// pass a job-derived seed (e.g. exp::job_seed output).
  SegmentMount(std::unique_ptr<defenses::Policy> inner, std::uint64_t seed)
      : inner_(std::move(inner)), seed_(seed), rng_(seed) {}

  core::SegmentDecision on_segment(const core::SegmentContext& ctx) override;
  void on_flow_start(const net::FlowKey& flow) override;
  void on_flow_end(const net::FlowKey& flow) override;
  std::string name() const override { return "mount(" + inner_->name() + ")"; }
  /// The inner streaming policy is keyed by name only (defenses::Policy has
  /// no config string), which is exact for make_policy(name) instances with
  /// their default configs; the begin() seed is keyed here.
  std::string config() const override {
    return "mount(" + inner_->name() + ",seed=" + std::to_string(seed_) + ")";
  }

  /// Dummy emissions the hook had to drop (padding belongs to the TLS
  /// locus; a nonzero count says the policy wanted in-stack padding).
  std::uint64_t dummy_suppressed() const { return dummy_suppressed_; }

 private:
  std::unique_ptr<defenses::Policy> inner_;
  std::uint64_t seed_;
  Rng rng_;
  std::vector<PacketOut> scratch_;
  std::uint64_t dummy_suppressed_ = 0;
  bool streaming_ = false;
  double last_event_time_ = 0.0;
};

}  // namespace stob::defenses
