// Stob policy interface — the paper's core contribution (§4).
//
// A Policy is consulted by the transport at the exact points where the
// decisions WF defenses need to control are made:
//
//   * the TSO super-segment size (how much data goes down in one stack
//     traversal — controls burst granularity),
//   * the wire packet size (the per-packet payload the NIC splits to —
//     normally MSS/PMTU),
//   * the departure time (normally the CCA pacing schedule).
//
// The transport proposes what congestion control / autosizing would do
// (`SegmentContext`) and the policy returns what should actually happen
// (`SegmentDecision`). Wrapping any policy in CcaGuard (cca_guard.hpp)
// enforces the paper's safety rule: the obfuscated flow must never be more
// aggressive than the CCA's own schedule.
#pragma once

#include <memory>
#include <string>

#include "net/packet.hpp"
#include "util/units.hpp"

namespace stob::core {

/// What the transport was about to do with the next segment.
struct SegmentContext {
  net::FlowKey flow;
  TimePoint now;
  std::uint64_t stream_offset = 0;  ///< first byte of the segment
  Bytes cca_segment;                ///< TSO super-segment size chosen by autosizing
  Bytes mss;                        ///< wire packet payload size in effect
  TimePoint cca_departure;          ///< departure time the CCA pacing assigned
  DataRate cca_pacing_rate;         ///< current CCA pacing rate (0 = unpaced)
  bool is_retransmission = false;
};

/// What should actually be sent.
struct SegmentDecision {
  Bytes segment;      ///< possibly reduced super-segment size (>= 1 byte)
  Bytes wire_mss;     ///< possibly reduced per-wire-packet payload
  TimePoint departure;

  /// Identity decision: exactly what the CCA wanted.
  static SegmentDecision passthrough(const SegmentContext& ctx) {
    return SegmentDecision{ctx.cca_segment, ctx.mss, ctx.cca_departure};
  }
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual SegmentDecision on_segment(const SegmentContext& ctx) = 0;

  /// Lifecycle notifications (per-flow state setup/teardown).
  virtual void on_flow_start(const net::FlowKey& /*flow*/) {}
  virtual void on_flow_end(const net::FlowKey& /*flow*/) {}

  virtual std::string name() const = 0;

  /// Canonical config string, the policy's part of the result-cache key
  /// (exp::run_config_salt): name() followed by every parameter that shapes
  /// decisions, doubles as exact bit patterns. Policies with equal config()
  /// decide identically on identical input, so a changed parameter can
  /// never be served a cell cached under the old one. Parameterless
  /// policies keep this default.
  virtual std::string config() const { return name(); }
};

/// A double as its exact bit pattern (16 hex digits), the form config()
/// strings and exp::run_config_salt write doubles in: formatting would
/// alias nearby values, and cache keys need equality, not readability.
std::string config_bits(double d);

/// No-op policy: stack behaves exactly as an unmodified host.
class NullPolicy final : public Policy {
 public:
  SegmentDecision on_segment(const SegmentContext& ctx) override {
    return SegmentDecision::passthrough(ctx);
  }
  std::string name() const override { return "null"; }
};

}  // namespace stob::core
