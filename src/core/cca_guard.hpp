// CcaGuard — the paper's safety rule (§4.2): "Stob must ensure that it does
// not generate more aggressive traffic to the network (e.g., higher pacing
// rate than what CCA desired)."
//
// The guard wraps any policy and clamps its decisions so that
//   * the super-segment never exceeds what the CCA/autosizing chose,
//   * the wire packet size never exceeds the negotiated MSS,
//   * no segment departs before the CCA's pacing schedule would have sent
//     it (departure >= cca_departure).
// Since segment sizes can only shrink and departures can only move later,
// the guarded flow's cumulative bytes-by-time curve is bounded above by the
// unmodified CCA schedule — i.e. never more aggressive. Clamps are counted
// so experiments can verify a policy was already compliant.
#pragma once

#include "core/policy.hpp"

namespace stob::core {

class CcaGuard final : public Policy {
 public:
  explicit CcaGuard(Policy& inner) : inner_(inner) {}

  SegmentDecision on_segment(const SegmentContext& ctx) override;
  void on_flow_start(const net::FlowKey& flow) override { inner_.on_flow_start(flow); }
  void on_flow_end(const net::FlowKey& flow) override { inner_.on_flow_end(flow); }
  std::string name() const override { return "guard(" + inner_.name() + ")"; }
  std::string config() const override { return "guard(" + inner_.config() + ")"; }

  /// How many decisions had to be clamped per dimension.
  std::uint64_t segment_clamps() const { return segment_clamps_; }
  std::uint64_t mss_clamps() const { return mss_clamps_; }
  std::uint64_t departure_clamps() const { return departure_clamps_; }

 private:
  Policy& inner_;
  std::uint64_t segment_clamps_ = 0;
  std::uint64_t mss_clamps_ = 0;
  std::uint64_t departure_clamps_ = 0;
};

}  // namespace stob::core
