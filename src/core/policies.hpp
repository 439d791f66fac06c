// Built-in Stob obfuscation policies (§4.2 of the paper).
//
// Each policy manipulates one or more of the three stack-level knobs
// (TSO segment size, wire packet size, departure time). They are the
// in-stack counterparts of the trace-level emulations in §3:
//
//  * SplitPolicy      — halve wire packets above a threshold,
//  * DelayPolicy      — inflate inter-departure gaps by U(lo, hi) percent,
//  * CompositePolicy  — chain policies (e.g. split + delay = "Combined"),
//  * SweepSizePolicy  — the Figure 3 strategy: incrementally reduce packet
//                       size and TSO size, resetting at the configured
//                       maximum reduction degree alpha.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/policy.hpp"
#include "util/rng.hpp"

namespace stob::core {

/// Halves the wire packet size whenever the effective MSS exceeds
/// `threshold` bytes — the in-stack version of the paper's packet-splitting
/// countermeasure (packets > 1200 B become two packets of half size). The
/// resulting size never goes below `min_size` (RFC 879's 536 B minimum MSS
/// in the paper's parameterisation).
class SplitPolicy final : public Policy {
 public:
  struct Config {
    std::int64_t threshold = 1200;  // apply when wire payload would exceed this
    std::int64_t min_size = 536;    // never create packets smaller than this
  };

  SplitPolicy() : SplitPolicy(Config{}) {}
  explicit SplitPolicy(Config cfg) : cfg_(cfg) {}

  SegmentDecision on_segment(const SegmentContext& ctx) override;
  std::string name() const override { return "split"; }
  std::string config() const override;

 private:
  Config cfg_;
};

/// Inflates the gap between consecutive segment departures by a factor
/// drawn uniformly from [lo_frac, hi_frac] (the paper uses 10-30%).
/// Per-flow state remembers the previous departure.
class DelayPolicy final : public Policy {
 public:
  struct Config {
    double lo_frac = 0.10;
    double hi_frac = 0.30;
    std::uint64_t seed = 0xDE1A7ull;
  };

  DelayPolicy() : DelayPolicy(Config{}) {}
  explicit DelayPolicy(Config cfg) : cfg_(cfg), rng_(cfg.seed) {}

  SegmentDecision on_segment(const SegmentContext& ctx) override;
  void on_flow_start(const net::FlowKey& flow) override;
  void on_flow_end(const net::FlowKey& flow) override;
  std::string name() const override { return "delay"; }
  std::string config() const override;

 private:
  Config cfg_;
  Rng rng_;
  std::unordered_map<net::FlowKey, TimePoint, net::FlowKeyHash> last_departure_;
};

/// Applies a chain of policies in order. Each later policy sees the earlier
/// policy's decision folded into its context (cca_segment/mss/departure), so
/// "split then delay" composes the way the paper's Combined dataset does.
class CompositePolicy final : public Policy {
 public:
  explicit CompositePolicy(std::vector<Policy*> chain) : chain_(std::move(chain)) {}

  SegmentDecision on_segment(const SegmentContext& ctx) override;
  void on_flow_start(const net::FlowKey& flow) override;
  void on_flow_end(const net::FlowKey& flow) override;
  std::string name() const override;
  std::string config() const override;

 private:
  std::vector<Policy*> chain_;  // not owned
};

/// The Figure 3 strategy: over consecutive data transmissions of a flow,
/// reduce the wire packet size from `mtu` by alpha per step down to
/// mtu - alpha*10 (then reset), and reduce the TSO size from 44 segments by
/// alpha/4 per step down to 44 - (alpha/4)*8 (floor 1 segment, then reset).
class SweepSizePolicy final : public Policy {
 public:
  struct Config {
    int alpha = 0;                // maximum reduction degree (x-axis of Fig. 3)
    std::int64_t mtu = 1500;      // default wire packet size, bytes
    std::int64_t header_overhead = 52;  // IP + TCP headers inside the MTU
    int tso_default_segs = 44;    // default TSO size, in MSS units
    int pkt_steps = 10;           // reset after this many reductions
    int tso_steps = 8;
  };

  SweepSizePolicy() : SweepSizePolicy(Config{}) {}
  explicit SweepSizePolicy(Config cfg) : cfg_(cfg) {}

  SegmentDecision on_segment(const SegmentContext& ctx) override;
  void on_flow_start(const net::FlowKey& flow) override;
  void on_flow_end(const net::FlowKey& flow) override;
  std::string name() const override { return "sweep-size"; }
  std::string config() const override;

 private:
  struct FlowState {
    int pkt_step = 0;
    int tso_step = 0;
  };

  Config cfg_;
  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> state_;
};

}  // namespace stob::core
