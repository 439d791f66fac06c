// The paper's §3 emulation primitives as defenses::Policy state machines:
// the zoo's "split" and "delay", chained into "combined" (policy.cpp).
// tests/test_policy_parity.cpp pins their output byte-identical to the
// original trace transforms (same Rng draw order, same pre-normalize
// emission order).
#pragma once

#include "defenses/policy.hpp"

namespace stob::defenses {

/// Packet splitting as a per-packet decision: an in-scope packet larger
/// than the threshold leaves as two halves, the second after the first
/// half's serialisation time at the configured link rate. Mirrors the
/// paper: threshold 1200 B so no fragment drops below the 536 B minimum MSS.
class SplitStreamPolicy final : public Policy {
 public:
  struct Config {
    std::int64_t threshold = 1200;
    DataRate link_rate = DataRate::mbps(100);  // spaces the two halves
    bool incoming_only = true;                 // server-side deployment
  };

  SplitStreamPolicy() : SplitStreamPolicy(Config{}) {}
  explicit SplitStreamPolicy(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "split"; }
  void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) override;

 private:
  Config cfg_;
};

/// Packet delaying as a per-packet decision: each in-scope inter-arrival
/// gap is inflated by a factor drawn from U(lo, hi) (paper: 10-30%); the
/// accumulated shift rides on every later packet, as it would physically.
/// Draws from the job Rng in event order — the legacy draw order.
class DelayStreamPolicy final : public Policy {
 public:
  struct Config {
    double lo = 0.10;
    double hi = 0.30;
    bool incoming_only = true;
  };

  DelayStreamPolicy() : DelayStreamPolicy(Config{}) {}
  explicit DelayStreamPolicy(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "delay"; }
  void begin(Rng& rng) override;
  void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) override;

 private:
  Config cfg_;
  Rng* rng_ = nullptr;
  double shift_ = 0.0;
  double prev_original_ = 0.0;
  bool first_ = true;
};

}  // namespace stob::defenses
