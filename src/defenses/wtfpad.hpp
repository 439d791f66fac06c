// Full adaptive-padding WTF-PAD (Juarez et al., ESORICS'16) as a streaming
// Stob policy.
//
// The two-histogram adaptive-padding state machine, one per direction:
//
//   Idle --real pkt--> Burst: arm a timeout drawn from the *burst*
//       histogram H_B (the expected intra-burst inter-arrival).
//   Burst, real packet before timeout: still inside a real burst — re-arm
//       from H_B, send nothing.
//   Burst, timeout expires: the real burst died early — inject a dummy and
//       switch to Gap mode, timeouts drawn from the *gap* histogram H_G,
//       fabricating a fake burst that hides where the real one ended.
//   Gap, timeout expires: another dummy, re-arm from H_G.
//   Sampling the histogram's "infinity bin" ends the mode: infinity from
//       H_G falls back to Burst (arm from H_B); infinity from H_B returns
//       to Idle. A real packet in any state resets to Burst.
//
// Histograms are token-based: each draw consumes a token and the histogram
// refills from its initial distribution when it drains (the paper's token
// replenishment). Distributions are configurable per direction and mode
// (range, bin count, linear or log-spaced bins, geometric token decay,
// infinity-bin weight) — the "configurable distributions" knob the defense
// exposes for tuning to a traffic profile.
//
// Real packets are never delayed (WTF-PAD is a zero-delay defense); dummies
// past the end of the real trace are dropped, mirroring how the other
// padding baselines bound page tails. Randomness comes from a generator
// forked off the job Rng in begin(), so output is a pure function of
// (job seed, input events).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "defenses/policy.hpp"

namespace stob::defenses {

/// Token histogram with an infinity bin, the WTF-PAD sampling primitive.
class PadHistogram {
 public:
  struct Spec {
    double lo = 0.0005;      ///< smallest delay, seconds
    double hi = 0.05;        ///< upper edge of the largest finite bin
    std::size_t bins = 20;
    bool log_bins = true;    ///< log-spaced bin edges (WTF-PAD's choice)
    double decay = 0.85;     ///< token mass ratio between adjacent bins
    double infinity_weight = 0.1;  ///< share of tokens in the infinity bin
    std::uint64_t tokens = 400;    ///< total tokens per refill
  };

  PadHistogram() : PadHistogram(Spec{}) {}
  explicit PadHistogram(Spec spec);

  /// Draw a delay and consume its token; returns +infinity when the
  /// infinity bin is hit. Refills from the initial distribution on drain.
  double sample(Rng& rng);

  std::uint64_t tokens_left() const { return total_; }
  std::uint64_t refills() const { return refills_; }

 private:
  Spec spec_;
  std::vector<double> edges_;            // bins + 1 finite edges
  std::vector<std::uint64_t> initial_;   // finite bins + trailing infinity bin
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t refills_ = 0;
};

class WtfPadPolicy final : public Policy {
 public:
  struct Config {
    PadHistogram::Spec client_burst{0.0005, 0.02, 20, true, 0.85, 0.15, 400};
    PadHistogram::Spec client_gap{0.001, 0.06, 20, true, 0.85, 0.30, 400};
    PadHistogram::Spec server_burst{0.0002, 0.01, 20, true, 0.85, 0.10, 400};
    PadHistogram::Spec server_gap{0.0005, 0.04, 20, true, 0.85, 0.25, 400};
    std::int64_t dummy_size = 1514;
  };

  WtfPadPolicy() : WtfPadPolicy(Config{}) {}
  explicit WtfPadPolicy(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "wtfpad"; }
  void begin(Rng& rng) override;
  void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) override;
  void finish(double end_time, std::vector<PacketOut>& out) override;

 private:
  enum class Mode { Idle, Burst, Gap };

  struct Machine {
    int direction = 0;
    Mode mode = Mode::Idle;
    double timeout = 0.0;  // absolute time of the armed timer
    bool armed = false;
    PadHistogram burst;
    PadHistogram gap;
  };

  /// Fire every armed timeout at time <= `until` (dummies are emitted with
  /// the timeout's timestamp, so interleaving with real packets is exact).
  void fire_until(Machine& m, double until, std::vector<PacketOut>& out);
  void arm(Machine& m, double now, Mode source);

  Config cfg_;
  Rng rng_;
  std::array<Machine, 2> machines_;  // [0] = client (+1), [1] = server (-1)
};

}  // namespace stob::defenses
