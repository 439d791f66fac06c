// Deterministic adverse-network fault injection.
//
// net::Pipe models a clean link with at most i.i.d. loss; real paths burst,
// reorder, duplicate, corrupt, jitter, and change capacity mid-flow —
// exactly the conditions under which transport loss recovery and defense
// schedules interact worst. This layer attaches composable impairment
// models to a pipe through the net::FaultModel hook:
//
//   * Gilbert-Elliott bursty loss (two-state Markov chain, per packet),
//   * packet reordering (random hold of 1..depth quanta so later packets
//     overtake),
//   * duplication (the same packet delivered twice),
//   * payload corruption (delivered but dropped at the receiving host's
//     checksum, so the transport sees a loss the wire trace does not),
//   * delay jitter (order-preserving extra latency),
//   * bandwidth oscillation (the link rate squares between its base value
//     and a fraction of it),
//   * link flap (periodic blackout windows that drop everything in flight).
//
// All randomness flows from one seeded Rng per injector, so fault-injected
// runs stay byte-reproducible under the src/exp engine: same seed, same
// impairment decisions, for any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/path.hpp"
#include "net/pipe.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace stob::fault {

/// Two-state Markov (Gilbert-Elliott) loss: bursts of heavy loss in the
/// Bad state, near-clean Good state. Transition probabilities are applied
/// once per packet. Disabled while p_enter_bad == 0.
struct GilbertElliottConfig {
  double p_enter_bad = 0.0;  ///< P(Good -> Bad) per packet
  double p_exit_bad = 0.0;   ///< P(Bad -> Good) per packet
  double loss_good = 0.0;    ///< per-packet loss probability in Good
  double loss_bad = 0.0;     ///< per-packet loss probability in Bad

  bool enabled() const { return p_enter_bad > 0.0; }
};

/// With `probability`, hold a packet for uniform(1, depth) * hold so the
/// packets behind it arrive first (netem-style delay-swap reordering).
struct ReorderConfig {
  double probability = 0.0;
  int depth = 3;                      ///< maximum hold quanta
  Duration hold = Duration::millis(1);  ///< one hold quantum

  bool enabled() const { return probability > 0.0; }
};

struct DuplicateConfig {
  double probability = 0.0;
  bool enabled() const { return probability > 0.0; }
};

/// Corrupted packets are *delivered* (they occupy the wire and the rx path)
/// but the receiving host drops them at checksum validation, so corruption
/// reaches the transport as loss while staying visible to a wire observer.
struct CorruptConfig {
  double probability = 0.0;
  bool enabled() const { return probability > 0.0; }
};

/// Uniform extra one-way delay in [0, max]. Order-preserving: a jittered
/// packet is never scheduled to arrive before the packet ahead of it.
struct JitterConfig {
  Duration max;
  bool enabled() const { return max > Duration(); }
};

/// Square-wave bottleneck capacity: the pipe rate alternates between its
/// base value and base * low_mult every period/2, for the profile's active
/// window, then returns to base.
struct OscillationConfig {
  double low_mult = 0.0;  ///< 0 disables; e.g. 0.25 = dips to a quarter rate
  Duration period = Duration::seconds(2);

  bool enabled() const { return low_mult > 0.0; }
};

/// Periodic blackout: the link repeats `up` available / `down` dead. While
/// down every packet finishing serialisation is discarded (the sender's
/// NIC still frees normally). Pure function of time, so no timer events.
struct FlapConfig {
  Duration up;
  Duration down;

  bool enabled() const { return down > Duration(); }
};

/// One direction's complete impairment recipe.
struct Profile {
  std::string name = "clean";
  double iid_loss = 0.0;  ///< independent per-packet loss, on top of GE
  GilbertElliottConfig bursty;
  ReorderConfig reorder;
  DuplicateConfig duplicate;
  CorruptConfig corrupt;
  JitterConfig jitter;
  OscillationConfig oscillation;
  FlapConfig flap;
  /// Horizon for the time-driven impairments (oscillation, flap): after
  /// this much time from attach the link stays up at its base rate, so a
  /// simulation's event queue always drains.
  Duration active_for = Duration::seconds(90);

  bool any() const {
    return iid_loss > 0.0 || bursty.enabled() || reorder.enabled() || duplicate.enabled() ||
           corrupt.enabled() || jitter.enabled() || oscillation.enabled() || flap.enabled();
  }
};

/// Per-direction profiles for a DuplexPath (forward = client -> server).
struct PathProfile {
  std::string name = "clean";
  Profile forward;
  Profile backward;

  bool any() const { return forward.any() || backward.any(); }

  static PathProfile symmetric(Profile p) {
    PathProfile pp;
    pp.name = p.name;
    pp.forward = p;
    pp.backward = p;
    return pp;
  }
};

// ------------------------------------------------------------- scenarios

Profile clean();
Profile bursty_loss();
Profile reordering();
Profile duplication();
Profile corruption();
Profile jitter_heavy();
Profile bandwidth_oscillation();
Profile link_flap();
/// Everything at once, each impairment milder: the "bad Wi-Fi" path.
Profile adverse_mix();

/// The chaos-sweep scenario matrix: symmetric PathProfiles for every named
/// scenario above, clean first.
std::vector<PathProfile> all_scenarios();

// -------------------------------------------------------------- injector

/// Attaches a Profile to one net::Pipe via the FaultModel hook and drives
/// every impairment decision from its own seeded Rng. Detaches itself on
/// destruction (must be destroyed before the pipe).
class FaultInjector final : public net::FaultModel {
 public:
  struct Stats {
    std::uint64_t inspected = 0;   ///< packets that finished serialising
    std::uint64_t lost = 0;        ///< GE/i.i.d. losses
    std::uint64_t flap_lost = 0;   ///< discarded during a blackout window
    std::uint64_t corrupted = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t delivered = 0;   ///< originals handed to Pipe::deliver
  };

  FaultInjector(sim::Simulator& sim, net::Pipe& pipe, Profile profile, Rng rng);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void on_transmitted(net::Pipe& pipe, net::Packet&& p) override;

  const Profile& profile() const { return profile_; }
  const Stats& stats() const { return stats_; }
  /// True while the flap model has the link blacked out at `now`.
  bool link_down(TimePoint now) const;

 private:
  void schedule_oscillation();

  sim::Simulator& sim_;
  net::Pipe& pipe_;
  Profile profile_;
  Rng rng_;
  Stats stats_;
  TimePoint attached_at_;
  DataRate base_rate_;
  bool ge_bad_ = false;                 // Gilbert-Elliott state
  bool rate_low_ = false;               // oscillation state
  TimePoint last_inorder_arrival_;      // jitter order-preservation clamp
};

/// Fault injectors for both directions of a DuplexPath. Forks the supplied
/// Rng once per direction (forward first) so a PathProfile is one
/// deterministic function of (profile, seed).
class PathFaults {
 public:
  PathFaults(sim::Simulator& sim, net::DuplexPath& path, const PathProfile& profile, Rng rng);

  FaultInjector& forward() { return forward_; }
  FaultInjector& backward() { return backward_; }
  const FaultInjector& forward() const { return forward_; }
  const FaultInjector& backward() const { return backward_; }

 private:
  FaultInjector forward_;
  FaultInjector backward_;
};

}  // namespace stob::fault
