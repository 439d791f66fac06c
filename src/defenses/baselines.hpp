// Baseline WF defenses from the literature (the first four rows of
// Table 1), as defenses::Policy state machines so their protection/overhead
// can be compared against stack-level packet-sequence control.
//
// These follow the published algorithms at trace granularity:
//  * FRONT (Gong & Wang, USENIX Sec'20): Rayleigh-scheduled dummy packets
//    front-loaded on both sides, zero delay.
//  * BuFLO (Dyer et al., S&P'12): fixed-size packets at a fixed interval,
//    dummies fill gaps, until data is done and a minimum duration passed.
//  * Tamaraw (Cai et al., CCS'14): direction-specific intervals and
//    padding the per-direction packet count to a multiple of L.
//  * ALPaCA-style (Cherubin et al., PETS'17): server-side object padding —
//    incoming packet sizes padded up to a multiple of a quantum.
//
// ALPaCA-pad rounds each packet as it arrives. FRONT forwards each packet
// and injects its dummies in finish(); BuFLO and Tamaraw buffer each
// direction's arrival times and emit their whole slot schedules in
// finish(), +1 first. Replayed (run_policy), each emits exactly the
// sequence its former whole-trace transform built, so outputs are byte-
// identical (tests/test_policy_parity.cpp pins them by hash). Because three
// of them hold output until finish(), they are not built for the stack
// mount.
//
// WTF-PAD (Juarez et al., ESORICS'16) and RegulaTor (Holland & Hopper,
// PETS'22) are streaming state machines in the policy zoo (wtfpad.hpp,
// regulator.hpp).
#pragma once

#include <array>

#include "defenses/policy.hpp"

namespace stob::defenses {

class FrontPolicy final : public Policy {
 public:
  struct Config {
    int client_dummies_max = 600;   // N_c: dummies sampled U(1, max)
    int server_dummies_max = 1400;  // N_s
    double window_min = 1.0;        // W_min seconds
    double window_max = 14.0;       // W_max seconds
    std::int64_t dummy_size = 1514; // full-size wire packets
  };

  FrontPolicy() : FrontPolicy(Config{}) {}
  explicit FrontPolicy(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "FRONT"; }
  void begin(Rng& rng) override;
  void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) override;
  void finish(double end_time, std::vector<PacketOut>& out) override;

 private:
  Config cfg_;
  Rng* rng_ = nullptr;
  std::size_t packets_ = 0;
  double first_time_ = 0.0;
  double last_time_ = 0.0;
};

/// Input side shared by BuFLO and Tamaraw: each direction's arrival times
/// are buffered, and finish() emits the +1 schedule, then the -1 one.
/// Packets of any other direction are dropped. A non-finite time is
/// refused with std::invalid_argument: no slot schedule could reach it. So
/// is a finite arrival past kMaxSlots slots of its direction's interval,
/// before any slot is emitted: the schedule runs from t = 0 to the last
/// arrival, so one huge time would otherwise exhaust memory.
class SlotSchedulePolicy : public Policy {
 public:
  /// Longest schedule, in slots, that one direction may need: over 3 hours
  /// at a 12 ms interval.
  static constexpr double kMaxSlots = 1e6;

  void begin(Rng& rng) override;
  void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) override;
  void finish(double end_time, std::vector<PacketOut>& out) override;

 protected:
  /// Appends direction `dir`'s schedule for its real arrivals `times`.
  virtual void schedule(int dir, const std::vector<double>& times,
                        std::vector<PacketOut>& out) const = 0;
  /// Seconds between direction `dir`'s slots.
  virtual double interval(int dir) const = 0;

 private:
  std::array<std::vector<double>, 2> times_;  // +1, -1
  std::size_t seen_ = 0;
};

class BufloPolicy final : public SlotSchedulePolicy {
 public:
  struct Config {
    std::int64_t packet_size = 1514;  // d: every packet padded to this
    double interval = 0.012;          // rho: seconds between packets
    double min_duration = 10.0;       // tau: pad at least this long
  };

  BufloPolicy() : BufloPolicy(Config{}) {}
  explicit BufloPolicy(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "BuFLO"; }

 private:
  void schedule(int dir, const std::vector<double>& times,
                std::vector<PacketOut>& out) const override;
  double interval(int /*dir*/) const override { return cfg_.interval; }

  Config cfg_;
};

class TamarawPolicy final : public SlotSchedulePolicy {
 public:
  struct Config {
    std::int64_t packet_size = 1514;
    double interval_out = 0.04;  // rho_out seconds
    double interval_in = 0.012;  // rho_in seconds
    int pad_multiple = 100;      // L: pad per-direction count to multiple of L
  };

  TamarawPolicy() : TamarawPolicy(Config{}) {}
  explicit TamarawPolicy(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "Tamaraw"; }

 private:
  void schedule(int dir, const std::vector<double>& times,
                std::vector<PacketOut>& out) const override;
  double interval(int dir) const override {
    return dir > 0 ? cfg_.interval_out : cfg_.interval_in;
  }

  Config cfg_;
};

class PadToConstantPolicy final : public Policy {
 public:
  struct Config {
    std::int64_t quantum = 512;    // sizes padded up to a multiple of this
    bool incoming_only = true;     // server-side object padding
  };

  PadToConstantPolicy() : PadToConstantPolicy(Config{}) {}
  explicit PadToConstantPolicy(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "ALPaCA-pad"; }
  void on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) override;

 private:
  Config cfg_;
};

}  // namespace stob::defenses
