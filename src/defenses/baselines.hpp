// Baseline WF defenses from the literature (the rows of Table 1),
// implemented as trace transforms so their protection/overhead can be
// compared against stack-level packet-sequence control.
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
// WTF-PAD (Juarez et al., ESORICS'16) and RegulaTor (Holland & Hopper,
// PETS'22) are full streaming state machines instead (wtfpad.hpp,
// regulator.hpp); they reach Table 1 through the policy zoo.
#pragma once

#include "defenses/trace_defense.hpp"

namespace stob::defenses {

class FrontDefense final : public TraceDefense {
 public:
  struct Config {
    int client_dummies_max = 600;   // N_c: dummies sampled U(1, max)
    int server_dummies_max = 1400;  // N_s
    double window_min = 1.0;        // W_min seconds
    double window_max = 14.0;       // W_max seconds
    std::int64_t dummy_size = 1514; // full-size wire packets
  };

  FrontDefense() : FrontDefense(Config{}) {}
  explicit FrontDefense(Config cfg) : cfg_(cfg) {}

  wf::Trace apply(const wf::Trace& trace, Rng& rng) const override;
  std::string name() const override { return "FRONT"; }
  std::string target() const override { return "Tor"; }
  std::string strategy() const override { return "Obfuscation"; }
  Manipulations manipulations() const override { return {.padding = true, .timing = true}; }

 private:
  Config cfg_;
};

class BufloDefense final : public TraceDefense {
 public:
  struct Config {
    std::int64_t packet_size = 1514;  // d: every packet padded to this
    double interval = 0.012;          // rho: seconds between packets
    double min_duration = 10.0;       // tau: pad at least this long
  };

  BufloDefense() : BufloDefense(Config{}) {}
  explicit BufloDefense(Config cfg) : cfg_(cfg) {}

  wf::Trace apply(const wf::Trace& trace, Rng& rng) const override;
  std::string name() const override { return "BuFLO"; }
  std::string target() const override { return "Tor"; }
  std::string strategy() const override { return "Regularization"; }
  Manipulations manipulations() const override { return {.padding = true, .timing = true}; }

 private:
  Config cfg_;
};

class TamarawDefense final : public TraceDefense {
 public:
  struct Config {
    std::int64_t packet_size = 1514;
    double interval_out = 0.04;  // rho_out seconds
    double interval_in = 0.012;  // rho_in seconds
    int pad_multiple = 100;      // L: pad per-direction count to multiple of L
  };

  TamarawDefense() : TamarawDefense(Config{}) {}
  explicit TamarawDefense(Config cfg) : cfg_(cfg) {}

  wf::Trace apply(const wf::Trace& trace, Rng& rng) const override;
  std::string name() const override { return "Tamaraw"; }
  std::string target() const override { return "Tor"; }
  std::string strategy() const override { return "Regularization"; }
  Manipulations manipulations() const override { return {.padding = true, .timing = true}; }

 private:
  Config cfg_;
};

class PadToConstantDefense final : public TraceDefense {
 public:
  struct Config {
    std::int64_t quantum = 512;    // sizes padded up to a multiple of this
    bool incoming_only = true;     // server-side object padding
  };

  PadToConstantDefense() : PadToConstantDefense(Config{}) {}
  explicit PadToConstantDefense(Config cfg) : cfg_(cfg) {}

  wf::Trace apply(const wf::Trace& trace, Rng& rng) const override;
  std::string name() const override { return "ALPaCA-pad"; }
  std::string target() const override { return "Tor"; }
  std::string strategy() const override { return "Regularization"; }
  Manipulations manipulations() const override { return {.padding = true}; }

 private:
  Config cfg_;
};

/// Every Table 1 row, for benches that iterate the whole defense zoo: FRONT,
/// BuFLO, Tamaraw and ALPaCA-pad, then each policy_zoo() entry once (the
/// §3 split, delay and combined, RegulaTor, WTF-PAD), in zoo order.
std::vector<std::unique_ptr<TraceDefense>> all_defenses();

}  // namespace stob::defenses
