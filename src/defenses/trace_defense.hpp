// Trace-level WF defenses: the TraceDefense interface, overhead accounting
// and prefix scoping.
//
// Two families implement the interface:
//  * the paper's §3 emulation primitives (packet splitting, delaying and
//    their combination, the datasets behind Table 2) and the RegulaTor and
//    WTF-PAD state machines, all streaming policies (policy.hpp) replayed
//    through PolicyDefense; make_policy_defense("split") and friends, and
//  * the literature baselines FRONT, BuFLO, Tamaraw and ALPaCA-style
//    padding (baselines.hpp), implemented as whole-trace transforms.
//
// All transforms are pure: Trace in, Trace out, randomness through Rng.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "wf/trace.hpp"

namespace stob::defenses {

/// Which traffic manipulation primitives a defense uses (Table 1 columns).
struct Manipulations {
  bool padding = false;           // dummy packets / object padding
  bool timing = false;            // departure-time modification
  bool packet_size = false;       // per-packet size modification

  std::string describe() const;
};

class TraceDefense {
 public:
  virtual ~TraceDefense() = default;

  virtual wf::Trace apply(const wf::Trace& trace, Rng& rng) const = 0;
  virtual std::string name() const = 0;
  /// Protocol family the original system targeted (Table 1 "Target").
  virtual std::string target() const = 0;
  /// "Regularization" or "Obfuscation" (Table 1 "Strategy").
  virtual std::string strategy() const = 0;
  virtual Manipulations manipulations() const = 0;
};

/// Bandwidth / latency cost of a defended trace relative to the original.
struct Overhead {
  double bandwidth = 0.0;  ///< (defended_bytes - original_bytes) / original_bytes
  double latency = 0.0;    ///< (defended_duration - original_duration) / original_duration
};

Overhead measure_overhead(const wf::Trace& original, const wf::Trace& defended);

/// Average overhead of a defense over a dataset.
Overhead measure_overhead(const wf::Dataset& data, const TraceDefense& defense, Rng& rng);

/// Applies `defense` to the first `prefix_packets` packets only; the rest of
/// the trace is carried over unmodified (but shifted by any delay the
/// defended prefix accumulated). prefix_packets = 0 means the whole trace.
wf::Trace apply_to_prefix(const TraceDefense& defense, const wf::Trace& trace,
                          std::size_t prefix_packets, Rng& rng);

}  // namespace stob::defenses
