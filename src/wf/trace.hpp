// Traffic traces as a website-fingerprinting adversary records them: one
// (timestamp, direction, size) triple per packet, observed at a vantage
// point near the client (what tcpdump on the client's access link sees).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "net/path.hpp"
#include "util/units.hpp"

namespace stob::wf {

/// Direction convention follows the WF literature: +1 = outgoing (client to
/// server), -1 = incoming (server to client).
struct PacketRecord {
  double time = 0.0;      ///< seconds since the first packet of the trace
  int direction = 0;      ///< +1 outgoing, -1 incoming
  std::int64_t size = 0;  ///< wire size in bytes

  friend bool operator==(const PacketRecord&, const PacketRecord&) = default;
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<PacketRecord> packets) : packets_(std::move(packets)) {}

  std::vector<PacketRecord>& packets() { return packets_; }
  const std::vector<PacketRecord>& packets() const { return packets_; }
  std::size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }

  void add(double time, int direction, std::int64_t size) {
    packets_.push_back({time, direction, size});
  }

  /// Shift timestamps so the first packet is at t = 0 and sort by time
  /// (stable, so simultaneous packets keep capture order). The result is
  /// bit-identical to std::stable_sort by `time < time` followed by
  /// subtracting the first time, for every input. The cost follows the
  /// input's order: ordered times (recorded traces, delay's output of an
  /// ordered trace) cost one scan; local disorder (split's overtaken second
  /// halves) is fixed by insertion in linear time; far-travelling disorder
  /// (reversed, shuffled) falls back to the O(n log n) stable sort. A NaN
  /// time always takes std::stable_sort, whose NaN handling is the contract.
  void normalize();

  /// First `n` packets only (the censorship early-detection setting, §3).
  Trace truncated(std::size_t n) const;

  std::int64_t total_bytes() const;
  std::int64_t incoming_bytes() const;  ///< total download size (sanitiser key)
  std::int64_t outgoing_bytes() const;
  std::size_t incoming_count() const;
  std::size_t outgoing_count() const;
  double duration() const;  ///< seconds, 0 if fewer than 2 packets

  friend bool operator==(const Trace&, const Trace&) = default;

 private:
  std::vector<PacketRecord> packets_;
};

/// Labeled trace collection with serialisation, the unit the attack trains
/// and evaluates on.
class Dataset {
 public:
  void add(Trace trace, int label);

  std::size_t size() const { return traces_.size(); }
  const Trace& trace(std::size_t i) const { return traces_.at(i); }
  int label(std::size_t i) const { return labels_.at(i); }
  const std::vector<int>& labels() const { return labels_; }
  std::size_t num_classes() const;

  /// The paper's sanitisation: within each class, drop traces whose total
  /// download size falls outside the Tukey fence [Q1 - k*IQR, Q3 + k*IQR].
  Dataset sanitized_by_download_size(double k = 1.5) const;

  /// Per-class truncation to an equal number of samples (balanced classes).
  Dataset balanced(std::size_t per_class) const;

  /// Apply a transformation to every trace (defense application).
  template <typename Fn>
  Dataset transformed(Fn&& fn) const {
    Dataset out;
    for (std::size_t i = 0; i < traces_.size(); ++i) out.add(fn(traces_[i]), labels_[i]);
    return out;
  }

  /// CSV round trip. Format: trace_id,label,time,direction,size per packet.
  /// Times are written as shortest round-trip decimals, so every field
  /// loads back exactly. Only what round-trips is accepted, each refusal a
  /// std::invalid_argument: save_csv refuses a trace with no packets (it
  /// would write no rows, shifting every later index), naming the trace;
  /// load_csv refuses trace ids that do not run 0, 1, 2, ... contiguously
  /// (a negative id included), naming the data row.
  void save_csv(const std::filesystem::path& path) const;
  static Dataset load_csv(const std::filesystem::path& path);

 private:
  std::vector<Trace> traces_;
  std::vector<int> labels_;
};

/// Records a Trace from a DuplexPath at the client's vantage point:
/// departures on the forward (client->server) pipe count as outgoing,
/// arrivals on the backward pipe as incoming. Pure ACKs are recorded too —
/// the adversary sees every packet.
class TraceRecorder {
 public:
  explicit TraceRecorder(net::DuplexPath& path);

  /// Stop recording (detaches the taps).
  void detach();

  /// The recorded trace, normalised.
  Trace take();

  std::size_t packets_seen() const { return trace_.size(); }

 private:
  net::DuplexPath* path_;
  Trace trace_;
};

}  // namespace stob::wf
