#include "defenses/trace_defense.hpp"

#include <algorithm>

namespace stob::defenses {

std::string Manipulations::describe() const {
  std::string out;
  auto append = [&out](const char* s) {
    if (!out.empty()) out += ", ";
    out += s;
  };
  if (padding) append("padding");
  if (timing) append("timing");
  if (packet_size) append("packet size");
  return out.empty() ? "none" : out;
}

Overhead measure_overhead(const wf::Trace& original, const wf::Trace& defended) {
  Overhead o;
  const double ob = static_cast<double>(original.total_bytes());
  const double db = static_cast<double>(defended.total_bytes());
  if (ob > 0) o.bandwidth = (db - ob) / ob;
  const double od = original.duration();
  const double dd = defended.duration();
  if (od > 0) o.latency = (dd - od) / od;
  return o;
}

Overhead measure_overhead(const wf::Dataset& data, const TraceDefense& defense, Rng& rng) {
  Overhead acc;
  if (data.size() == 0) return acc;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Overhead o = measure_overhead(data.trace(i), defense.apply(data.trace(i), rng));
    acc.bandwidth += o.bandwidth;
    acc.latency += o.latency;
  }
  acc.bandwidth /= static_cast<double>(data.size());
  acc.latency /= static_cast<double>(data.size());
  return acc;
}

// ---------------------------------------------------------- prefix scoping

wf::Trace apply_to_prefix(const TraceDefense& defense, const wf::Trace& trace,
                          std::size_t prefix_packets, Rng& rng) {
  if (prefix_packets == 0 || prefix_packets >= trace.size()) {
    return defense.apply(trace, rng);
  }
  const auto& pkts = trace.packets();
  wf::Trace prefix(std::vector<wf::PacketRecord>(
      pkts.begin(), pkts.begin() + static_cast<std::ptrdiff_t>(prefix_packets)));
  const double prefix_orig_end = pkts[prefix_packets - 1].time;
  wf::Trace defended_prefix = defense.apply(prefix, rng);

  // The unmodified tail shifts by however much the defended prefix stretched.
  const double defended_end =
      defended_prefix.empty() ? 0.0 : defended_prefix.packets().back().time;
  const double shift = std::max(0.0, defended_end - prefix_orig_end);

  // For a time-ordered input the shifted tail starts at defended_end or
  // later (up to rounding), so normalize() finds the trace in order.
  wf::Trace out = std::move(defended_prefix);
  out.packets().reserve(out.size() + (pkts.size() - prefix_packets));
  for (std::size_t i = prefix_packets; i < pkts.size(); ++i) {
    out.add(pkts[i].time + shift, pkts[i].direction, pkts[i].size);
  }
  out.normalize();
  return out;
}

}  // namespace stob::defenses
