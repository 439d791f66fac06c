#include "defenses/policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "defenses/baseline_policies.hpp"
#include "defenses/baselines.hpp"
#include "defenses/regulator.hpp"
#include "defenses/wtfpad.hpp"

namespace stob::defenses {

void Policy::begin(Rng& /*rng*/) {}

void Policy::finish(double /*end_time*/, std::vector<PacketOut>& /*out*/) {}

namespace {

/// Streams `in` through `policy` in capture order, appending its emissions
/// to `emitted` in the order the policy made them.
void feed(Policy& policy, const std::vector<wf::PacketRecord>& in, Rng& rng,
          std::vector<PacketOut>& emitted) {
  policy.begin(rng);
  for (const wf::PacketRecord& p : in) policy.on_packet({p.time, p.direction, p.size}, emitted);
  policy.finish(in.empty() ? 0.0 : in.back().time, emitted);
}

/// Replaces `out`'s packets with `emitted`, normalized. The buffer keeps its
/// capacity and grows, if it must, to exactly what it holds. The records are
/// written in place rather than appended, so the loop holds no call to
/// vector growth whatever the compiler decides to inline.
void materialize(const std::vector<PacketOut>& emitted, wf::Trace& out) {
  std::vector<wf::PacketRecord>& packets = out.packets();
  packets.clear();
  packets.resize(emitted.size());
  wf::PacketRecord* dst = packets.data();
  for (const PacketOut& p : emitted) *dst++ = {p.time, p.direction, p.size};
  out.normalize();
}

}  // namespace

wf::Trace Policy::replay(const wf::Trace& in, Rng& rng) {
  // Every zoo policy forwards each input packet at least once.
  std::vector<PacketOut> emitted;
  emitted.reserve(in.size());
  feed(*this, in.packets(), rng, emitted);
  wf::Trace out;
  materialize(emitted, out);
  return out;
}

wf::Trace run_policy(Policy& policy, const wf::Trace& in, Rng& rng) {
  return policy.replay(in, rng);
}

// --------------------------------------------------------------- ChainPolicy

std::string ChainPolicy::name() const {
  std::string n = "chain(";
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i) n += "+";
    n += stages_[i]->name();
  }
  return n + ")";
}

void ChainPolicy::begin(Rng& rng) {
  rng_ = &rng;
  trace_.packets().clear();
}

void ChainPolicy::on_packet(const PacketEvent& ev, std::vector<PacketOut>& /*out*/) {
  trace_.add(ev.time, ev.direction, ev.size);
}

void ChainPolicy::finish(double /*end_time*/, std::vector<PacketOut>& out) {
  run_stages(trace_.packets(), *rng_);
  out.reserve(out.size() + trace_.size());
  for (const wf::PacketRecord& p : trace_.packets()) {
    out.push_back({p.time, p.direction, p.size, false});
  }
}

wf::Trace ChainPolicy::replay(const wf::Trace& in, Rng& rng) {
  run_stages(in.packets(), rng);
  // The default replay would normalize finish()'s output once more. On
  // the last stage's normalized output that is a scan, but NaN and
  // infinite times can still move, so it stays.
  trace_.normalize();
  return std::exchange(trace_, wf::Trace{});
}

void ChainPolicy::run_stages(const std::vector<wf::PacketRecord>& input, Rng& rng) {
  // Each stage reads the previous stage's normalized output, exactly how
  // the trace transforms composed; its output overwrites what it read only
  // once the stage is done. The emission buffer is freed on return, before
  // the caller allocates anything else, so a replay loop reuses its memory
  // instead of growing the heap around it.
  std::vector<PacketOut> emitted;
  const std::vector<wf::PacketRecord>* cur = &input;
  for (const auto& stage : stages_) {
    emitted.clear();
    emitted.reserve(cur->size());
    feed(*stage, *cur, rng, emitted);
    materialize(emitted, trace_);
    cur = &trace_.packets();
  }
  if (cur != &trace_.packets()) trace_.packets() = *cur;  // no stages: output = input
}

// ------------------------------------------------------------------ registry

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

namespace {

/// Registry row for a policy built with its default config.
template <typename P>
PolicyInfo row(std::string name, PolicyInfo::Meta meta) {
  return {std::move(name), std::move(meta), [] { return std::make_unique<P>(); }};
}

}  // namespace

const std::vector<PolicyInfo>& all_defenses() {
  static const std::vector<PolicyInfo> rows{
      row<FrontPolicy>("FRONT", {"Tor", "Obfuscation", {.padding = true, .timing = true}}),
      row<BufloPolicy>("BuFLO", {"Tor", "Regularization", {.padding = true, .timing = true}}),
      row<TamarawPolicy>("Tamaraw", {"Tor", "Regularization", {.padding = true, .timing = true}}),
      row<PadToConstantPolicy>("ALPaCA-pad", {"Tor", "Regularization", {.padding = true}}),
      row<SplitStreamPolicy>("split", {"TLS", "Obfuscation", {.packet_size = true}}),
      row<DelayStreamPolicy>("delay", {"TLS", "Obfuscation", {.timing = true}}),
      {"combined",
       {"TLS", "Obfuscation", {.timing = true, .packet_size = true}},
       [] {
         std::vector<std::unique_ptr<Policy>> stages;
         stages.reserve(2);
         stages.push_back(std::make_unique<SplitStreamPolicy>());
         stages.push_back(std::make_unique<DelayStreamPolicy>());
         return std::make_unique<ChainPolicy>(std::move(stages));
       }},
      row<RegulatorPolicy>("regulator",
                           {"Stob", "Regularization", {.padding = true, .timing = true}}),
      row<WtfPadPolicy>("wtfpad", {"Stob", "Obfuscation", {.padding = true}}),
  };
  return rows;
}

std::span<const PolicyInfo> policy_zoo() {
  return std::span<const PolicyInfo>(all_defenses()).subspan(4);  // after the baselines
}

const PolicyInfo& policy_info(std::string_view name) {
  for (const PolicyInfo& info : all_defenses()) {
    if (info.name == name) return info;
  }
  std::string known;
  for (const PolicyInfo& info : all_defenses()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  throw std::invalid_argument("defenses: unknown policy '" + std::string(name) +
                              "' (known: " + known + ")");
}

std::unique_ptr<Policy> make_policy(std::string_view name) {
  return policy_info(name).factory();
}

wf::Trace run_policy(const PolicyInfo& defense, const wf::Trace& in, Rng& rng) {
  const std::unique_ptr<Policy> policy = defense.factory();
  return run_policy(*policy, in, rng);
}

// ------------------------------------------------------ overhead and scoping

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

Overhead measure_overhead(const wf::Dataset& original, const wf::Dataset& defended) {
  if (original.size() != defended.size()) {
    throw std::invalid_argument("measure_overhead: " + std::to_string(original.size()) +
                                " original traces but " + std::to_string(defended.size()) +
                                " defended ones");
  }
  Overhead acc;
  if (original.size() == 0) return acc;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const Overhead o = measure_overhead(original.trace(i), defended.trace(i));
    acc.bandwidth += o.bandwidth;
    acc.latency += o.latency;
  }
  acc.bandwidth /= static_cast<double>(original.size());
  acc.latency /= static_cast<double>(original.size());
  return acc;
}

wf::Trace apply_to_prefix(const PolicyInfo& defense, const wf::Trace& trace,
                          std::size_t prefix_packets, Rng& rng) {
  if (prefix_packets == 0 || prefix_packets >= trace.size()) {
    return run_policy(defense, trace, rng);
  }
  const auto& pkts = trace.packets();
  wf::Trace prefix(std::vector<wf::PacketRecord>(
      pkts.begin(), pkts.begin() + static_cast<std::ptrdiff_t>(prefix_packets)));
  const double prefix_orig_end = pkts[prefix_packets - 1].time;
  wf::Trace defended_prefix = run_policy(defense, prefix, rng);

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
