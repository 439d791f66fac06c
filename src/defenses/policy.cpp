#include "defenses/policy.hpp"

#include <stdexcept>
#include <utility>

#include "defenses/baseline_policies.hpp"
#include "defenses/regulator.hpp"
#include "defenses/wtfpad.hpp"

namespace stob::defenses {

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
/// capacity and grows, if it must, to exactly what it holds.
void materialize(const std::vector<PacketOut>& emitted, wf::Trace& out) {
  std::vector<wf::PacketRecord>& packets = out.packets();
  packets.clear();
  packets.reserve(emitted.size());
  for (const PacketOut& p : emitted) packets.push_back({p.time, p.direction, p.size});
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

// ------------------------------------------------------------- PolicyDefense

wf::Trace PolicyDefense::apply(const wf::Trace& trace, Rng& rng) const {
  const std::unique_ptr<Policy> policy = factory_();
  return run_policy(*policy, trace, rng);
}

// ------------------------------------------------------------------ registry

const std::vector<PolicyInfo>& policy_zoo() {
  static const std::vector<PolicyInfo> zoo = [] {
    std::vector<PolicyInfo> v;
    v.push_back({"split",
                 {"TLS", "Obfuscation", {.packet_size = true}},
                 [] { return std::make_unique<SplitStreamPolicy>(); }});
    v.push_back({"delay",
                 {"TLS", "Obfuscation", {.timing = true}},
                 [] { return std::make_unique<DelayStreamPolicy>(); }});
    v.push_back({"combined",
                 {"TLS", "Obfuscation", {.timing = true, .packet_size = true}},
                 [] {
                   std::vector<std::unique_ptr<Policy>> stages;
                   stages.reserve(2);
                   stages.push_back(std::make_unique<SplitStreamPolicy>());
                   stages.push_back(std::make_unique<DelayStreamPolicy>());
                   return std::make_unique<ChainPolicy>(std::move(stages));
                 }});
    v.push_back({"regulator",
                 {"Stob", "Regularization", {.padding = true, .timing = true}},
                 [] { return std::make_unique<RegulatorPolicy>(); }});
    v.push_back({"wtfpad",
                 {"Stob", "Obfuscation", {.padding = true}},
                 [] { return std::make_unique<WtfPadPolicy>(); }});
    return v;
  }();
  return zoo;
}

namespace {

const PolicyInfo& find_policy(std::string_view name) {
  for (const PolicyInfo& info : policy_zoo()) {
    if (info.name == name) return info;
  }
  std::string known;
  for (const PolicyInfo& info : policy_zoo()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  throw std::invalid_argument("defenses: unknown policy '" + std::string(name) +
                              "' (known: " + known + ")");
}

}  // namespace

std::unique_ptr<Policy> make_policy(std::string_view name) {
  return find_policy(name).factory();
}

std::unique_ptr<TraceDefense> make_policy_defense(std::string_view name) {
  const PolicyInfo& info = find_policy(name);
  return std::make_unique<PolicyDefense>(info.name, info.meta, info.factory);
}

}  // namespace stob::defenses
