#include "defenses/baselines.hpp"

#include <algorithm>

#include "defenses/policy.hpp"

namespace stob::defenses {

// ------------------------------------------------------------ FrontDefense

wf::Trace FrontDefense::apply(const wf::Trace& trace, Rng& rng) const {
  wf::Trace out = trace;
  // FRONT front-loads dummies on a Rayleigh schedule whose window was tuned
  // for Tor page loads (seconds). Our direct page loads finish in hundreds
  // of milliseconds, so the sampled window is scaled into the page duration
  // — keeping the *shape* (dense early cover, thinning tail) while padding
  // only while there is traffic to hide; stragglers past the page end are
  // dropped rather than extending the connection.
  const double page_end = std::max(trace.duration(), 0.05);
  const double scale = page_end / cfg_.window_max;
  auto inject = [&](int direction, int max_dummies) {
    const auto n = static_cast<int>(rng.uniform_int(1, max_dummies));
    const double window = rng.uniform(cfg_.window_min, cfg_.window_max) * scale;
    for (int i = 0; i < n; ++i) {
      const double t = rng.rayleigh(window / 2.0);
      if (t <= page_end) out.add(t, direction, cfg_.dummy_size);
    }
  };
  inject(+1, cfg_.client_dummies_max);
  inject(-1, cfg_.server_dummies_max);
  out.normalize();
  return out;
}

// ------------------------------------------------------------ BufloDefense

wf::Trace BufloDefense::apply(const wf::Trace& trace, Rng& /*rng*/) const {
  // Per direction: real packets occupy the next slots of a fixed-interval
  // schedule; empty slots up to max(data end, min_duration) become dummies.
  wf::Trace out;
  for (int dir : {+1, -1}) {
    std::size_t queued = 0;  // real packets waiting for a slot
    std::size_t next_real = 0;
    std::vector<double> real_times;
    for (const wf::PacketRecord& p : trace.packets()) {
      if (p.direction == dir) real_times.push_back(p.time);
    }
    const double data_end = real_times.empty() ? 0.0 : real_times.back();
    const double end = std::max(cfg_.min_duration, data_end);
    for (double t = 0.0; t <= end || next_real < real_times.size(); t += cfg_.interval) {
      // Count real packets that have arrived by this slot.
      while (next_real + queued < real_times.size() &&
             real_times[next_real + queued] <= t) {
        ++queued;
      }
      if (queued > 0) {
        --queued;
        ++next_real;
        out.add(t, dir, cfg_.packet_size);
      } else {
        out.add(t, dir, cfg_.packet_size);  // dummy fills the slot
      }
      if (t > end + 120.0) break;  // safety against pathological schedules
    }
  }
  out.normalize();
  return out;
}

// ---------------------------------------------------------- TamarawDefense

wf::Trace TamarawDefense::apply(const wf::Trace& trace, Rng& /*rng*/) const {
  wf::Trace out;
  for (int dir : {+1, -1}) {
    const double interval = dir > 0 ? cfg_.interval_out : cfg_.interval_in;
    std::vector<double> real_times;
    for (const wf::PacketRecord& p : trace.packets()) {
      if (p.direction == dir) real_times.push_back(p.time);
    }
    // Schedule real packets onto the grid.
    std::size_t sent = 0;
    std::size_t count = 0;
    double t = 0.0;
    std::size_t arrived = 0;
    while (sent < real_times.size()) {
      while (arrived < real_times.size() && real_times[arrived] <= t) ++arrived;
      out.add(t, dir, cfg_.packet_size);  // slot carries data if any arrived
      ++count;
      if (arrived > sent) ++sent;
      t += interval;
    }
    // Pad the per-direction count up to a multiple of L.
    const auto mult = static_cast<std::size_t>(cfg_.pad_multiple);
    const std::size_t target = ((count + mult - 1) / mult) * mult;
    for (; count < target; ++count, t += interval) out.add(t, dir, cfg_.packet_size);
  }
  out.normalize();
  return out;
}

// ---------------------------------------------------- PadToConstantDefense

wf::Trace PadToConstantDefense::apply(const wf::Trace& trace, Rng& /*rng*/) const {
  wf::Trace out;
  for (const wf::PacketRecord& p : trace.packets()) {
    std::int64_t size = p.size;
    if (!cfg_.incoming_only || p.direction < 0) {
      size = ((size + cfg_.quantum - 1) / cfg_.quantum) * cfg_.quantum;
    }
    out.add(p.time, p.direction, size);
  }
  out.normalize();
  return out;
}

std::vector<std::unique_ptr<TraceDefense>> all_defenses() {
  std::vector<std::unique_ptr<TraceDefense>> v;
  v.push_back(std::make_unique<FrontDefense>());
  v.push_back(std::make_unique<BufloDefense>());
  v.push_back(std::make_unique<TamarawDefense>());
  v.push_back(std::make_unique<PadToConstantDefense>());
  for (const PolicyInfo& info : policy_zoo()) v.push_back(make_policy_defense(info.name));
  return v;
}

}  // namespace stob::defenses
