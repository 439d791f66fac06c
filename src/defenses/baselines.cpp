#include "defenses/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace stob::defenses {

// ------------------------------------------------------------- FrontPolicy

void FrontPolicy::begin(Rng& rng) {
  rng_ = &rng;
  packets_ = 0;
  first_time_ = 0.0;
  last_time_ = 0.0;
}

void FrontPolicy::on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) {
  if (packets_++ == 0) first_time_ = ev.time;
  last_time_ = ev.time;
  out.push_back({ev.time, ev.direction, ev.size, false});
}

void FrontPolicy::finish(double /*end_time*/, std::vector<PacketOut>& out) {
  // FRONT front-loads dummies on a Rayleigh schedule whose window was tuned
  // for Tor page loads (seconds). Our direct page loads finish in hundreds
  // of milliseconds, so the sampled window is scaled into the page duration
  // (first to last packet, 0 below two packets) — keeping the *shape* (dense
  // early cover, thinning tail) while padding only while there is traffic
  // to hide; stragglers past the page end are dropped rather than extending
  // the connection.
  const double duration = packets_ < 2 ? 0.0 : last_time_ - first_time_;
  const double page_end = std::max(duration, 0.05);
  const double scale = page_end / cfg_.window_max;
  auto inject = [&](int direction, int max_dummies) {
    const auto n = static_cast<int>(rng_->uniform_int(1, max_dummies));
    const double window = rng_->uniform(cfg_.window_min, cfg_.window_max) * scale;
    for (int i = 0; i < n; ++i) {
      const double t = rng_->rayleigh(window / 2.0);
      if (t <= page_end) out.push_back({t, direction, cfg_.dummy_size, true});
    }
  };
  inject(+1, cfg_.client_dummies_max);
  inject(-1, cfg_.server_dummies_max);
}

// ------------------------------------------------------ SlotSchedulePolicy

void SlotSchedulePolicy::begin(Rng& /*rng*/) {
  for (std::vector<double>& t : times_) t.clear();
  seen_ = 0;
}

void SlotSchedulePolicy::on_packet(const PacketEvent& ev, std::vector<PacketOut>& /*out*/) {
  if (!std::isfinite(ev.time)) {
    throw std::invalid_argument(name() + ": packet " + std::to_string(seen_) +
                                " has a non-finite time");
  }
  ++seen_;
  if (ev.direction == +1) times_[0].push_back(ev.time);
  if (ev.direction == -1) times_[1].push_back(ev.time);
}

void SlotSchedulePolicy::finish(double /*end_time*/, std::vector<PacketOut>& out) {
  for (const int dir : {+1, -1}) {
    const std::vector<double>& times = times_[dir > 0 ? 0 : 1];
    if (times.empty()) continue;
    const double last = *std::max_element(times.begin(), times.end());
    if (last / interval(dir) > kMaxSlots) {
      throw std::invalid_argument(name() + ": direction " + std::to_string(dir) +
                                  " has an arrival at " + std::to_string(last) +
                                  " s, past the longest schedule (" +
                                  std::to_string(static_cast<long long>(kMaxSlots)) + " slots)");
    }
  }
  schedule(+1, times_[0], out);
  schedule(-1, times_[1], out);
}

// ------------------------------------------------------------- BufloPolicy

void BufloPolicy::schedule(int dir, const std::vector<double>& times,
                           std::vector<PacketOut>& out) const {
  // Real packets occupy the next slots of a fixed-interval schedule; empty
  // slots up to max(data end, min_duration) become dummies.
  std::size_t queued = 0;  // real packets waiting for a slot
  std::size_t next_real = 0;
  const double data_end = times.empty() ? 0.0 : times.back();
  const double end = std::max(cfg_.min_duration, data_end);
  for (double t = 0.0; t <= end || next_real < times.size(); t += cfg_.interval) {
    // Count real packets that have arrived by this slot.
    while (next_real + queued < times.size() && times[next_real + queued] <= t) ++queued;
    const bool data = queued > 0;
    if (data) {
      --queued;
      ++next_real;
    }
    out.push_back({t, dir, cfg_.packet_size, !data});
    if (t > end + 120.0) break;  // safety against pathological schedules
  }
}

// ----------------------------------------------------------- TamarawPolicy

void TamarawPolicy::schedule(int dir, const std::vector<double>& times,
                             std::vector<PacketOut>& out) const {
  const double interval = this->interval(dir);
  // Schedule real packets onto the grid.
  std::size_t sent = 0;
  std::size_t count = 0;
  double t = 0.0;
  std::size_t arrived = 0;
  while (sent < times.size()) {
    while (arrived < times.size() && times[arrived] <= t) ++arrived;
    const bool data = arrived > sent;  // slot carries data if any arrived
    out.push_back({t, dir, cfg_.packet_size, !data});
    ++count;
    if (data) ++sent;
    t += interval;
  }
  // Pad the per-direction count up to a multiple of L.
  const auto mult = static_cast<std::size_t>(cfg_.pad_multiple);
  const std::size_t target = ((count + mult - 1) / mult) * mult;
  for (; count < target; ++count, t += interval) out.push_back({t, dir, cfg_.packet_size, true});
}

// ----------------------------------------------------- PadToConstantPolicy

void PadToConstantPolicy::on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) {
  std::int64_t size = ev.size;
  if (!cfg_.incoming_only || ev.direction < 0) {
    size = ((size + cfg_.quantum - 1) / cfg_.quantum) * cfg_.quantum;
  }
  out.push_back({ev.time, ev.direction, size, false});
}

}  // namespace stob::defenses
