#include "tcp/bbr.hpp"

#include <algorithm>

namespace stob::tcp {

namespace {
constexpr double kStartupGain = 2.885;  // 2/ln(2)
constexpr double kDrainGain = 1.0 / kStartupGain;
constexpr double kCwndGain = 2.0;
constexpr double kProbeGains[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr Duration kBwWindow = Duration::seconds(10);       // max-filter horizon
constexpr Duration kMinRttWindow = Duration::seconds(10);   // min-filter horizon
constexpr Duration kProbeRttDuration = Duration::millis(200);
}  // namespace

BbrCc::BbrCc(Bytes mss, Bytes initial_window)
    : mss_(mss.count()),
      initial_cwnd_(initial_window.count() > 0 ? initial_window.count() : 10 * mss_) {}

DataRate BbrCc::btlbw() const {
  return DataRate(bw_samples_.empty() ? 0 : bw_samples_.front().second);
}

Bytes BbrCc::bdp(double gain) const {
  const DataRate bw = btlbw();
  if (bw.is_zero() || min_rtt_ >= Duration::seconds(10)) {
    return Bytes(initial_cwnd_);
  }
  const double bytes = bw.gbps_f() * 1e9 / 8.0 * min_rtt_.sec() * gain;
  return Bytes(std::max<std::int64_t>(static_cast<std::int64_t>(bytes), 4 * mss_));
}

void BbrCc::update_btlbw(const AckEvent& ev) {
  // App-limited samples can only underestimate; the max filter makes them
  // safe to include, and dropping them entirely would starve the model on
  // request/response workloads.
  if (!ev.delivery_rate.is_zero()) {
    // Monotonic max-queue: a sample no larger than the new one can never be
    // the window's maximum again, because the new one expires later.
    const std::int64_t bps = ev.delivery_rate.bits_per_sec();
    while (!bw_samples_.empty() && bw_samples_.back().second <= bps) bw_samples_.pop_back();
    bw_samples_.emplace_back(ev.now, bps);
  }
  while (!bw_samples_.empty() && ev.now - bw_samples_.front().first > kBwWindow) {
    bw_samples_.pop_front();
  }
}

void BbrCc::update_min_rtt(const AckEvent& ev) {
  if (ev.rtt_sample.ns() > 0 &&
      (ev.rtt_sample < min_rtt_ || ev.now - min_rtt_stamp_ > kMinRttWindow)) {
    min_rtt_ = ev.rtt_sample;
    min_rtt_stamp_ = ev.now;
  }
}

void BbrCc::advance_mode(const AckEvent& ev) {
  switch (mode_) {
    case Mode::Startup: {
      // Full pipe: bandwidth grew <25% across three consecutive rounds.
      if (ev.now - round_start_ >= std::max(srtt_, Duration::millis(1))) {
        round_start_ = ev.now;
        const std::int64_t bw = btlbw().bits_per_sec();
        if (bw > full_bw_ + full_bw_ / 4) {
          full_bw_ = bw;
          full_bw_count_ = 0;
        } else if (full_bw_ > 0 && ++full_bw_count_ >= 3) {
          mode_ = Mode::Drain;
        }
      }
      break;
    }
    case Mode::Drain:
      if (ev.inflight <= bdp(1.0)) {
        mode_ = Mode::ProbeBw;
        cycle_index_ = 0;
        cycle_stamp_ = ev.now;
      }
      break;
    case Mode::ProbeBw: {
      if (ev.now - cycle_stamp_ >= std::max(min_rtt_, Duration::millis(1))) {
        cycle_index_ = (cycle_index_ + 1) % 8;
        cycle_stamp_ = ev.now;
      }
      // Periodic ProbeRTT when the min-RTT estimate goes stale.
      if (ev.now - min_rtt_stamp_ > kMinRttWindow) {
        mode_ = Mode::ProbeRtt;
        probe_rtt_done_ = ev.now + kProbeRttDuration;
      }
      break;
    }
    case Mode::ProbeRtt:
      if (ev.now >= probe_rtt_done_) {
        min_rtt_stamp_ = ev.now;  // samples taken during the floor refresh it
        mode_ = Mode::ProbeBw;
        cycle_index_ = 0;
        cycle_stamp_ = ev.now;
      }
      break;
  }
}

void BbrCc::on_ack(const AckEvent& ev) {
  srtt_ = ev.srtt;
  last_inflight_ = ev.inflight;
  update_btlbw(ev);
  update_min_rtt(ev);
  advance_mode(ev);
}

void BbrCc::on_loss(TimePoint /*now*/) {
  // BBRv1 does not react to individual losses; inflight is already capped
  // by cwnd = gain * BDP.
}

void BbrCc::on_rto(TimePoint /*now*/) {
  // Conservative restart that KEEPS the bandwidth model: re-probing from a
  // 10-segment window while thousands of lost segments block RTT/rate
  // samples would freeze recovery. Instead drop to steady ProbeBW at unit
  // gain — pace at the believed bottleneck rate, no extra probing — and
  // let normal sampling correct the model. (With no model yet, fall back
  // to Startup.)
  if (btlbw().is_zero()) {
    full_bw_ = 0;
    full_bw_count_ = 0;
    mode_ = Mode::Startup;
    return;
  }
  mode_ = Mode::ProbeBw;
  cycle_index_ = 2;  // unit gain phase
}

Bytes BbrCc::cwnd() const {
  switch (mode_) {
    case Mode::Startup:
      return bdp(kStartupGain) < Bytes(initial_cwnd_) ? Bytes(initial_cwnd_)
                                                      : bdp(kStartupGain);
    case Mode::Drain:
      return bdp(kCwndGain);
    case Mode::ProbeBw:
      return bdp(kCwndGain);
    case Mode::ProbeRtt:
      return Bytes(4 * mss_);
  }
  return Bytes(initial_cwnd_);
}

DataRate BbrCc::pacing_rate() const {
  const DataRate bw = btlbw();
  if (bw.is_zero()) {
    // No model yet: pace at initial cwnd per srtt, if known.
    if (srtt_.ns() <= 0) return DataRate(0);
    return DataRate::from(Bytes(initial_cwnd_), srtt_) * kStartupGain;
  }
  double gain = 1.0;
  switch (mode_) {
    case Mode::Startup: gain = kStartupGain; break;
    case Mode::Drain: gain = kDrainGain; break;
    case Mode::ProbeBw: gain = kProbeGains[cycle_index_]; break;
    case Mode::ProbeRtt: gain = 1.0; break;
  }
  return bw * gain;
}

}  // namespace stob::tcp
