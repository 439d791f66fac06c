#include "fault/fault.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace_recorder.hpp"
#include "util/log.hpp"

namespace stob::fault {

// ------------------------------------------------------------- scenarios

Profile clean() { return Profile{}; }

Profile bursty_loss() {
  Profile p;
  p.name = "bursty-loss";
  p.bursty = {0.03, 0.25, 0.0005, 0.30};
  return p;
}

Profile reordering() {
  Profile p;
  p.name = "reordering";
  p.reorder = {0.05, 4, Duration::millis(1)};
  return p;
}

Profile duplication() {
  Profile p;
  p.name = "duplication";
  p.duplicate = {0.03};
  return p;
}

Profile corruption() {
  Profile p;
  p.name = "corruption";
  p.corrupt = {0.02};
  return p;
}

Profile jitter_heavy() {
  Profile p;
  p.name = "jitter-heavy";
  p.jitter = {Duration::millis(8)};
  return p;
}

Profile bandwidth_oscillation() {
  Profile p;
  p.name = "bw-oscillation";
  p.oscillation = {0.25, Duration::seconds(2)};
  return p;
}

Profile link_flap() {
  Profile p;
  p.name = "link-flap";
  p.flap = {Duration::seconds(3), Duration::millis(300)};
  return p;
}

Profile adverse_mix() {
  Profile p;
  p.name = "adverse-mix";
  p.bursty = {0.01, 0.35, 0.0002, 0.15};
  p.reorder = {0.02, 3, Duration::millis(1)};
  p.duplicate = {0.005};
  p.corrupt = {0.005};
  p.jitter = {Duration::millis(3)};
  return p;
}

std::vector<PathProfile> all_scenarios() {
  std::vector<PathProfile> out;
  for (Profile p : {clean(), bursty_loss(), reordering(), duplication(), corruption(),
                    jitter_heavy(), bandwidth_oscillation(), link_flap(), adverse_mix()}) {
    out.push_back(PathProfile::symmetric(std::move(p)));
  }
  return out;
}

// -------------------------------------------------------------- injector

FaultInjector::FaultInjector(sim::Simulator& sim, net::Pipe& pipe, Profile profile, Rng rng)
    : sim_(sim),
      pipe_(pipe),
      profile_(std::move(profile)),
      rng_(rng),
      attached_at_(sim.now()),
      base_rate_(pipe.config().rate),
      last_inorder_arrival_(sim.now()) {
  pipe_.set_fault_model(this);
  if (profile_.oscillation.enabled()) schedule_oscillation();
}

FaultInjector::~FaultInjector() {
  if (pipe_.fault_model() == this) pipe_.set_fault_model(nullptr);
}

bool FaultInjector::link_down(TimePoint now) const {
  if (!profile_.flap.enabled()) return false;
  if (now - attached_at_ >= profile_.active_for) return false;
  const std::int64_t cycle = (profile_.flap.up + profile_.flap.down).ns();
  if (cycle <= 0) return false;
  const std::int64_t phase = (now - attached_at_).ns() % cycle;
  return phase >= profile_.flap.up.ns();
}

void FaultInjector::schedule_oscillation() {
  const Duration half = profile_.oscillation.period / 2;
  sim_.schedule_after(half, [this] {
    if (sim_.now() - attached_at_ >= profile_.active_for) {
      pipe_.set_rate(base_rate_);
      rate_low_ = false;
      return;  // horizon reached: link stays at base rate, no more events
    }
    rate_low_ = !rate_low_;
    pipe_.set_rate(rate_low_ ? base_rate_ * profile_.oscillation.low_mult : base_rate_);
    schedule_oscillation();
  });
}

void FaultInjector::on_transmitted(net::Pipe& pipe, net::Packet&& p) {
  ++stats_.inspected;
  const TimePoint now = sim_.now();

  if (link_down(now)) {
    ++stats_.flap_lost;
    obs::note_fault(obs::FaultKind::Flap, p, now);
    pipe.count_lost(p);
    return;
  }

  bool lost = false;
  if (profile_.bursty.enabled()) {
    // Advance the Gilbert-Elliott chain once per packet, then sample loss
    // at the new state's rate.
    if (ge_bad_) {
      if (rng_.chance(profile_.bursty.p_exit_bad)) ge_bad_ = false;
    } else if (rng_.chance(profile_.bursty.p_enter_bad)) {
      ge_bad_ = true;
    }
    lost = rng_.chance(ge_bad_ ? profile_.bursty.loss_bad : profile_.bursty.loss_good);
  }
  if (!lost && profile_.iid_loss > 0.0) lost = rng_.chance(profile_.iid_loss);
  if (lost) {
    ++stats_.lost;
    obs::note_fault(obs::FaultKind::Loss, p, now);
    pipe.count_lost(p);
    return;
  }

  if (profile_.corrupt.enabled() && rng_.chance(profile_.corrupt.probability)) {
    p.corrupted = true;
    ++stats_.corrupted;
    obs::note_fault(obs::FaultKind::Corrupt, p, now);
  }

  const bool duplicate =
      profile_.duplicate.enabled() && rng_.chance(profile_.duplicate.probability);
  // The duplicate budget must reach any listener before either copy's rx.
  if (duplicate) {
    ++stats_.duplicated;
    obs::note_fault(obs::FaultKind::Duplicate, p, now);
  }
  net::Packet dup = duplicate ? p : net::Packet{};

  Duration extra;
  if (profile_.reorder.enabled() && rng_.chance(profile_.reorder.probability)) {
    // Hold this packet so the ones behind it overtake; held packets skip
    // the in-order clamp (overtaking is the point).
    extra = profile_.reorder.hold *
            rng_.uniform_int(1, static_cast<std::int64_t>(std::max(profile_.reorder.depth, 1)));
    ++stats_.reordered;
    obs::note_fault(obs::FaultKind::Reorder, p, now);
  } else {
    if (profile_.jitter.enabled()) {
      extra = Duration(rng_.uniform_int(0, profile_.jitter.max.ns()));
      if (extra > Duration()) obs::note_fault(obs::FaultKind::Jitter, p, now);
    }
    // Jitter is order-preserving: never schedule an arrival before the
    // previous in-order packet's arrival.
    TimePoint arrival = now + pipe.config().delay + extra;
    if (arrival < last_inorder_arrival_) {
      extra += last_inorder_arrival_ - arrival;
      arrival = last_inorder_arrival_;
    }
    last_inorder_arrival_ = arrival;
  }
  ++stats_.delivered;
  pipe.deliver(std::move(p), extra);

  // The copy trails the original by a microsecond so both arrivals are
  // distinct, ordered events.
  if (duplicate) pipe.deliver(std::move(dup), extra + Duration::micros(1));
}

PathFaults::PathFaults(sim::Simulator& sim, net::DuplexPath& path, const PathProfile& profile,
                       Rng rng)
    : forward_(sim, path.forward(), profile.forward, rng.fork()),
      backward_(sim, path.backward(), profile.backward, rng.fork()) {}

}  // namespace stob::fault
