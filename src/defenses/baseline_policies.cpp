#include "defenses/baseline_policies.hpp"

namespace stob::defenses {

// -------------------------------------------------------- SplitStreamPolicy

void SplitStreamPolicy::on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) {
  const bool in_scope = !cfg_.incoming_only || ev.direction < 0;
  if (in_scope && ev.size > cfg_.threshold) {
    const std::int64_t first = ev.size / 2;
    const std::int64_t second = ev.size - first;
    out.push_back({ev.time, ev.direction, first, false});
    // The second half leaves after the first half's serialisation time.
    const double gap = static_cast<double>(first) * 8.0 /
                       static_cast<double>(cfg_.link_rate.bits_per_sec());
    out.push_back({ev.time + gap, ev.direction, second, false});
  } else {
    out.push_back({ev.time, ev.direction, ev.size, false});
  }
}

// -------------------------------------------------------- DelayStreamPolicy

void DelayStreamPolicy::begin(Rng& rng) {
  rng_ = &rng;
  shift_ = 0.0;
  prev_original_ = 0.0;
  first_ = true;
}

void DelayStreamPolicy::on_packet(const PacketEvent& ev, std::vector<PacketOut>& out) {
  const bool in_scope = !cfg_.incoming_only || ev.direction < 0;
  if (!first_ && in_scope) {
    const double gap = ev.time - prev_original_;
    if (gap > 0) shift_ += gap * rng_->uniform(cfg_.lo, cfg_.hi);
  }
  out.push_back({ev.time + shift_, ev.direction, ev.size, false});
  prev_original_ = ev.time;
  first_ = false;
}

}  // namespace stob::defenses
