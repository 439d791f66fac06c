#include "wf/synth_traces.hpp"

#include "util/rng.hpp"

namespace stob::wf {

namespace {

/// splitmix64-style mix so (seed, a, b) streams are independent.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xBF58476D1CE4E5B9ull);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

/// One page load shaped by a profile RNG (stable per identity) with
/// per-instance noise from a second stream.
Trace make_trace(Rng profile, Rng noise) {
  Trace t;
  const int bursts = static_cast<int>(profile.uniform_int(3, 12));
  const int base_in = static_cast<int>(profile.uniform_int(4, 24));
  const std::int64_t in_size = 900 + 50 * profile.uniform_int(0, 10);
  const double gap_scale = profile.uniform(0.5, 2.0);
  double time = 0.0;
  for (int b = 0; b < bursts; ++b) {
    const int reqs = 1 + static_cast<int>(noise.uniform_int(0, 1));
    for (int r = 0; r < reqs; ++r) {
      t.add(time, +1, 560 + 8 * noise.uniform_int(0, 10));
      time += gap_scale * noise.uniform(0.005, 0.02);
    }
    const int in_pkts = base_in + static_cast<int>(noise.uniform_int(0, 5));
    for (int k = 0; k < in_pkts; ++k) {
      t.add(time, -1, in_size + 8 * noise.uniform_int(-4, 4));
      time += gap_scale * noise.uniform(0.0005, 0.004);
    }
    time += gap_scale * noise.uniform(0.01, 0.05);
  }
  t.normalize();
  return t;
}

}  // namespace

Trace synth_site_trace(std::uint64_t seed, int site, std::uint64_t instance) {
  // The profile stream depends on the site only: every instance of a site
  // shares its shape. Noise depends on the instance as well.
  Rng profile(mix(seed, 0x517Eull, static_cast<std::uint64_t>(site)));
  Rng noise(mix(seed, static_cast<std::uint64_t>(site) + 1, instance + 1));
  return make_trace(profile, noise);
}

}  // namespace stob::wf
