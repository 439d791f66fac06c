// Deterministic synthetic k-FP traces for the feature-extraction golden.
//
// KfpFeatureGolden (tests/test_wf_parity.cpp) pins the SHA-256 of the k-FP
// features of a fixed corpus built here, so the generator must stay
// byte-identical: a changed trace re-records that golden. Each monitored
// "site" gets a stable burst profile derived from its id, and each instance
// adds its own noise; every trace is a pure function of (seed, site,
// instance). Experiments never read these traces: every trace they
// evaluate comes from a simulated page load.
#pragma once

#include <cstdint>

#include "wf/trace.hpp"

namespace stob::wf {

/// Instance `instance` of monitored site `site`: the site's burst profile
/// plus per-instance noise.
Trace synth_site_trace(std::uint64_t seed, int site, std::uint64_t instance);

}  // namespace stob::wf
