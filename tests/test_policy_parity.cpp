// Baseline-parity suite for the streaming policy migration.
//
// Every Table 1 row used to be a whole-trace transform; each now runs as a
// defenses::Policy through run_policy, and the benches reach them through
// the registry (policy_info("split"), all_defenses()). The migration gate
// is byte-identity. For the §3 primitives (split / delay / combined) this
// file keeps the legacy transform bodies (copied verbatim from the
// pre-migration code) as reference implementations and asserts the zoo
// entries produce the *same trace, bit for bit*, across seeds, trace
// shapes, and Rng interleavings. For FRONT, BuFLO, Tamaraw and ALPaCA-pad
// it pins one SHA-256 per defense, recorded from the whole-trace
// transforms before their port. It also checks that the experiment grid
// built on top of all of them stays byte-identical at any --jobs value.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cca_guard.hpp"
#include "defenses/baseline_policies.hpp"
#include "defenses/policy.hpp"
#include "defenses/regulator.hpp"
#include "defenses/stack_mount.hpp"
#include "defenses/wtfpad.hpp"
#include "exp/experiment.hpp"
#include "util/sha256.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

namespace stob::defenses {
namespace {

// ------------------------------------------------- legacy reference bodies

wf::Trace legacy_split(const wf::Trace& trace, const SplitStreamPolicy::Config& cfg) {
  wf::Trace out;
  for (const wf::PacketRecord& p : trace.packets()) {
    const bool in_scope = !cfg.incoming_only || p.direction < 0;
    if (in_scope && p.size > cfg.threshold) {
      const std::int64_t first = p.size / 2;
      const std::int64_t second = p.size - first;
      out.add(p.time, p.direction, first);
      const double gap = static_cast<double>(first) * 8.0 /
                         static_cast<double>(cfg.link_rate.bits_per_sec());
      out.add(p.time + gap, p.direction, second);
    } else {
      out.add(p.time, p.direction, p.size);
    }
  }
  out.normalize();
  return out;
}

wf::Trace legacy_delay(const wf::Trace& trace, const DelayStreamPolicy::Config& cfg,
                       Rng& rng) {
  wf::Trace out;
  const auto& pkts = trace.packets();
  double shift = 0.0;
  double prev_original = pkts.empty() ? 0.0 : pkts.front().time;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const wf::PacketRecord& p = pkts[i];
    const bool in_scope = !cfg.incoming_only || p.direction < 0;
    if (i > 0 && in_scope) {
      const double gap = p.time - prev_original;
      if (gap > 0) shift += gap * rng.uniform(cfg.lo, cfg.hi);
    }
    out.add(p.time + shift, p.direction, p.size);
    prev_original = p.time;
  }
  out.normalize();
  return out;
}

wf::Trace legacy_combined(const wf::Trace& trace, const SplitStreamPolicy::Config& split,
                          const DelayStreamPolicy::Config& delay, Rng& rng) {
  return legacy_delay(legacy_split(trace, split), delay, rng);
}

// ------------------------------------------------------------ trace shapes

wf::Trace web_like_trace(std::uint64_t seed, std::size_t packets = 200) {
  Rng rng(seed);
  wf::Trace t;
  double time = 0.0;
  for (std::size_t i = 0; i < packets; ++i) {
    const bool outgoing = rng.chance(0.2);
    const std::int64_t size =
        outgoing ? rng.uniform_int(100, 700) : rng.uniform_int(400, 1514);
    t.add(time, outgoing ? +1 : -1, size);
    time += rng.uniform(0.0005, 0.01);
  }
  t.normalize();
  return t;
}

// Bursty trace with simultaneous timestamps and tiny/huge sizes — the shapes
// where an ordering or interpolation difference between the legacy transform
// and the streaming port would surface.
wf::Trace hostile_trace(std::uint64_t seed) {
  Rng rng(seed);
  wf::Trace t;
  double time = 0.0;
  for (int burst = 0; burst < 20; ++burst) {
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < n; ++i) {
      t.add(time, rng.chance(0.5) ? +1 : -1, rng.uniform_int(1, 3000));
    }
    time += rng.chance(0.3) ? 0.0 : rng.uniform(0.0001, 0.05);
  }
  t.normalize();
  return t;
}

wf::Trace simulated_trace(std::uint64_t seed) {
  Rng rng(seed);
  const auto& sites = workload::nine_sites();
  workload::PageLoadOptions opts;
  return workload::run_page_load(sites[seed % sites.size()], rng, opts).trace;
}

std::vector<wf::Trace> parity_corpus() {
  std::vector<wf::Trace> traces;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    traces.push_back(web_like_trace(seed));
    traces.push_back(hostile_trace(seed * 31));
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) traces.push_back(simulated_trace(seed));
  traces.push_back(wf::Trace{});                      // empty
  wf::Trace one;
  one.add(0.0, -1, 1500);                             // single splittable packet
  one.normalize();
  traces.push_back(one);
  // Not re-based: the first packet at 0.25 s, so the first-to-last span
  // differs from the last timestamp.
  wf::Trace late = web_like_trace(13);
  for (wf::PacketRecord& p : late.packets()) p.time += 0.25;
  traces.push_back(late);
  return traces;
}

// ------------------------------------------------------------ parity gate

TEST(PolicyParity, SplitByteIdentical) {
  const PolicyInfo& migrated = policy_info("split");
  for (const wf::Trace& t : parity_corpus()) {
    for (std::uint64_t seed : {1ull, 99ull, 20251117ull}) {
      Rng rng(seed);
      const wf::Trace got = run_policy(migrated, t, rng);
      EXPECT_EQ(got, legacy_split(t, SplitStreamPolicy::Config{}));
      // The migrated split must consume exactly as much randomness as the
      // legacy transform did (none): the stream must stay in sync.
      Rng probe(seed);
      EXPECT_EQ(rng.uniform(0.0, 1.0), probe.uniform(0.0, 1.0));
    }
  }
}

TEST(PolicyParity, DelayByteIdentical) {
  const PolicyInfo& migrated = policy_info("delay");
  for (const wf::Trace& t : parity_corpus()) {
    for (std::uint64_t seed : {1ull, 99ull, 20251117ull}) {
      Rng legacy_rng(seed);
      const wf::Trace want = legacy_delay(t, DelayStreamPolicy::Config{}, legacy_rng);
      Rng rng(seed);
      const wf::Trace got = run_policy(migrated, t, rng);
      EXPECT_EQ(got, want);
      // Identical residual Rng state: draw-for-draw replication, not just
      // identical output.
      EXPECT_EQ(rng.uniform(0.0, 1.0), legacy_rng.uniform(0.0, 1.0));
    }
  }
}

TEST(PolicyParity, CombinedByteIdentical) {
  const PolicyInfo& migrated = policy_info("combined");
  for (const wf::Trace& t : parity_corpus()) {
    for (std::uint64_t seed : {1ull, 99ull, 20251117ull}) {
      Rng legacy_rng(seed);
      const wf::Trace want = legacy_combined(t, SplitStreamPolicy::Config{},
                                             DelayStreamPolicy::Config{}, legacy_rng);
      Rng rng(seed);
      EXPECT_EQ(run_policy(migrated, t, rng), want);
      EXPECT_EQ(rng.uniform(0.0, 1.0), legacy_rng.uniform(0.0, 1.0));
    }
  }
}

TEST(PolicyParity, NonDefaultConfigsStayIdentical) {
  SplitStreamPolicy::Config scfg;
  scfg.threshold = 600;
  scfg.incoming_only = false;
  DelayStreamPolicy::Config dcfg;
  dcfg.lo = 0.5;
  dcfg.hi = 1.5;
  dcfg.incoming_only = false;
  SplitStreamPolicy split(scfg);
  DelayStreamPolicy delay(dcfg);
  for (const wf::Trace& t : parity_corpus()) {
    Rng a(5), b(5);
    EXPECT_EQ(run_policy(split, t, a), legacy_split(t, scfg));
    EXPECT_EQ(run_policy(delay, t, a), legacy_delay(t, dcfg, b));
    std::vector<std::unique_ptr<Policy>> stages;
    stages.push_back(std::make_unique<SplitStreamPolicy>(scfg));
    stages.push_back(std::make_unique<DelayStreamPolicy>(dcfg));
    ChainPolicy combined(std::move(stages));
    Rng c(5), d(5);
    EXPECT_EQ(run_policy(combined, t, c), legacy_combined(t, scfg, dcfg, d));
  }
}

// A registry row is shared by every worker of a grid, so replaying through
// it must leave no state behind: each replay builds a fresh policy, and
// repeated replays from equal Rngs match a policy built by hand.
TEST(PolicyParity, RegistryRowsAreStateless) {
  for (const wf::Trace& t : parity_corpus()) {
    for (const PolicyInfo& row : all_defenses()) {
      Rng a(42), b(42), c(42);
      const wf::Trace first = run_policy(row, t, a);
      EXPECT_EQ(run_policy(row, t, b), first) << row.name;
      EXPECT_EQ(run_policy(*make_policy(row.name), t, c), first) << row.name;
    }
  }
}

// ------------------------------------------------- Table 1 baseline pins

/// SHA-256 over `name` applied to every parity trace under three seeds:
/// each output's packet count and packets (fields as raw bytes), then the
/// next draw of the Rng it used, so the draw count is pinned too.
std::string baseline_digest(const std::string& name, const std::vector<wf::Trace>& corpus) {
  util::Sha256 h;
  const auto put = [&h](const auto& v) { h.update(&v, sizeof v); };
  for (const wf::Trace& t : corpus) {
    for (std::uint64_t seed : {1ull, 99ull, 20251117ull}) {
      Rng rng(seed);
      const wf::Trace out = run_policy(policy_info(name), t, rng);
      put(static_cast<std::uint64_t>(out.size()));
      for (const wf::PacketRecord& p : out.packets()) {
        put(p.time);
        put(static_cast<std::int64_t>(p.direction));
        put(p.size);
      }
      put(rng.next());
    }
  }
  return h.hex_digest();
}

// The four literature baselines' output, pinned byte for byte over the
// parity corpus. The digests were recorded from the whole-trace transforms
// these policies replaced, so the ports reproduce them exactly.
TEST(PolicyParity, BaselinesPinnedByHash) {
  const std::vector<wf::Trace> corpus = parity_corpus();
  EXPECT_EQ(baseline_digest("FRONT", corpus),
            "6225e6fa14d5217bdf9cb10fdcf5303abcdec2bc0856ebb339238ceed2e834ff");
  EXPECT_EQ(baseline_digest("BuFLO", corpus),
            "f12c5d5799f7d0192e176de335f5df216f0724d6fbb662d85f402e0fd0176f0b");
  EXPECT_EQ(baseline_digest("Tamaraw", corpus),
            "6a36381e22562587760405c56e5cc9e170b74c5134ca1f6c16eddefb61ee4632");
  EXPECT_EQ(baseline_digest("ALPaCA-pad", corpus),
            "2cb816d6e98eac0b1a3d86747a715e7ec578d40503418a25d2c6d33cd2f7bc13");
}

TEST(PolicyParity, UnknownPolicyNameThrows) {
  EXPECT_THROW(make_policy("no-such-policy"), std::invalid_argument);
  EXPECT_THROW(policy_info(""), std::invalid_argument);
}

// ----------------------------------------------- grid-level byte identity

// The table1/chaos harnesses inherit determinism from the engine; this pins
// the defense axis specifically: same grid, --jobs 1 vs 4, every result
// byte-identical — including the migrated and the new policy-backed zoo
// entries.
TEST(PolicyParity, GridByteIdenticalAcrossJobCounts) {
  exp::ExperimentGrid grid;
  const auto& nine = workload::nine_sites();
  grid.sites.assign(nine.begin(), nine.begin() + 2);
  grid.samples = 2;
  grid.base_seed = 20251117;
  grid.defenses.push_back({"none", nullptr});
  for (const PolicyInfo& d : all_defenses()) grid.defenses.push_back({d.name, &d});

  exp::RunOptions serial;
  serial.jobs = 1;
  exp::RunOptions parallel = serial;
  parallel.jobs = 4;
  const auto a = exp::run_grid(grid, serial);
  const auto b = exp::run_grid(grid, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(exp::results_identical(a[i], b[i])) << "job " << i;
  }
}

// ------------------------------------------------------ in-stack mounting

TEST(SegmentMount, PageLoadCompletesUnderMountedRegulator) {
  const auto& sites = workload::nine_sites();
  workload::PageLoadOptions opts;
  SegmentMount mount(std::make_unique<RegulatorPolicy>(), /*seed=*/7);
  core::CcaGuard guard(mount);
  opts.server_conn.policy = &guard;
  Rng rng(3);
  const auto result = workload::run_page_load(sites[0], rng, opts);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.trace.size(), 0u);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace.packets()[i].time, result.trace.packets()[i - 1].time);
  }
}

TEST(SegmentMount, DeterministicAcrossRuns) {
  const auto& sites = workload::nine_sites();
  auto run_once = [&] {
    workload::PageLoadOptions opts;
    SegmentMount mount(std::make_unique<WtfPadPolicy>(), /*seed=*/21);
    core::CcaGuard guard(mount);
    opts.server_conn.policy = &guard;
    Rng rng(5);
    return workload::run_page_load(sites[1], rng, opts).trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace stob::defenses
