// Exact-count gates for the packet path, the collection grid and the
// warm-cache read path. Event counts are deterministic, so they are gated
// exactly; a change to the simulated traffic shows up here first.
// Allocations come from a counting operator new and are capped at the
// measured counts. Timing is judged elsewhere, by interleaved A/B runs of
// the pipeline benchmark (README, "Measuring performance").
//
// The first two run one smoke page load (first catalogue site, TLS records,
// seed 0xBE7C4) with cubic and with bbr. The scheduler's heap high-water
// mark and cancel count are gated exactly too, read from a second,
// identical load with a metrics registry installed: the first moves with
// how many events wait in the heap at once (one per pipe's arrival lane,
// not one per packet in flight), the second with how often transport
// timers are re-armed. The steady-state packet path (host demux, qdisc,
// NIC, pipe, scheduler, congestion control) never reaches malloc, so one
// new allocation per packet fails these tests. The third serves a whole
// grid from a warm result cache and bounds the allocations per cell: key
// derivation, one buffer per entry read, in-place header strip, payload
// decode. The next two run the Table 1 collection grid cold (3 sites x 4
// samples x {reno, cubic, bbr}), once on a clean path and once under the
// adverse-mix fault profile, and pin its events, completed loads, deepest
// heap, cancels and one SHA-256 over every cell's trace; the event total
// must not move at 2 jobs. The last replays synthetic traces through the
// combined policy and gates the allocations exactly: the chain's stages
// share one emission buffer and one record buffer, which becomes the
// defended trace, so a per-stage trace or buffer shows here.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "defenses/policy.hpp"
#include "exp/experiment.hpp"
#include "exp/job_codec.hpp"
#include "exp/result_cache.hpp"
#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "util/alloc_probe.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "wf/trace.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

namespace stob {
namespace {

struct PageLoadCount {
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;
  std::uint64_t heap_high_water = 0;
  std::uint64_t cancelled = 0;
};

/// One smoke page load under congestion control `cca` at both ends.
PageLoadCount smoke_page_load(const char* cca) {
  workload::PageLoadOptions options;
  options.tls_records = true;
  options.client_conn.cca = cca;
  options.server_conn.cca = cca;
  const workload::SiteProfile& site = workload::nine_sites()[0];  // builds the catalogue

  net::PacketIdScope ids;
  Rng rng(0xBE7C4ull);
  const std::uint64_t before = util::allocations();
  const workload::PageLoadResult r = workload::run_page_load(site, rng, options);
  const std::uint64_t allocs = util::allocations() - before;

  EXPECT_TRUE(r.completed) << cca;

  // The registry allocates on its own, so the scheduler gauges come from a
  // second run of the same load.
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetrics install(registry);
    net::PacketIdScope again;
    Rng rerun(0xBE7C4ull);
    workload::run_page_load(site, rerun, options);
  }
  EXPECT_EQ(registry.gauge("sim.events_executed"), static_cast<double>(r.sim_events)) << cca;
  const auto high_water = static_cast<std::uint64_t>(registry.gauge("sim.heap_high_water"));
  const auto cancelled = static_cast<std::uint64_t>(registry.gauge("sim.events_cancelled"));

  const double per_event = static_cast<double>(allocs) / static_cast<double>(r.sim_events);
  std::printf(
      "page load (%s): %llu events, %llu allocations (%.4f per event), heap high water %llu, "
      "%llu cancelled\n",
      cca, static_cast<unsigned long long>(r.sim_events), static_cast<unsigned long long>(allocs),
      per_event, static_cast<unsigned long long>(high_water),
      static_cast<unsigned long long>(cancelled));
  return {r.sim_events, allocs, high_water, cancelled};
}

// The caps are the counts measured with libstdc++ 12: 225 (cubic) and 215
// (bbr), so one more allocation per page load fails either gate.
TEST(AllocGate, PageLoadPacketPathStaysOffMalloc) {
  const PageLoadCount c = smoke_page_load("cubic");
  EXPECT_EQ(c.events, 5313u);
  EXPECT_LT(static_cast<double>(c.allocations) / static_cast<double>(c.events), 0.05);
  EXPECT_LE(c.allocations, 225u);
  EXPECT_EQ(c.heap_high_water, 16u);  // 112 with one heap event per packet in flight
  EXPECT_EQ(c.cancelled, 1524u);
}

TEST(AllocGate, BbrPageLoadPacketPathStaysOffMalloc) {
  const PageLoadCount c = smoke_page_load("bbr");
  EXPECT_EQ(c.events, 4262u);
  EXPECT_LE(c.allocations, 215u);
  EXPECT_EQ(c.heap_high_water, 16u);  // 80 with one heap event per packet in flight
  EXPECT_EQ(c.cancelled, 1259u);
}

TEST(AllocGate, WarmCacheGridAllocationsPerCell) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("alloc_gate_cache_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  exp::ExperimentGrid grid;
  grid.sites = workload::nine_sites();
  grid.samples = 2;
  grid.base_seed = 0xCAC4Eull;
  exp::RunOptions opts;
  opts.jobs = 1;
  {
    exp::ResultCache cold(dir, exp::kWorkerPayloadVersion);
    opts.cache = &cold;
    exp::run_grid(grid, opts);  // fill
  }

  exp::ResultCache warm(dir, exp::kWorkerPayloadVersion);
  opts.cache = &warm;
  const std::uint64_t before = util::allocations();
  const std::vector<exp::JobResult> results = exp::run_grid(grid, opts);
  const std::uint64_t allocs = util::allocations() - before;
  fs::remove_all(dir);

  ASSERT_EQ(results.size(), 18u);
  ASSERT_EQ(warm.stats().hits, 18u);
  const double per_cell = static_cast<double>(allocs) / static_cast<double>(results.size());
  // 117 allocations (6.5 per cell) with libstdc++ 12. Building each key's
  // preimage in a growing string and hashing a copy made 171 (9.5);
  // building a whole obs::RunManifest per cell key made 279 (15.5); the
  // three-loop read path before that (64 KiB chunked reads, a payload copy,
  // one salt hash per cell) made 704 (39.1). One more allocation in the
  // grid fails.
  EXPECT_LE(per_cell, 6.5) << allocs << " allocations for " << results.size() << " cells";
  std::printf("warm grid: %zu cells, %llu allocations (%.1f per cell)\n", results.size(),
              static_cast<unsigned long long>(allocs), per_cell);
}

struct GridCount {
  std::uint64_t events = 0;
  std::size_t completed = 0;
  std::size_t cells = 0;
  std::uint64_t allocations = 0;
  std::uint64_t heap_high_water = 0;  ///< the deepest heap of any cell
  std::uint64_t cancelled = 0;        ///< summed over the cells
  std::string trace_digest;           ///< SHA-256 over every cell's trace, in cell order
};

/// SHA-256 over the traces in order: each trace's packet count, then per
/// packet the bits of its time, its direction and its size.
std::string traces_digest(const std::vector<exp::JobResult>& results) {
  util::Sha256 sha;
  for (const exp::JobResult& r : results) {
    const std::uint64_t n = r.trace.size();
    sha.update(&n, sizeof n);
    for (const wf::PacketRecord& p : r.trace.packets()) {
      std::uint64_t time_bits = 0;
      static_assert(sizeof time_bits == sizeof p.time);
      std::memcpy(&time_bits, &p.time, sizeof time_bits);
      const std::int64_t fields[3] = {static_cast<std::int64_t>(time_bits), p.direction, p.size};
      sha.update(fields, sizeof fields);
    }
  }
  return sha.hex_digest();
}

/// The Table 1 collection grid: the first three catalogue sites x 4 samples
/// x {reno, cubic, bbr}, TLS records on, with an optional fault axis.
GridCount grid_counts(const char* name, std::vector<fault::PathProfile> faults) {
  exp::ExperimentGrid grid;
  const auto& all = workload::nine_sites();
  grid.sites.assign(all.begin(), all.begin() + 3);
  grid.samples = 4;
  grid.ccas = {"reno", "cubic", "bbr"};
  grid.faults = std::move(faults);
  grid.base_seed = 0x57AB1E5EEDull;
  exp::RunOptions opts;
  opts.page.tls_records = true;
  opts.jobs = 1;

  GridCount c;
  const std::uint64_t before = util::allocations();
  const std::vector<exp::JobResult> results = exp::run_grid(grid, opts);
  c.allocations = util::allocations() - before;
  c.cells = results.size();
  for (const exp::JobResult& r : results) {
    c.events += r.sim_events;
    c.completed += r.completed ? 1 : 0;
  }
  c.trace_digest = traces_digest(results);

  opts.jobs = 2;
  std::uint64_t parallel_events = 0;
  for (const exp::JobResult& r : exp::run_grid(grid, opts)) parallel_events += r.sim_events;
  EXPECT_EQ(parallel_events, c.events) << name << " at 2 jobs";

  // The scheduler gauges come from a second run, one registry per cell.
  opts.jobs = 1;
  for (const exp::JobSpec& spec : grid.jobs()) {
    obs::MetricsRegistry registry;
    {
      obs::ScopedMetrics install(registry);
      exp::run_job(grid, spec, opts);
    }
    EXPECT_EQ(registry.gauge("sim.events_executed"),
              static_cast<double>(results[spec.index].sim_events))
        << name << " cell " << spec.index;
    c.heap_high_water = std::max(
        c.heap_high_water, static_cast<std::uint64_t>(registry.gauge("sim.heap_high_water")));
    c.cancelled += static_cast<std::uint64_t>(registry.gauge("sim.events_cancelled"));
  }

  std::printf(
      "%s grid: %zu cells, %llu events, %zu completed, %llu allocations (%.1f per cell), heap "
      "high water %llu, %llu cancelled, traces %s\n",
      name, c.cells, static_cast<unsigned long long>(c.events), c.completed,
      static_cast<unsigned long long>(c.allocations),
      static_cast<double>(c.allocations) / static_cast<double>(c.cells),
      static_cast<unsigned long long>(c.heap_high_water),
      static_cast<unsigned long long>(c.cancelled), c.trace_digest.c_str());
  return c;
}

// Allocations are capped at the counts measured with libstdc++ 12: 10,085
// (280.1 per cell) cold and 32,895 (913.8 per cell) under the fault
// profile. Every load completes on both grids. The trace digests pin every
// packet of every cell, so a same-tick reorder that keeps the counts (a
// retransmission under loss leaving in another order) still fails.
TEST(AllocGate, ColdGridCountsAreExact) {
  const GridCount c = grid_counts("cold", {});
  ASSERT_EQ(c.cells, 36u);
  EXPECT_EQ(c.events, 295519u);
  EXPECT_EQ(c.completed, 36u);
  EXPECT_LE(c.allocations, 10085u);
  EXPECT_EQ(c.heap_high_water, 24u);
  EXPECT_EQ(c.cancelled, 87654u);
  EXPECT_EQ(c.trace_digest, "53ea3336fe7b4a651243819dbeb435a7ab1015158985e8f6a5a686de234fcf96");
}

TEST(AllocGate, ChaosGridCountsAreExact) {
  const GridCount c = grid_counts("chaos", {fault::PathProfile::symmetric(fault::adverse_mix())});
  ASSERT_EQ(c.cells, 36u);
  EXPECT_EQ(c.events, 357644u);
  EXPECT_EQ(c.completed, 36u);
  EXPECT_LE(c.allocations, 32895u);
  EXPECT_EQ(c.heap_high_water, 49u);
  EXPECT_EQ(c.cancelled, 74101u);
  EXPECT_EQ(c.trace_digest, "e2b4f1105ab4d1e2aad2b60856869e6b2b3e69fc893203405ee5f2d6c262ca28");
}

/// `n` packets in time order, about 70 % incoming (a third of those large
/// enough to split), on a fixed seed.
wf::Trace synthetic_trace(std::size_t n) {
  Rng rng(0xA11C0 + n);
  wf::Trace t;
  double time = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    time += rng.exponential(500.0);
    const bool incoming = rng.chance(0.7);
    t.add(time, incoming ? -1 : +1,
          incoming ? rng.uniform_int(600, 1514) : rng.uniform_int(60, 600));
  }
  return t;
}

/// Allocations of one replay the way the attack stage runs it: a fresh
/// policy from the registry, then run_policy.
std::uint64_t combined_replay_allocations(const wf::Trace& trace) {
  Rng rng(7);
  const std::uint64_t before = util::allocations();
  {
    const std::unique_ptr<defenses::Policy> policy = defenses::make_policy("combined");
    const wf::Trace out = defenses::run_policy(*policy, trace, rng);
    EXPECT_GT(out.size(), trace.size());
  }
  return util::allocations() - before;
}

TEST(AllocGate, CombinedReplayAllocationsAreExact) {
  defenses::make_policy("combined");  // builds the registry
  const wf::Trace small = synthetic_trace(500);
  const wf::Trace large = synthetic_trace(4000);
  const std::uint64_t a_small = combined_replay_allocations(small);
  const std::uint64_t a_large = combined_replay_allocations(large);
  // 7 for either length with libstdc++ 12: the policy, its stage vector
  // and two stages, then the replay's emission buffer (sized to the input,
  // grown once when split emits more) and the record buffer that becomes
  // the defended trace. Streaming the trace through a chain that buffered
  // events, built one trace per stage and copied the result twice made 25
  // and 28.
  EXPECT_EQ(a_small, 7u);
  EXPECT_EQ(a_large, 7u);
  std::printf("combined replay: %llu allocations at 500 packets, %llu at 4000\n",
              static_cast<unsigned long long>(a_small), static_cast<unsigned long long>(a_large));
}

}  // namespace
}  // namespace stob
