// Allocation gates for the packet path and the warm-cache read path.
//
// The first runs the e2e.page_load smoke scenario of bench/perf_suite (first catalogue
// site, TLS records, seed 0xBE7C4) under the same counting operator new.
// Event counts are deterministic, so they are gated exactly; a change to the
// simulated traffic shows up here first. Allocations must stay below 0.05
// per event: the steady-state packet path (host demux, qdisc, NIC, pipe,
// scheduler) never reaches malloc, so one new allocation per packet fails
// this test. The second serves a whole grid from a warm result cache and
// bounds the allocations per cell: key derivation, one buffer per entry
// read, in-place header strip, payload decode.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/job_codec.hpp"
#include "exp/result_cache.hpp"
#include "net/packet.hpp"
#include "util/alloc_probe.hpp"
#include "util/rng.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

namespace stob {
namespace {

TEST(AllocGate, PageLoadPacketPathStaysOffMalloc) {
  workload::PageLoadOptions options;
  options.tls_records = true;
  const workload::SiteProfile& site = workload::nine_sites()[0];  // builds the catalogue

  net::PacketIdScope ids;
  Rng rng(0xBE7C4ull);
  const std::uint64_t before = util::allocations();
  const workload::PageLoadResult r = workload::run_page_load(site, rng, options);
  const std::uint64_t allocs = util::allocations() - before;

  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.sim_events, 5313u);
  const double per_event = static_cast<double>(allocs) / static_cast<double>(r.sim_events);
  EXPECT_LT(per_event, 0.05) << allocs << " allocations for " << r.sim_events << " events";
  std::printf("page load: %llu events, %llu allocations (%.4f per event)\n",
              static_cast<unsigned long long>(r.sim_events),
              static_cast<unsigned long long>(allocs), per_event);
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
  // 279 allocations (15.5 per cell) with libstdc++ 12; the three-loop
  // read path this replaced (64 KiB chunked reads, a payload copy, one salt
  // hash per cell) made 704 (39.1). One more allocation per cell fails.
  EXPECT_LE(per_cell, 16.0) << allocs << " allocations for " << results.size() << " cells";
  std::printf("warm grid: %zu cells, %llu allocations (%.1f per cell)\n", results.size(),
              static_cast<unsigned long long>(allocs), per_cell);
}

}  // namespace
}  // namespace stob
