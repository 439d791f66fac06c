// Allocation gate for the packet path.
//
// Runs the e2e.page_load smoke scenario of bench/perf_suite (first catalogue
// site, TLS records, seed 0xBE7C4) under the same counting operator new.
// Event counts are deterministic, so they are gated exactly; a change to the
// simulated traffic shows up here first. Allocations must stay below 0.05
// per event: the steady-state packet path (host demux, qdisc, NIC, pipe,
// scheduler) never reaches malloc, so one new allocation per packet fails
// this test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

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

}  // namespace
}  // namespace stob
