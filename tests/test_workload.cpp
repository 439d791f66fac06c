// Tests for the workload layer: site profiles, page plans, full page loads
// through the simulated stack, dataset collection, and bulk transfers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/policies.hpp"
#include "tcp/tcp_connection.hpp"
#include "workload/bulk.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

namespace stob::workload {
namespace {

TEST(Sites, NineDistinctProfiles) {
  const auto& sites = nine_sites();
  ASSERT_EQ(sites.size(), 9u);
  std::set<std::string> names;
  for (const auto& s : sites) names.insert(s.name);
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(names.count("wikipedia.org"));
  EXPECT_TRUE(names.count("youtube.com"));
}

TEST(PagePlan, SamplingWithinBounds) {
  Rng rng(1);
  for (const auto& site : nine_sites()) {
    for (int i = 0; i < 20; ++i) {
      const PagePlan plan = sample_page(site, rng);
      EXPECT_GE(plan.html_bytes, 2000);
      EXPECT_GE(plan.object_bytes.size(), 1u);
      EXPECT_EQ(plan.object_bytes.size(), plan.think_times.size());
      EXPECT_EQ(plan.object_bytes.size(), plan.request_bytes.size());
      for (std::int64_t b : plan.object_bytes) {
        EXPECT_GE(b, 400);
        EXPECT_LE(b, 8'000'000);
      }
      EXPECT_GT(plan.total_response_bytes(), plan.html_bytes);
    }
  }
}

TEST(PagePlan, SitesDifferInExpectedVolume) {
  Rng rng(2);
  auto mean_volume = [&](const SiteProfile& s) {
    double acc = 0;
    for (int i = 0; i < 30; ++i) acc += static_cast<double>(sample_page(s, rng).total_response_bytes());
    return acc / 30;
  };
  const auto& sites = nine_sites();
  double whatsapp = 0, youtube = 0;
  for (const auto& s : sites) {
    if (s.name == "whatsapp.net") whatsapp = mean_volume(s);
    if (s.name == "youtube.com") youtube = mean_volume(s);
  }
  EXPECT_GT(youtube, 4 * whatsapp);  // heavy site dwarfs the lean one
}

TEST(PageLoad, CompletesForEverySite) {
  PageLoadOptions opt;
  Rng rng(1234);
  for (const auto& site : nine_sites()) {
    Rng r = rng.fork();
    const PageLoadResult res = run_page_load(site, r, opt);
    EXPECT_TRUE(res.completed) << site.name;
    EXPECT_GT(res.trace.size(), 50u) << site.name;
    EXPECT_GT(res.page_load_time.sec(), 0.0) << site.name;
    EXPECT_LT(res.page_load_time.sec(), 30.0) << site.name;
    // The trace volume reflects the page volume (plus headers/ACKs).
    EXPECT_GT(res.trace.incoming_bytes(), res.response_bytes) << site.name;
    EXPECT_LT(res.trace.incoming_bytes(), res.response_bytes * 2) << site.name;
  }
}

TEST(PageLoad, DeterministicForSeed) {
  PageLoadOptions opt;
  const auto& site = nine_sites()[0];
  Rng r1(99), r2(99);
  const PageLoadResult a = run_page_load(site, r1, opt);
  const PageLoadResult b = run_page_load(site, r2, opt);
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace.packets(), b.trace.packets());
}

TEST(PageLoad, SamplesVaryWithinSite) {
  PageLoadOptions opt;
  const auto& site = nine_sites()[0];
  Rng rng(5);
  Rng r1 = rng.fork();
  Rng r2 = rng.fork();
  const PageLoadResult a = run_page_load(site, r1, opt);
  const PageLoadResult b = run_page_load(site, r2, opt);
  EXPECT_NE(a.trace.packets(), b.trace.packets());
}

TEST(PageLoad, ServerPolicyShapesTrace) {
  // With a split policy installed server-side, incoming wire packets stay
  // at or below half the MSS (+ headers).
  PageLoadOptions opt;
  core::SplitPolicy split;
  opt.server_conn.policy = &split;
  const auto& site = nine_sites()[7];  // wikipedia: small and fast
  Rng r(7);
  const PageLoadResult res = run_page_load(site, r, opt);
  ASSERT_TRUE(res.completed);
  std::int64_t max_in = 0;
  for (const auto& p : res.trace.packets()) {
    if (p.direction < 0) max_in = std::max(max_in, p.size);
  }
  EXPECT_LE(max_in, 724 + net::kEthIpTcpHeader);
}

TEST(PageLoad, ResponsesLargerThanTheSendBufferArriveWhole) {
  // This sample's plan draws a 7.26 MB object, more than a default server
  // send buffer holds. The load must still deliver every response byte,
  // or the client waits for the lost tail until the load times out.
  PageLoadOptions opt;
  opt.tls_records = true;
  const SiteProfile& site = nine_sites()[3];
  const std::uint64_t seed = 4034216643919592265ull;
  Rng probe(seed);
  const PagePlan plan = sample_page(site, probe);
  const std::int64_t largest =
      *std::max_element(plan.object_bytes.begin(), plan.object_bytes.end());
  ASSERT_GT(largest, tcp::TcpConnection::Config{}.send_buffer.count());

  Rng rng(seed);
  const PageLoadResult res = run_page_load(site, rng, opt);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.objects_fetched, plan.object_bytes.size());
  EXPECT_EQ(res.objects_fetched, 23u);
  EXPECT_EQ(res.sim_events, 42385u);
}

TEST(CollectDataset, LabelsAndCounts) {
  PageLoadOptions opt;
  std::vector<SiteProfile> sites(nine_sites().begin(), nine_sites().begin() + 3);
  const wf::Dataset data = collect_dataset(sites, 2, 42, opt);
  ASSERT_EQ(data.size(), 6u);
  EXPECT_EQ(data.num_classes(), 3u);
  int per_class[3] = {0, 0, 0};
  for (std::size_t i = 0; i < data.size(); ++i) per_class[data.label(i)] += 1;
  for (int c : per_class) EXPECT_EQ(c, 2);
}

TEST(BulkTransfer, ReachesNearLineRateWithoutCpuModel) {
  BulkTransferOptions opt;
  opt.conn.cca = "bbr";
  opt.warmup = Duration::millis(15);
  opt.measure = Duration::millis(25);
  const BulkTransferResult res = run_bulk_transfer(opt);
  EXPECT_GT(res.goodput.gbps_f(), 70.0);
  EXPECT_GT(res.tso_segments, 0u);
}

TEST(BulkTransfer, CpuCostsCapThroughput) {
  BulkTransferOptions opt;
  opt.conn.cca = "bbr";
  opt.conn.tso_enabled = false;  // one stack traversal per MSS packet
  opt.sender_cpu = {Duration::nanos(550), Duration::nanos(15), 0.003};
  opt.warmup = Duration::millis(15);
  opt.measure = Duration::millis(25);
  const BulkTransferResult res = run_bulk_transfer(opt);
  // 1448 B per ~570 ns -> about 20 Gbps; far below the 100 Gbps link.
  EXPECT_LT(res.goodput.gbps_f(), 30.0);
  EXPECT_GT(res.goodput.gbps_f(), 10.0);
  EXPECT_GT(res.sender_cpu_utilisation, 0.9);
}

TEST(BulkTransfer, SweepPolicyReducesThroughput) {
  BulkTransferOptions base;
  base.conn.cca = "bbr";
  base.sender_cpu = {Duration::nanos(1800), Duration::nanos(80), 0.0015};
  base.warmup = Duration::millis(15);
  base.measure = Duration::millis(25);
  const BulkTransferResult plain = run_bulk_transfer(base);

  core::SweepSizePolicy::Config sweep_cfg;
  sweep_cfg.alpha = 100;
  core::SweepSizePolicy sweep(sweep_cfg);
  BulkTransferOptions obf = base;
  obf.conn.policy = &sweep;
  const BulkTransferResult reduced = run_bulk_transfer(obf);

  EXPECT_LT(reduced.goodput.gbps_f(), plain.goodput.gbps_f() * 0.7);
  EXPECT_GT(reduced.goodput.gbps_f(), 10.0);  // the paper's ">= 19.7 Gb/s" claim
}

}  // namespace
}  // namespace stob::workload
