// Defense comparison: protection vs cost across the defense zoo.
//
// Applies each implemented defense (the Table 1 literature baselines, then
// the streaming policy zoo: the paper's §3 primitives, RegulaTor and
// WTF-PAD) to the same simulated website traces and prints the trade-off
// every deployment conversation is about:
//
//     residual k-FP accuracy  vs  bandwidth overhead  vs  latency overhead
//
// The pattern the paper argues from: padding-heavy defenses (BuFLO,
// Tamaraw, FRONT) buy protection with large bandwidth cost, while
// timing/sizing manipulations are nearly free on bandwidth — but need
// stack support to be enforceable at all.
//
// Build & run:   ./build/examples/defense_comparison
#include <cstdio>

#include "defenses/policy.hpp"
#include "wf/kfp.hpp"
#include "workload/page_load.hpp"

using namespace stob;

int main() {
  std::vector<workload::SiteProfile> sites(workload::nine_sites().begin(),
                                           workload::nine_sites().begin() + 4);
  workload::PageLoadOptions options;
  std::printf("collecting %zu sites x 16 page loads...\n\n", sites.size());
  const wf::Dataset data = workload::collect_dataset(sites, 16, /*seed=*/13, options);

  wf::KFingerprint::Config attack;
  attack.forest.num_trees = 50;
  const double base_acc = wf::cross_validate(data, attack, 4).mean_accuracy;

  std::printf("%-12s %-15s %10s %10s %10s\n", "defense", "strategy", "kFP-acc", "BW-ovh",
              "Lat-ovh");
  std::printf("%-12s %-15s %10.3f %10s %10s\n", "(none)", "-", base_acc, "0%", "0%");
  for (const defenses::PolicyInfo& d : defenses::all_defenses()) {
    Rng rng(5);
    const wf::Dataset defended =
        data.transformed([&](const wf::Trace& t) { return defenses::run_policy(d, t, rng); });
    const defenses::Overhead ovh = defenses::measure_overhead(data, defended);
    const double acc = wf::cross_validate(defended, attack, 4).mean_accuracy;
    std::printf("%-12s %-15s %10.3f %9.0f%% %9.0f%%\n", d.name.c_str(),
                d.meta.strategy.c_str(), acc, ovh.bandwidth * 100, ovh.latency * 100);
  }
  std::printf("\n(4 sites, small samples: treat numbers as illustrative; bench/table1_defenses\n");
  std::printf("runs the full version.)\n");
  return 0;
}
