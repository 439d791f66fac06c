// Censorship evaluation walk-through (a small-scale §3 of the paper).
//
// Collects page-load traces for three simulated websites, trains the k-FP
// attack, and shows how a censor's classification confidence grows with the
// number of observed packets — and how in-trace countermeasures slow that
// growth. This is the same pipeline bench/table2_kfp runs at full scale.
//
// Build & run:   ./build/examples/censorship_eval
#include <cstdio>
#include <vector>

#include "defenses/policy.hpp"
#include "wf/kfp.hpp"
#include "workload/page_load.hpp"

using namespace stob;

int main() {
  // A small closed world: three sites, 20 visits each.
  std::vector<workload::SiteProfile> sites(workload::nine_sites().begin(),
                                           workload::nine_sites().begin() + 3);
  workload::PageLoadOptions options;
  std::printf("collecting %zu sites x 20 page loads through the simulated stack...\n",
              sites.size());
  const wf::Dataset data = workload::collect_dataset(sites, 20, /*seed=*/7, options);
  std::printf("collected %zu traces (avg %.0f packets each)\n\n", data.size(), [&] {
    double acc = 0;
    for (std::size_t i = 0; i < data.size(); ++i) acc += static_cast<double>(data.trace(i).size());
    return acc / static_cast<double>(data.size());
  }());

  wf::KFingerprint::Config attack;
  attack.forest.num_trees = 60;

  // split + delay, server-side
  const defenses::PolicyInfo& defense = defenses::policy_info("combined");

  std::printf("%-10s %-14s %-14s\n", "prefix N", "undefended", "defended");
  for (std::size_t n : {10, 20, 40, 80, 0}) {
    const wf::Dataset plain =
        data.transformed([&](const wf::Trace& t) { return n ? t.truncated(n) : t; });
    Rng rng(99);
    const wf::Dataset defended = data.transformed([&](const wf::Trace& t) {
      wf::Trace d = defenses::apply_to_prefix(defense, t, n, rng);
      return n ? d.truncated(n) : d;
    });
    const double acc_plain = wf::cross_validate(plain, attack, 4).mean_accuracy;
    const double acc_def = wf::cross_validate(defended, attack, 4).mean_accuracy;
    std::printf("%-10s %-14.3f %-14.3f\n", n == 0 ? "All" : std::to_string(n).c_str(),
                acc_plain, acc_def);
  }

  std::printf("\nA censor must block *early*; pushing the knee of this curve to the\n");
  std::printf("right is the protection stack-level countermeasures buy (paper, §3).\n");
  return 0;
}
