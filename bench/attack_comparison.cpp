// Attack robustness check: are the Table 2 conclusions k-FP-specific?
//
// Runs three attacks on the same datasets — k-FP with forest voting (the
// paper's configuration), k-FP in its original leaf-vector k-NN mode, and
// CUMUL (cumulative-size curve + k-NN, Panchenko et al.) — over the four
// countermeasure variants, whole traces and the N=30 censorship prefix.
// If the countermeasures' effect holds across attack families, the paper's
// argument is about the *traffic*, not one classifier.
//
// Environment knobs: STOB_SAMPLES (default 40), STOB_TREES (default 80),
// STOB_FOLDS (default 5), STOB_SEED.
#include <cstdio>
#include <cstdlib>

#include "defenses/policy.hpp"
#include "wf/cumul.hpp"
#include "wf/kfp.hpp"
#include "workload/page_load.hpp"

namespace {

using namespace stob;

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : fallback;
}

}  // namespace

int main() {
  const auto samples = static_cast<std::size_t>(env_int("STOB_SAMPLES", 40));
  const auto trees = static_cast<std::size_t>(env_int("STOB_TREES", 80));
  const auto folds = static_cast<std::size_t>(env_int("STOB_FOLDS", 5));
  const auto seed = static_cast<std::uint64_t>(env_int("STOB_SEED", 20251117));

  std::printf("=== Attack comparison: k-FP (forest), k-FP (k-NN), CUMUL (k-NN) ===\n");
  std::printf("9 simulated sites x %zu samples, %zu folds\n\n", samples, folds);

  workload::PageLoadOptions options;
  const wf::Dataset data =
      workload::collect_dataset(workload::nine_sites(), samples, seed, options)
          .sanitized_by_download_size(0.75);

  struct Variant {
    const char* name;
    const defenses::PolicyInfo* defense;
  };
  const Variant variants[] = {
      {"Original", nullptr},
      {"Split", &defenses::policy_info("split")},
      {"Delayed", &defenses::policy_info("delay")},
      {"Combined", &defenses::policy_info("combined")}};

  wf::KFingerprint::Config forest_cfg;
  forest_cfg.forest.num_trees = trees;
  wf::KFingerprint::Config knn_cfg = forest_cfg;
  knn_cfg.use_knn = true;
  knn_cfg.k_neighbors = 3;

  for (std::size_t scope : {std::size_t{30}, std::size_t{0}}) {
    std::printf("--- %s ---\n", scope == 0 ? "whole traces" : "first 30 packets (censor view)");
    std::printf("%-10s %14s %14s %14s\n", "dataset", "kFP-forest", "kFP-kNN", "CUMUL-kNN");
    for (const Variant& v : variants) {
      Rng rng(seed ^ 0xA77ull);
      const wf::Dataset defended = data.transformed([&](const wf::Trace& t) {
        wf::Trace out =
            v.defense != nullptr ? defenses::apply_to_prefix(*v.defense, t, scope, rng) : t;
        return scope == 0 ? out : out.truncated(scope);
      });
      const double forest = wf::cross_validate(defended, forest_cfg, folds, seed).mean_accuracy;
      const double kfp_knn = wf::cross_validate(defended, knn_cfg, folds, seed).mean_accuracy;
      const double cumul = wf::cumul_cross_validate(defended, 5, 100, folds, seed).mean_accuracy;
      std::printf("%-10s %14.3f %14.3f %14.3f\n", v.name, forest, kfp_knn, cumul);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
