// Extension of Table 2 (§3's censorship argument): k-FP accuracy as a
// function of the observed prefix length N, for each countermeasure. The
// paper's claim is that the countermeasures *slow the growth* of attack
// confidence — a censor that must decide early sees a less fingerprintable
// prefix — even when whole-trace accuracy is unaffected (or helped).
//
// Runs on the parallel experiment engine: collection is a (site x sample)
// job grid, and each (N, countermeasure) point of the curve is one job.
//
// Flags: --jobs N (default hardware concurrency), --check-determinism.
// Environment knobs: STOB_SAMPLES (default 50), STOB_TREES (default 80),
// STOB_FOLDS (default 5), STOB_SEED, STOB_JOBS.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "defenses/policy.hpp"
#include "exp/experiment.hpp"
#include "exp/worker_pool.hpp"
#include "wf/kfp.hpp"
#include "workload/page_load.hpp"

namespace {

using namespace stob;

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const auto samples = static_cast<std::size_t>(env_int("STOB_SAMPLES", 50));
  const auto trees = static_cast<std::size_t>(env_int("STOB_TREES", 80));
  const auto folds = static_cast<std::size_t>(env_int("STOB_FOLDS", 5));
  const auto seed = static_cast<std::uint64_t>(env_int("STOB_SEED", 20251117));
  const exp::Cli cli = exp::parse_cli(argc, argv);
  const std::size_t jobs = cli.jobs == 0 ? exp::default_jobs() : cli.jobs;

  std::printf("=== Censorship curve: k-FP accuracy vs observed prefix length ===\n");
  // Worker count goes to stderr: stdout must be byte-identical for any
  // --jobs value (the determinism contract the engine provides).
  std::fprintf(stderr, "censorship_curve: running with %zu jobs\n", jobs);
  std::printf("9 simulated sites x %zu samples; k-FP %zu trees, %zu folds\n\n", samples, trees,
              folds);

  exp::ExperimentGrid grid;
  grid.sites = workload::nine_sites();
  grid.samples = samples;
  grid.base_seed = seed;
  exp::RunOptions run;
  run.jobs = jobs;
  run.check_determinism = cli.check_determinism;
  run.proc = exp::proc_options_from_cli(cli);
  exp::ProcReport proc_report;
  run.proc_report = &proc_report;
  const exp::CacheSession cache = exp::CacheSession::from_cli(cli);
  run.cache = cache.cache();
  const wf::Dataset data =
      exp::to_dataset(exp::run_grid(grid, run)).sanitized_by_download_size(0.75);
  if (run.proc.workers > 0) {
    exp::print_proc_summary("censorship_curve", proc_report);
  }
  cache.finish("censorship_curve");

  struct Variant {
    const char* name;
    const defenses::PolicyInfo* defense;
  };
  const std::vector<Variant> variants{
      {"Original", nullptr},
      {"Split", &defenses::policy_info("split")},
      {"Delayed", &defenses::policy_info("delay")},
      {"Combined", &defenses::policy_info("combined")}};
  const std::vector<std::size_t> prefixes{5, 10, 15, 20, 30, 45, 60, 90, 150, 0};

  wf::KFingerprint::Config kfp_cfg;
  kfp_cfg.forest.num_trees = trees;

  // One job per curve point; per-cell rng re-derived as in the serial loop.
  const std::vector<wf::EvalResult> cells = exp::run_ordered<wf::EvalResult>(
      prefixes.size() * variants.size(), jobs, [&](std::size_t cell) {
        const std::size_t n = prefixes[cell / variants.size()];
        const Variant& v = variants[cell % variants.size()];
        Rng rng(seed ^ 0xCC5ull);
        const wf::Dataset defended = data.transformed([&](const wf::Trace& t) {
          wf::Trace out =
              v.defense != nullptr ? defenses::apply_to_prefix(*v.defense, t, n, rng) : t;
          return n == 0 ? out : out.truncated(n);
        });
        return wf::cross_validate(defended, kfp_cfg, folds, seed);
      });

  std::printf("%-6s", "N");
  for (const auto& v : variants) std::printf("  %-10s", v.name);
  std::printf("\n");
  for (std::size_t p = 0; p < prefixes.size(); ++p) {
    std::printf("%-6s", prefixes[p] == 0 ? "All" : std::to_string(prefixes[p]).c_str());
    for (std::size_t v = 0; v < variants.size(); ++v) {
      std::printf("  %-10.3f", cells[p * variants.size() + v].mean_accuracy);
    }
    std::printf("\n");
  }

  std::printf("\nReading: with countermeasures the curve climbs more slowly — the censor\n");
  std::printf("needs more packets for the same confidence, delaying the blocking decision.\n");
  return 0;
}
