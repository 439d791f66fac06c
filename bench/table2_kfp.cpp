// Reproduces Table 2 of the paper: k-FP Random Forest closed-world accuracy
// on 9 sites, under {Original, Split, Delayed, Combined} countermeasures
// applied to the first {15, 30, 45, all} packets, with the attack evaluated
// on the same prefix.
//
// Pipeline (mirrors §3):
//  1. collect `samples` page loads for each of the 9 site profiles through
//     the simulated stack (tcpdump-at-client vantage) — parallel (site x
//     sample) jobs on the experiment engine,
//  2. sanitise: per class, drop traces outside the IQR fence on total
//     download size, then balance classes,
//  3. build the 16 datasets (4 countermeasures x 4 scopes),
//  4. evaluate k-FP with stratified cross-validation — one parallel job per
//     (scope, countermeasure) cell; report mean +- std.
//
// Flags: --jobs N (default hardware concurrency), --check-determinism,
// --manifest PATH (run_manifest.json), --trace-events PATH (Chrome
// trace_event JSON; either output flag turns the span profiler on),
// --cache DIR (result cache: a rerun with the same DIR serves every
// collection cell from disk, SHA-verified, and prints the same table).
// --check-determinism additionally re-runs the attack stage under fresh
// profilers at two worker counts and asserts the run manifests are
// identical minus timing (deterministic_json).
// Environment knobs: STOB_SAMPLES (default 100), STOB_FOLDS (default 5),
// STOB_TREES (default 100), STOB_SEED, STOB_JOBS.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "defenses/policy.hpp"
#include "exp/experiment.hpp"
#include "exp/worker_pool.hpp"
#include "obs/manifest.hpp"
#include "obs/prof.hpp"
#include "wf/features.hpp"
#include "wf/kfp.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

namespace {

using namespace stob;

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : fallback;
}

struct Variant {
  std::string name;
  const defenses::PolicyInfo* defense;  // nullptr = Original
};

}  // namespace

int main(int argc, char** argv) {
  const auto samples = static_cast<std::size_t>(env_int("STOB_SAMPLES", 100));
  const auto folds = static_cast<std::size_t>(env_int("STOB_FOLDS", 5));
  const auto trees = static_cast<std::size_t>(env_int("STOB_TREES", 100));
  const auto seed = static_cast<std::uint64_t>(env_int("STOB_SEED", 20251117));
  const exp::Cli cli = exp::parse_cli_or_exit("table2_kfp", argc, argv);
  const std::size_t jobs = cli.jobs == 0 ? exp::default_jobs() : cli.jobs;

  obs::Profiler prof;
  std::optional<obs::ScopedProfiler> prof_guard;
  if (cli.profile()) prof_guard.emplace(prof);
  const auto stamp_config = [&](obs::RunManifest& m) {
    m.set_config("samples", std::to_string(samples));
    m.set_config("folds", std::to_string(folds));
    m.set_config("trees", std::to_string(trees));
    m.set_config("scopes", "15,30,45,all");
    m.set_config("variants", "Original,Split,Delayed,Combined");
  };

  std::printf("=== Table 2: k-FP Random Forest accuracy (closed world, 9 sites) ===\n");
  // Worker count goes to stderr: stdout must be byte-identical for any
  // --jobs value (the determinism contract the engine provides).
  std::fprintf(stderr, "table2_kfp: running with %zu jobs\n", jobs);
  std::printf("samples/site=%zu folds=%zu trees=%zu seed=%llu\n\n", samples, folds, trees,
              static_cast<unsigned long long>(seed));

  // 1. Collect traces through the simulated stack (parallel page loads).
  exp::ExperimentGrid grid;
  grid.sites = workload::nine_sites();
  grid.samples = samples;
  grid.base_seed = seed;
  exp::RunOptions run;
  run.jobs = jobs;
  run.check_determinism = cli.check_determinism;
  // Out-of-process collection: a worker re-execs this binary and _exits
  // inside run_grid, so it never reaches the attack stage below.
  run.proc = exp::proc_options_from_cli(cli);
  exp::ProcReport proc_report;
  run.proc_report = &proc_report;
  const exp::CacheSession cache = exp::CacheSession::from_cli(cli);
  run.cache = cache.cache();
  std::fflush(stdout);
  const wf::Dataset raw = [&] {
    obs::ProfSpan span("collect");
    return exp::to_dataset(exp::run_grid(grid, run));
  }();
  if (run.proc.workers > 0) exp::print_proc_summary("table2_kfp", proc_report);
  cache.finish("table2_kfp");
  std::printf("collected %zu traces\n", raw.size());

  // 2. Sanitise (IQR fence on download size) and balance, as in the paper
  //    (they kept 74 of 100 samples per site).
  std::size_t min_per_class = 0;
  const wf::Dataset data = [&] {
    obs::ProfSpan span("sanitize");
    const wf::Dataset clean = raw.sanitized_by_download_size(0.75);
    min_per_class = clean.size();
    std::vector<std::size_t> per_class(clean.num_classes(), 0);
    for (std::size_t i = 0; i < clean.size(); ++i) {
      per_class[static_cast<std::size_t>(clean.label(i))] += 1;
    }
    for (std::size_t c : per_class) min_per_class = std::min(min_per_class, c);
    return clean.balanced(min_per_class);
  }();
  std::printf("sanitised to %zu traces (%zu per site)\n\n", data.size(), min_per_class);

  // 3. The four countermeasure variants of §3.
  const std::vector<Variant> variants{
      {"Original", nullptr},
      {"Split", &defenses::policy_info("split")},
      {"Delayed", &defenses::policy_info("delay")},
      {"Combined", &defenses::policy_info("combined")}};
  const std::vector<std::size_t> scopes{15, 30, 45, 0};  // 0 = whole trace

  wf::KFingerprint::Config kfp_cfg;
  kfp_cfg.forest.num_trees = trees;

  // 4. One parallel job per (scope, variant) cell; each cell re-derives its
  //    rng exactly as the serial loop did, so the table is --jobs-invariant.
  const auto eval_cell = [&](std::size_t cell) {
    const std::size_t scope = scopes[cell / variants.size()];
    const Variant& v = variants[cell % variants.size()];
    // Defense applied to the first `scope` packets (whole trace when 0),
    // then the attack sees the same prefix.
    Rng rng(seed ^ 0xDEFull);
    wf::Dataset defended = data.transformed([&](const wf::Trace& t) {
      wf::Trace out =
          v.defense != nullptr ? defenses::apply_to_prefix(*v.defense, t, scope, rng) : t;
      return scope == 0 ? out : out.truncated(scope);
    });
    return wf::cross_validate(defended, kfp_cfg, folds, seed);
  };
  const std::size_t cell_count = scopes.size() * variants.size();
  const std::vector<wf::EvalResult> cells = [&] {
    obs::ProfSpan span("attack");
    return exp::run_ordered<wf::EvalResult>(cell_count, jobs, eval_cell);
  }();

  // --check-determinism also covers the attack stage: re-run every cell at a
  // different worker count and demand identical EvalResults (fold accuracies,
  // confusion matrices, everything) — and, with the profiler on, identical
  // run manifests minus timing (span structure, metrics digest, cell-spec
  // digest; jobs and wall/CPU are excluded by deterministic_json).
  if (cli.check_determinism) {
    const std::size_t other_jobs = jobs == 1 ? 2 : 1;
    std::vector<wf::EvalResult> again;
    const auto attack_manifest = [&](std::size_t j, std::vector<wf::EvalResult>* out) {
      obs::Profiler p;  // same (default) id domain both runs -> same span ids
      {
        obs::ScopedProfiler guard(p);
        obs::ProfSpan span("attack");
        std::vector<wf::EvalResult> r = exp::run_ordered<wf::EvalResult>(cell_count, j, eval_cell);
        if (out != nullptr) *out = std::move(r);
      }
      obs::RunManifest m = obs::build_manifest("table2_kfp", p, nullptr, j, seed);
      stamp_config(m);
      return m.deterministic_json();
    };
    const std::string manifest_a = attack_manifest(jobs, nullptr);
    const std::string manifest_b = attack_manifest(other_jobs, &again);
    for (std::size_t cell = 0; cell < cell_count; ++cell) {
      if (cells[cell] != again[cell]) {
        std::fprintf(stderr,
                     "table2_kfp: attack determinism violation in cell %zu "
                     "(jobs=%zu vs jobs=%zu)\n",
                     cell, jobs, other_jobs);
        return 1;
      }
    }
    if (manifest_a != manifest_b) {
      std::fprintf(stderr,
                   "table2_kfp: manifest determinism violation (jobs=%zu vs jobs=%zu)\n", jobs,
                   other_jobs);
      return 1;
    }
    std::fprintf(stderr,
                 "table2_kfp: attack stage and manifest identical at jobs=%zu and jobs=%zu\n",
                 jobs, other_jobs);
  }

  std::printf("%-5s", "N");
  for (const Variant& v : variants) std::printf("  %-17s", v.name.c_str());
  std::printf("\n");
  for (std::size_t s = 0; s < scopes.size(); ++s) {
    std::printf("%-5s", scopes[s] == 0 ? "All" : std::to_string(scopes[s]).c_str());
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const wf::EvalResult& res = cells[s * variants.size() + v];
      std::printf("  %.3f +- %.3f   ", res.mean_accuracy, res.std_accuracy);
    }
    std::printf("\n");
  }

  std::printf("\nPaper's Table 2 for comparison:\n");
  std::printf("N     Original          Split             Delayed           Combined\n");
  std::printf("15    0.798 +- 0.017    0.825 +- 0.024    0.825 +- 0.030    0.795 +- 0.031\n");
  std::printf("30    0.884 +- 0.007    0.860 +- 0.013    0.855 +- 0.030    0.850 +- 0.062\n");
  std::printf("45    0.938 +- 0.016    0.897 +- 0.030    0.913 +- 0.021    0.904 +- 0.004\n");
  std::printf("All   0.963 +- 0.002    0.980 +- 0.008    0.980 +- 0.014    0.992 +- 0.009\n");

  if (cli.profile()) {
    prof_guard.reset();  // all spans closed; stop recording before export
    if (!cli.manifest_path.empty()) {
      obs::RunManifest m = obs::build_manifest("table2_kfp", prof, nullptr, jobs, seed);
      stamp_config(m);
      m.write(cli.manifest_path);
      std::fprintf(stderr, "table2_kfp: wrote %s\n", cli.manifest_path.c_str());
    }
    if (!cli.trace_events_path.empty()) {
      obs::write_trace_event(cli.trace_events_path, prof.records(), "table2_kfp");
      std::fprintf(stderr, "table2_kfp: wrote %s\n", cli.trace_events_path.c_str());
    }
  }
  return 0;
}
