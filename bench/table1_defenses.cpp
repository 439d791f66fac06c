// Reproduces Table 1 of the paper: the WF defense landscape — each
// defense's target, strategy and traffic-manipulation primitives — extended
// with *measured* numbers on the simulated 9-site dataset:
//
//   * bandwidth overhead (the paper quotes ~80% for FRONT and 309% for
//     QCSD-style padding; padding-based defenses should dominate here),
//   * latency overhead (timing defenses trade time instead of bytes),
//   * residual k-FP accuracy (protection actually delivered).
//
// This is the quantitative backbone of the paper's §2.3 argument: current
// defenses lean on padding because stacks offer no robust timing/sizing
// control, and padding is the expensive primitive.
//
// Runs on the parallel experiment engine (src/exp/): trace collection is a
// (site x sample) job grid and each defense's overhead + k-FP evaluation is
// one job, so output is byte-identical for any --jobs value.
//
// Flags: --jobs N (default hardware concurrency), --check-determinism,
// --manifest PATH / --trace-events PATH (either turns the span profiler on
// and exports a run manifest / Chrome trace_event timeline), and the result
// cache set: --cache DIR (or STOB_CACHE), --no-cache, --cache-stats,
// --cache-gc BYTES. With both --check-determinism and a cache, the driver
// additionally asserts a warm-cache re-run's deterministic manifest is
// byte-identical to a cold (cache-bypassing) one.
//
// Pareto mode: --pareto PATH replaces the single-condition table with a
// (defense zoo x CCA x fault profile) sweep. Every cell re-collects the
// dataset under its (CCA, fault) condition, then measures bandwidth /
// latency overhead and residual k-FP accuracy; PATH receives one CSV row
// per cell and stdout gets the per-defense aggregate with the Pareto front
// (min bandwidth overhead vs min accuracy) marked. --smoke shrinks the
// sweep (3 sites x 3 samples, 2 CCAs x 2 faults, 15 trees) for CI.
//
// Environment knobs: STOB_SAMPLES (default 24), STOB_TREES (default 60),
// STOB_FOLDS (default 3), STOB_SEED, STOB_JOBS.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "defenses/policy.hpp"
#include "exp/experiment.hpp"
#include "exp/worker_pool.hpp"
#include "fault/fault.hpp"
#include "obs/manifest.hpp"
#include "obs/prof.hpp"
#include "util/csv.hpp"
#include "wf/kfp.hpp"
#include "workload/page_load.hpp"

namespace {

using namespace stob;

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : fallback;
}

struct DefenseRow {
  std::string name, target, strategy, manipulation;
  defenses::Overhead overhead;
  wf::EvalResult eval;
};

struct ParetoCell : DefenseRow {
  std::string cca, fault;
};

/// Fills `row` for `defense` on `data`: its Table 1 metadata, its mean
/// overhead and k-FP's accuracy on the defended copy, which one replay
/// builds from a fresh Rng seeded with `replay_seed`.
void evaluate_defense(const defenses::PolicyInfo& defense, const wf::Dataset& data,
                      std::uint64_t replay_seed, const wf::KFingerprint::Config& kfp,
                      std::size_t folds, std::uint64_t cv_seed, DefenseRow& row) {
  row.name = defense.name;
  row.target = defense.meta.target;
  row.strategy = defense.meta.strategy;
  row.manipulation = defense.meta.manipulations.describe();
  Rng rng(replay_seed);
  const wf::Dataset defended = data.transformed(
      [&](const wf::Trace& t) { return defenses::run_policy(defense, t, rng); });
  row.overhead = defenses::measure_overhead(data, defended);
  row.eval = wf::cross_validate(defended, kfp, folds, cv_seed);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

// With --check-determinism and a cache, assert the warm-cache re-run of the
// collection grid produces a deterministic manifest (tool/config/seed/span
// structure; harness timing facts excluded) byte-identical to a cache-
// bypassing re-run. CI drives this at --proc-workers 0/1/4, so the check
// covers the cached grid pipeline with both executors. Returns nonzero on
// mismatch.
int verify_warm_manifest(const exp::ExperimentGrid& grid, exp::RunOptions run,
                         exp::ResultCache* cache, std::size_t jobs, std::uint64_t seed) {
  run.check_determinism = false;
  run.proc_report = nullptr;
  const auto manifest_of = [&](exp::ResultCache* c) {
    obs::Profiler p;
    {
      obs::ScopedProfiler guard(p);
      obs::ProfSpan span("collect");
      exp::RunOptions r = run;
      r.cache = c;
      exp::run_grid(grid, r);
    }
    return obs::build_manifest("table1_defenses", p, nullptr, jobs, seed).deterministic_json();
  };
  // The manifest runs are profiled, which keys a separate entry space
  // (payloads carry span records): populate it first so the "warm" manifest
  // below is genuinely served from the cache, not quietly recomputed.
  manifest_of(cache);
  const exp::ResultCache::Stats before = cache->stats();
  const std::string warm = manifest_of(cache);
  const exp::ResultCache::Stats served = cache->stats();
  const std::string cold = manifest_of(nullptr);
  if (served.hits - before.hits != grid.job_count()) {
    std::fprintf(stderr,
                 "table1_defenses: warm manifest run recomputed cells (%llu of %zu served)\n",
                 static_cast<unsigned long long>(served.hits - before.hits), grid.job_count());
    return 1;
  }
  if (warm != cold) {
    std::fprintf(stderr,
                 "table1_defenses: warm-cache deterministic manifest differs from cold run\n");
    return 1;
  }
  std::fprintf(stderr, "table1_defenses: warm-cache manifest identical to cold run\n");
  return 0;
}

// The (defense zoo x CCA x fault) Pareto sweep behind --pareto.
int run_pareto(const exp::Cli& cli, std::size_t samples, std::size_t trees,
               std::size_t folds, std::uint64_t seed, std::size_t jobs) {
  const bool smoke = cli.has("--smoke");
  if (smoke) {
    samples = 3;
    trees = 15;
    folds = 2;
  }
  const std::vector<std::string> ccas =
      smoke ? std::vector<std::string>{"cubic", "bbr"}
            : std::vector<std::string>{"reno", "cubic", "bbr"};
  const std::vector<fault::PathProfile> scenarios = fault::all_scenarios();
  // clean + bursty loss (+ heavy jitter in full mode): one loss-shaped and
  // one timing-shaped impairment, the two axes defenses are sensitive to.
  std::vector<fault::PathProfile> faults = {scenarios[0], scenarios[1]};
  if (!smoke) faults.push_back(scenarios[5]);

  obs::Profiler prof;
  std::optional<obs::ScopedProfiler> prof_guard;
  if (cli.profile()) prof_guard.emplace(prof);

  exp::ExperimentGrid grid;
  const std::vector<workload::SiteProfile>& nine = workload::nine_sites();
  grid.sites.assign(nine.begin(), nine.begin() + (smoke ? 3 : nine.size()));
  grid.samples = samples;
  grid.ccas = ccas;
  grid.faults = faults;
  grid.base_seed = seed;

  const std::size_t C = ccas.size();
  const std::size_t F = faults.size();
  std::printf("=== Pareto sweep: defense zoo x CCA x fault profile ===\n");
  std::printf("dataset: %zu sites x %zu samples per condition; %zu CCAs x %zu faults; "
              "k-FP %zu trees, %zu folds%s\n\n",
              grid.sites.size(), samples, C, F, trees, folds, smoke ? " [smoke]" : "");
  std::fprintf(stderr, "table1_defenses: pareto sweep with %zu jobs\n", jobs);

  exp::RunOptions run;
  run.jobs = jobs;
  run.check_determinism = cli.check_determinism;
  // Out-of-process collection: workers re-exec this binary and _exit inside
  // run_grid, so they never reach the k-FP evaluation stage below.
  run.proc = exp::proc_options_from_cli(cli);
  exp::ProcReport proc_report;
  run.proc_report = &proc_report;
  const exp::CacheSession cache = exp::CacheSession::from_cli(cli);
  run.cache = cache.cache();
  const std::vector<exp::JobResult> results = [&] {
    obs::ProfSpan span("collect");
    return exp::run_grid(grid, run);
  }();
  if (run.proc.workers > 0) {
    exp::print_proc_summary("table1_defenses", proc_report);
  }
  if (cli.check_determinism && cache.cache() != nullptr) {
    const int rc = verify_warm_manifest(grid, run, cache.cache(), jobs, seed);
    if (rc != 0) return rc;
  }
  cache.finish("table1_defenses");

  // Partition the job-ordered results into one dataset per (CCA, fault)
  // condition; job order makes each partition deterministic at any --jobs.
  std::vector<wf::Dataset> conditions(C * F);
  for (const exp::JobResult& r : results) {
    conditions[r.spec.cca * F + r.spec.fault].add(r.trace, static_cast<int>(r.spec.site));
  }
  for (wf::Dataset& d : conditions) d = d.sanitized_by_download_size(0.75);

  wf::KFingerprint::Config kfp_cfg;
  kfp_cfg.forest.num_trees = trees;

  const std::vector<defenses::PolicyInfo>& zoo = defenses::all_defenses();
  const std::size_t D = zoo.size() + 1;  // index 0 = undefended
  const std::vector<ParetoCell> cells = [&] {
    obs::ProfSpan span("evaluate");
    return exp::run_ordered<ParetoCell>(D * C * F, jobs, [&](std::size_t i) {
      const std::size_t f = i % F;
      const std::size_t c = (i / F) % C;
      const std::size_t d = i / (F * C);
      const wf::Dataset& base = conditions[c * F + f];
      ParetoCell cell;
      cell.cca = ccas[c];
      cell.fault = faults[f].name;
      if (d == 0) {
        cell.name = "(none)";
        cell.eval = wf::cross_validate(base, kfp_cfg, folds, exp::job_seed(seed, i));
        return cell;
      }
      evaluate_defense(zoo[d - 1], base, exp::job_seed(seed ^ 0xD3F3ull, i), kfp_cfg, folds,
                       exp::job_seed(seed, i), cell);
      return cell;
    });
  }();

  // CSV: one row per (defense, CCA, fault) cell.
  std::vector<csv::Row> rows;
  rows.push_back({"defense", "target", "strategy", "manipulation", "cca", "fault",
                  "bw_overhead", "lat_overhead", "kfp_accuracy", "kfp_std"});
  for (const ParetoCell& cell : cells) {
    rows.push_back({cell.name, cell.target, cell.strategy, cell.manipulation, cell.cca,
                    cell.fault, fmt(cell.overhead.bandwidth), fmt(cell.overhead.latency),
                    fmt(cell.eval.mean_accuracy), fmt(cell.eval.std_accuracy)});
  }
  const std::string csv_path = cli.get("--pareto");
  csv::write_file(csv_path, rows);
  std::fprintf(stderr, "table1_defenses: wrote %s (%zu cells)\n", csv_path.c_str(),
               cells.size());

  // Per-defense aggregate across conditions, with the Pareto front over
  // (bandwidth overhead, residual accuracy) marked — both minimised.
  struct Agg {
    std::string name;
    double bw = 0.0, lat = 0.0, acc = 0.0;
    bool front = false;
  };
  std::vector<Agg> aggs(D);
  for (std::size_t d = 0; d < D; ++d) {
    aggs[d].name = d == 0 ? "(none)" : zoo[d - 1].name;
    for (std::size_t cf = 0; cf < C * F; ++cf) {
      const ParetoCell& cell = cells[d * C * F + cf];
      aggs[d].bw += cell.overhead.bandwidth;
      aggs[d].lat += cell.overhead.latency;
      aggs[d].acc += cell.eval.mean_accuracy;
    }
    aggs[d].bw /= static_cast<double>(C * F);
    aggs[d].lat /= static_cast<double>(C * F);
    aggs[d].acc /= static_cast<double>(C * F);
  }
  for (Agg& a : aggs) {
    a.front = true;
    for (const Agg& b : aggs) {
      const bool no_worse = b.bw <= a.bw && b.acc <= a.acc;
      const bool better = b.bw < a.bw || b.acc < a.acc;
      if (no_worse && better) {
        a.front = false;
        break;
      }
    }
  }

  std::printf("%-12s %9s %9s %10s %7s\n", "Defense", "BW-ovh", "Lat-ovh", "kFP-acc",
              "front");
  for (const Agg& a : aggs) {
    std::printf("%-12s %8.1f%% %8.1f%% %10.3f %7s\n", a.name.c_str(), a.bw * 100.0,
                a.lat * 100.0, a.acc, a.front ? "*" : "");
  }
  std::printf("\nFull per-cell data (defense x CCA x fault) in %s.\n", csv_path.c_str());

  if (cli.profile()) {
    prof_guard.reset();
    if (!cli.manifest_path.empty()) {
      obs::RunManifest m = obs::build_manifest("table1_defenses", prof, nullptr, jobs, seed);
      m.set_config("mode", smoke ? "pareto-smoke" : "pareto");
      m.set_config("samples", std::to_string(samples));
      m.set_config("trees", std::to_string(trees));
      m.set_config("folds", std::to_string(folds));
      m.set_config("defenses", std::to_string(D));
      m.set_config("ccas", std::to_string(C));
      m.set_config("faults", std::to_string(F));
      m.set_config("pareto_csv", csv_path);
      m.write(cli.manifest_path);
      std::fprintf(stderr, "table1_defenses: wrote %s\n", cli.manifest_path.c_str());
    }
    if (!cli.trace_events_path.empty()) {
      obs::write_trace_event(cli.trace_events_path, prof.records(), "table1_defenses");
      std::fprintf(stderr, "table1_defenses: wrote %s\n", cli.trace_events_path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto samples = static_cast<std::size_t>(env_int("STOB_SAMPLES", 24));
  const auto trees = static_cast<std::size_t>(env_int("STOB_TREES", 60));
  const auto folds = static_cast<std::size_t>(env_int("STOB_FOLDS", 3));
  const auto seed = static_cast<std::uint64_t>(env_int("STOB_SEED", 20251117));
  const exp::Cli cli =
      exp::parse_cli(argc, argv, {{"--pareto", true}, {"--smoke", false}});
  const std::size_t jobs = cli.jobs == 0 ? exp::default_jobs() : cli.jobs;

  if (cli.has("--pareto")) return run_pareto(cli, samples, trees, folds, seed, jobs);

  obs::Profiler prof;
  std::optional<obs::ScopedProfiler> prof_guard;
  if (cli.profile()) prof_guard.emplace(prof);

  std::printf("=== Table 1: WF defense summary with measured overheads ===\n");
  // Worker count goes to stderr: stdout must be byte-identical for any
  // --jobs value (the determinism contract the engine provides).
  std::fprintf(stderr, "table1_defenses: running with %zu jobs\n", jobs);
  std::printf("dataset: 9 simulated sites x %zu samples; k-FP %zu trees, %zu folds\n\n",
              samples, trees, folds);

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
  const wf::Dataset data = [&] {
    obs::ProfSpan span("collect");
    return exp::to_dataset(exp::run_grid(grid, run)).sanitized_by_download_size(0.75);
  }();
  if (run.proc.workers > 0) {
    exp::print_proc_summary("table1_defenses", proc_report);
  }
  if (cli.check_determinism && cache.cache() != nullptr) {
    const int rc = verify_warm_manifest(grid, run, cache.cache(), jobs, seed);
    if (rc != 0) return rc;
  }
  cache.finish("table1_defenses");

  wf::KFingerprint::Config kfp_cfg;
  kfp_cfg.forest.num_trees = trees;

  // One evaluation job per defense (index 0 = undefended baseline); each is
  // seeded exactly as the serial loop was, so the numbers match any --jobs.
  const std::vector<defenses::PolicyInfo>& all = defenses::all_defenses();
  const std::vector<DefenseRow> rows = [&] {
    obs::ProfSpan span("evaluate");
    return exp::run_ordered<DefenseRow>(
      all.size() + 1, jobs, [&](std::size_t i) {
        DefenseRow row;
        if (i == 0) {
          row.name = "(none)";
          row.eval = wf::cross_validate(data, kfp_cfg, folds, seed);
          return row;
        }
        evaluate_defense(all[i - 1], data, seed ^ 0xD3F3ull, kfp_cfg, folds, seed, row);
        return row;
      });
  }();

  std::printf("%-12s %-6s %-15s %-24s %9s %9s %10s\n", "Defense", "Target", "Strategy",
              "Manipulation", "BW-ovh", "Lat-ovh", "kFP-acc");
  std::printf("%-12s %-6s %-15s %-24s %9s %9s %9.3f\n", "(none)", "-", "-", "-", "-", "-",
              rows[0].eval.mean_accuracy);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const DefenseRow& row = rows[i];
    std::printf("%-12s %-6s %-15s %-24s %8.1f%% %8.1f%% %9.3f\n", row.name.c_str(),
                row.target.c_str(), row.strategy.c_str(), row.manipulation.c_str(),
                row.overhead.bandwidth * 100.0, row.overhead.latency * 100.0,
                row.eval.mean_accuracy);
  }

  std::printf("\nReference points from the literature: FRONT ~80%% bandwidth overhead,\n");
  std::printf("QCSD-style padding ~309%%; timing-only defenses cost 0%% bandwidth (the\n");
  std::printf("paper's case for stack-level timing/sizing control instead of padding).\n");

  if (cli.profile()) {
    prof_guard.reset();  // all spans closed; stop recording before export
    if (!cli.manifest_path.empty()) {
      obs::RunManifest m = obs::build_manifest("table1_defenses", prof, nullptr, jobs, seed);
      m.set_config("samples", std::to_string(samples));
      m.set_config("trees", std::to_string(trees));
      m.set_config("folds", std::to_string(folds));
      m.set_config("defenses", std::to_string(all.size() + 1));
      m.write(cli.manifest_path);
      std::fprintf(stderr, "table1_defenses: wrote %s\n", cli.manifest_path.c_str());
    }
    if (!cli.trace_events_path.empty()) {
      obs::write_trace_event(cli.trace_events_path, prof.records(), "table1_defenses");
      std::fprintf(stderr, "table1_defenses: wrote %s\n", cli.trace_events_path.c_str());
    }
  }
  return 0;
}
