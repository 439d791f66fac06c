// Chaos sweep: every fault scenario x {Reno, CUBIC, BBR} x the full defense
// zoo, with the runtime stack-invariant checker armed on every job.
//
// This is the robustness backbone for the paper's claim: in-stack defenses
// must stay safe ("never more aggressive than the CCA") not just on clean
// paths but exactly where transports misbehave — bursty loss, reordering,
// duplication, corruption, jitter, capacity swings, link flaps. The sweep
// reports, per scenario:
//
//   * completion rate and mean page-load time / goodput (how badly the
//     adverse path degrades the workload),
//   * mean defense bandwidth-overhead drift vs the clean scenario (does an
//     impaired path change what a defense costs?),
//   * invariant checks performed and violations found (must be zero).
//
// Runs on the parallel experiment engine: stdout is byte-identical for any
// --jobs value, and --check-determinism re-runs the grid serially to prove
// it. Exit status is 1 if any stack invariant was violated.
//
// Flags: --jobs N (or STOB_JOBS), --check-determinism, --manifest PATH /
// --trace-events PATH (either turns the span profiler on), --smoke (1 site
// x 1 sample — the CI grid), and the out-of-process runner set:
// --proc-workers N, --job-timeout S, --retries N,
// --inject-worker-fault crash|hang|exit[:rate]. Result cache: --cache DIR
// (or STOB_CACHE), --no-cache, --cache-stats, --cache-gc BYTES; rerunning
// a killed sweep against the same --cache DIR resumes it.
// Environment knobs: STOB_SITES (default 2), STOB_SAMPLES (default 2),
// STOB_SEED.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "defenses/policy.hpp"
#include "exp/experiment.hpp"
#include "exp/worker_pool.hpp"
#include "fault/fault.hpp"
#include "obs/manifest.hpp"
#include "obs/prof.hpp"
#include "workload/page_load.hpp"

namespace {

using namespace stob;

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : fallback;
}

struct ScenarioRow {
  std::string name;
  std::size_t jobs = 0, completed = 0;
  double plt_sum = 0.0;         // seconds, completed jobs only
  double goodput_sum = 0.0;     // Mbit/s, completed jobs only
  double overhead_sum = 0.0;    // defended bytes / undefended bytes - 1
  std::size_t overhead_n = 0;
  std::uint64_t checks = 0, violations = 0;
  std::string first_violation;
};

}  // namespace

int main(int argc, char** argv) {
  const exp::Cli cli =
      exp::parse_cli_or_exit("chaos_sweep", argc, argv, {{"--smoke", false}});
  const bool smoke = cli.has("--smoke");
  const auto sites = smoke ? 1 : static_cast<std::size_t>(env_int("STOB_SITES", 2));
  const auto samples = smoke ? 1 : static_cast<std::size_t>(env_int("STOB_SAMPLES", 2));
  const auto seed = static_cast<std::uint64_t>(env_int("STOB_SEED", 20251117));
  const std::size_t jobs = cli.jobs == 0 ? exp::default_jobs() : cli.jobs;

  exp::ExperimentGrid grid;
  const std::vector<workload::SiteProfile>& nine = workload::nine_sites();
  grid.sites.assign(nine.begin(), nine.begin() + std::min(sites, nine.size()));
  grid.samples = samples;
  grid.ccas = {"reno", "cubic", "bbr"};
  grid.faults = fault::all_scenarios();
  grid.base_seed = seed;

  grid.defenses.push_back({"none", nullptr});
  for (const defenses::PolicyInfo& d : defenses::all_defenses()) {
    grid.defenses.push_back({d.name, &d});
  }

  std::printf("=== Chaos sweep: fault scenarios x CCAs x defenses, invariants armed ===\n");
  std::printf("grid: %zu scenarios x %zu sites x %zu samples x %zu defenses x %zu ccas = %zu jobs\n\n",
              grid.faults.size(), grid.sites.size(), grid.samples, grid.defenses.size(),
              grid.ccas.size(), grid.job_count());
  // Worker count goes to stderr: stdout must be byte-identical for any
  // --jobs value (the engine's determinism contract).
  std::fprintf(stderr, "chaos_sweep: running %zu jobs with %zu workers\n", grid.job_count(), jobs);

  obs::Profiler prof;
  std::optional<obs::ScopedProfiler> prof_guard;
  if (cli.profile()) prof_guard.emplace(prof);

  exp::RunOptions run;
  run.jobs = jobs;
  run.check_invariants = true;
  run.check_determinism = cli.check_determinism;
  run.proc = exp::proc_options_from_cli(cli);
  exp::ProcReport proc_report;
  run.proc_report = &proc_report;
  const exp::CacheSession cache = exp::CacheSession::from_cli(cli);
  run.cache = cache.cache();
  const std::vector<exp::JobResult> results = [&] {
    obs::ProfSpan span("sweep");
    return exp::run_grid(grid, run);
  }();
  if (run.proc.workers > 0) exp::print_proc_summary("chaos_sweep", proc_report);
  cache.finish("chaos_sweep");

  // Reduce in job order. The undefended (defense 0) twin of every defended
  // job precedes it within the same (fault, site, sample) block, so the
  // overhead baseline is a straight lookback.
  const std::size_t ccas = grid.ccas.size();
  std::vector<ScenarioRow> rows(grid.faults.size());
  for (const exp::JobResult& r : results) {
    ScenarioRow& row = rows[r.spec.fault];
    row.name = grid.faults[r.spec.fault].name;
    ++row.jobs;
    if (r.completed) {
      ++row.completed;
      const double secs = r.page_load_time.sec();
      row.plt_sum += secs;
      if (secs > 0.0) {
        row.goodput_sum += static_cast<double>(r.response_bytes) * 8.0 / secs / 1e6;
      }
    }
    if (r.spec.defense > 0) {
      const exp::JobResult& base = results[r.spec.index - r.spec.defense * ccas];
      const std::int64_t undef = base.trace.total_bytes();
      if (undef > 0) {
        row.overhead_sum +=
            static_cast<double>(r.trace.total_bytes()) / static_cast<double>(undef) - 1.0;
        ++row.overhead_n;
      }
    }
    row.checks += r.invariant_checks;
    row.violations += r.invariant_violations;
    if (row.first_violation.empty() && !r.first_violation.empty()) {
      row.first_violation = r.first_violation;
    }
  }

  const double clean_overhead =
      rows[0].overhead_n > 0 ? rows[0].overhead_sum / static_cast<double>(rows[0].overhead_n)
                             : 0.0;
  std::printf("%-16s %6s %9s %9s %9s %12s %12s %10s\n", "scenario", "done", "plt(s)",
              "goodput", "bw-ovh", "ovh-drift", "checks", "violations");
  std::uint64_t total_violations = 0;
  for (const ScenarioRow& row : rows) {
    const double done = row.jobs > 0 ? static_cast<double>(row.completed) /
                                           static_cast<double>(row.jobs)
                                     : 0.0;
    const double plt =
        row.completed > 0 ? row.plt_sum / static_cast<double>(row.completed) : 0.0;
    const double goodput =
        row.completed > 0 ? row.goodput_sum / static_cast<double>(row.completed) : 0.0;
    const double ovh =
        row.overhead_n > 0 ? row.overhead_sum / static_cast<double>(row.overhead_n) : 0.0;
    std::printf("%-16s %5.0f%% %9.3f %7.2fMb %8.1f%% %11.1f%% %12llu %10llu\n",
                row.name.c_str(), done * 100.0, plt, goodput, ovh * 100.0,
                (ovh - clean_overhead) * 100.0,
                static_cast<unsigned long long>(row.checks),
                static_cast<unsigned long long>(row.violations));
    total_violations += row.violations;
  }

  if (cli.profile()) {
    prof_guard.reset();  // all spans closed; stop recording before export
    if (!cli.manifest_path.empty()) {
      obs::RunManifest m = obs::build_manifest("chaos_sweep", prof, nullptr, jobs, seed);
      m.set_config("sites", std::to_string(grid.sites.size()));
      m.set_config("samples", std::to_string(samples));
      m.set_config("scenarios", std::to_string(grid.faults.size()));
      m.set_config("defenses", std::to_string(grid.defenses.size()));
      m.set_config("ccas", std::to_string(grid.ccas.size()));
      m.write(cli.manifest_path);
      std::fprintf(stderr, "chaos_sweep: wrote %s\n", cli.manifest_path.c_str());
    }
    if (!cli.trace_events_path.empty()) {
      obs::write_trace_event(cli.trace_events_path, prof.records(), "chaos_sweep");
      std::fprintf(stderr, "chaos_sweep: wrote %s\n", cli.trace_events_path.c_str());
    }
  }

  if (total_violations > 0) {
    std::printf("\nSTACK INVARIANT VIOLATIONS: %llu\n",
                static_cast<unsigned long long>(total_violations));
    for (const ScenarioRow& row : rows) {
      if (!row.first_violation.empty()) {
        std::printf("[%s] %s\n", row.name.c_str(), row.first_violation.c_str());
      }
    }
    return 1;
  }
  std::printf("\nAll stack invariants held across every scenario.\n");
  // Quarantined cells mean the table above is missing data: report success
  // on stdout determinism but fail the invocation.
  return proc_report.quarantined > 0 ? 2 : 0;
}
