// Parallel batch experiment engine.
//
// Every paper artifact in this repo is a loop over a (website, seed,
// defense, CCA) grid of independent simulations; evaluation wall-clock, not
// the simulator, bounds how far the evaluation can scale. This module turns
// that loop into data-parallel jobs with three hard guarantees:
//
//  1. *Job-keyed determinism.* Each job's Rng is seeded from (base_seed,
//     job index) — never from worker id or scheduling order — so job i
//     produces the same bytes whether it runs on thread 0 of 1 or thread 7
//     of 8.
//  2. *Isolated state.* Each job builds its own sim::Simulator (inside
//     run_page_load), runs inside a net::PacketIdScope, and installs its
//     own thread-local obs sinks (TraceRecorder / MetricsRegistry), so jobs
//     share no mutable state.
//  3. *Ordered reduction.* Results are merged in job order, so the
//     collected dataset / metrics / trace exports are byte-identical
//     regardless of thread count (assertable via RunOptions::
//     check_determinism).
//
// This is the same shape as a data-parallel training/eval harness: sharded
// jobs, per-worker state, deterministic seeding, ordered reduction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "defenses/policy.hpp"
#include "exp/proc_runner.hpp"
#include "exp/result_cache.hpp"
#include "fault/fault.hpp"
#include "obs/trace_recorder.hpp"
#include "util/units.hpp"
#include "wf/trace.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

namespace stob::exp {

/// Seed for job `job_index` of a grid rooted at `base_seed`. Pure function
/// of its arguments (splitmix64 mixing) so any job can be re-run in
/// isolation, and statistically independent across indices.
std::uint64_t job_seed(std::uint64_t base_seed, std::uint64_t job_index);

/// One point on the defense axis. A null defense means "undefended". Each
/// job replays its trace through a fresh policy from `defense`, so one
/// registry row can serve every worker.
struct DefenseAxis {
  std::string name = "none";
  const defenses::PolicyInfo* defense = nullptr;
};

/// Fully resolved coordinates of one job.
struct JobSpec {
  std::size_t index = 0;
  std::size_t site = 0;     ///< index into ExperimentGrid::sites
  std::size_t sample = 0;   ///< repetition number within the site
  std::size_t defense = 0;  ///< index into defenses (0 when axis empty)
  std::size_t cca = 0;      ///< index into ccas (0 when axis empty)
  std::size_t fault = 0;    ///< index into faults (0 when axis empty)
  std::uint64_t seed = 0;   ///< job_seed(base_seed, index)
};

/// The experiment grid: the cartesian product faults x sites x samples x
/// defenses x ccas, enumerated in that axis order (cca fastest, fault
/// slowest). Empty defense / cca / fault axes contribute one implicit
/// point: undefended / the PageLoadOptions' configured CCA / the
/// PageLoadOptions' configured path_faults.
class ExperimentGrid {
 public:
  std::vector<workload::SiteProfile> sites;
  std::size_t samples = 1;
  std::vector<DefenseAxis> defenses;
  std::vector<std::string> ccas;
  std::vector<fault::PathProfile> faults;
  std::uint64_t base_seed = 0;

  std::size_t defense_axis() const { return defenses.empty() ? 1 : defenses.size(); }
  std::size_t cca_axis() const { return ccas.empty() ? 1 : ccas.size(); }
  std::size_t fault_axis() const { return faults.empty() ? 1 : faults.size(); }
  std::size_t job_count() const {
    return sites.size() * samples * defense_axis() * cca_axis() * fault_axis();
  }

  /// Decompose a dense index into grid coordinates (with its seed).
  JobSpec job(std::size_t index) const;
  std::vector<JobSpec> jobs() const;
};

/// Everything one job produced. `metrics` / `events` are filled only when
/// the corresponding RunOptions sink is enabled.
struct JobResult {
  JobSpec spec;
  wf::Trace trace;
  Duration page_load_time;
  std::int64_t response_bytes = 0;
  std::size_t objects_fetched = 0;
  bool completed = false;
  std::uint64_t sim_events = 0;           ///< simulator events this job executed
  std::string metrics;                    ///< MetricsRegistry::snapshot()
  std::vector<obs::PacketEvent> events;   ///< flight-recorder capture
  // Filled when RunOptions::check_invariants is set.
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
  std::string first_violation;            ///< first checker report, if any
};

struct RunOptions {
  workload::PageLoadOptions page;
  /// Worker count; 0 = default_jobs() (hardware concurrency).
  std::size_t jobs = 0;
  /// Install a per-job MetricsRegistry and keep its snapshot.
  bool collect_metrics = false;
  /// When > 0, install a per-job TraceRecorder with this capacity and keep
  /// the captured events.
  std::size_t trace_capacity = 0;
  /// Install a per-job fault::StackInvariantChecker and record its verdict
  /// in JobResult (violations are reported, never thrown, so one bad job
  /// cannot mask the rest of the sweep).
  bool check_invariants = false;
  /// Determinism mode: after the parallel run, re-run the whole grid on one
  /// thread and throw std::runtime_error unless every job's output is
  /// byte-identical.
  bool check_determinism = false;
  /// Out-of-process execution (crash isolation; see exp/proc_runner.hpp).
  /// proc.workers > 0 runs cache misses in that many concurrent worker
  /// processes (proc.worker_argv must name the worker command, else
  /// run_grid throws std::invalid_argument); proc.worker_job set means
  /// *this process is a worker*: run that one cell, write the result frame
  /// to util::kResultFd, and _exit.
  ProcOptions proc;
  /// When non-null and proc mode ran, filled with the supervisor's report.
  ProcReport* proc_report = nullptr;
  /// Content-addressed result cache (not owned; see exp/result_cache.hpp).
  /// Non-null routes every cell through probe-or-run-and-store, in process
  /// and in proc mode alike; results stay byte-identical to a cache-free
  /// run. The check_determinism reference run never consults the cache, so
  /// determinism mode also differentially verifies cached payloads.
  ResultCache* cache = nullptr;
};

/// Run a single job (always safe to call from any thread).
JobResult run_job(const ExperimentGrid& grid, const JobSpec& spec, const RunOptions& opts);

/// Run the whole grid on a worker pool; results are in job order.
std::vector<JobResult> run_grid(const ExperimentGrid& grid, const RunOptions& opts = {});

/// True when two results (typically the same job from different runs) are
/// byte-equivalent: trace, counters, metrics snapshot and captured events.
bool results_identical(const JobResult& a, const JobResult& b);

/// Content-addressed identity of cell `index` of `grid`: SHA-256 (via
/// obs::CellSpecHash, the preimage of obs::RunManifest::cell_spec_digest)
/// over the cell's full coordinates —
/// seed, site name, sample, defense name, CCA, fault-profile name — plus
/// every RunOptions field that shapes the result payload (metrics /
/// flight-recorder / invariant sinks) and the worker-payload codec version.
/// Stable across --jobs, worker mode and field-declaration order; changes
/// whenever anything that could change the cell's bytes changes, so the
/// result cache keyed on it can never serve a stale or mismatched payload.
std::string cell_digest(const ExperimentGrid& grid, std::size_t index, const RunOptions& opts);

/// Canonical dump of every RunOptions::page field that shapes a cell's
/// bytes but is not a grid coordinate (connection configs, jitter params,
/// TLS framing, fault profile, timeout) — the cache-key salt that keeps an
/// entry from outliving a config change cell_digest cannot see. The
/// STOB_CACHE_SALT environment variable is folded in verbatim as the escape
/// hatch for invalidating after a *code* change (the cache cannot hash the
/// binary: sanitizer and debug builds of one rev must share entries).
std::string run_config_salt(const RunOptions& opts);

/// Labeled dataset from ordered results (label = site index), the engine's
/// standard reduction for WF evaluation.
wf::Dataset to_dataset(const std::vector<JobResult>& results);

// ------------------------------------------------------------------- CLI

/// Flags shared by the bench harnesses: --jobs N (or STOB_JOBS; default
/// hardware concurrency), --check-determinism, and the observability
/// outputs --manifest PATH (run_manifest.json) / --trace-events PATH
/// (Chrome trace_event JSON). Either output flag implies profiling: the
/// driver installs an obs::Profiler for the run.
///
/// Result-cache flags (see exp/result_cache.hpp): --cache DIR (or
/// STOB_CACHE; empty = off), --no-cache (force off, overriding the
/// environment), --cache-stats (stderr stats line after the run),
/// --cache-gc BYTES (evict down to BYTES after the run; accepts K/M/G
/// suffixes).
///
/// Out-of-process runner flags (see exp/proc_runner.hpp): --proc-workers N
/// (0 = in-process, the default), --job-timeout SECONDS, --retries N,
/// --inject-worker-fault crash|hang|exit[:rate]. A killed sweep resumes
/// by rerunning it against the same --cache DIR.
/// The executor re-execs the driver binary with --worker-job N
/// [--worker-fault KIND] [--worker-prof-domain D] appended; those worker
/// flags are parsed here too but are never user-facing.
struct Cli {
  std::size_t jobs = 0;
  bool check_determinism = false;
  std::string manifest_path;      ///< empty = no manifest
  std::string trace_events_path;  ///< empty = no trace_event export

  // Content-addressed result cache.
  std::string cache_dir;             ///< empty = caching off
  bool cache_stats = false;          ///< report hit/miss stats on stderr
  bool cache_gc = false;             ///< run eviction after the sweep
  std::uint64_t cache_gc_limit = 0;  ///< --cache-gc byte budget

  // Out-of-process runner (supervisor side).
  std::size_t proc_workers = 0;        ///< 0 = run the grid in-process
  double job_timeout_s = 120.0;        ///< per-attempt watchdog, seconds
  std::size_t retries = 2;             ///< attempts = retries + 1
  std::string inject_worker_fault;     ///< self-fault spec (tests/CI)
  /// Verbatim copy of argv: the supervisor's worker re-exec base.
  std::vector<std::string> argv;

  // Out-of-process runner (worker side; set only in spawned workers).
  bool worker_mode = false;            ///< --worker-job was given
  std::size_t worker_job = 0;          ///< cell index to run, then _exit
  std::string worker_fault;            ///< fault to execute before the job
  bool worker_profile = false;         ///< --worker-prof-domain was given
  std::uint64_t worker_prof_domain = 0;

  /// Values of harness-specific flags registered through FlagSpec. Boolean
  /// flags map to "1"; value flags map to the (last) supplied value.
  std::map<std::string, std::string> extra;

  bool profile() const { return !manifest_path.empty() || !trace_events_path.empty(); }
  bool has(const std::string& flag) const { return extra.count(flag) != 0; }
  std::string get(const std::string& flag, const std::string& fallback = "") const {
    auto it = extra.find(flag);
    return it == extra.end() ? fallback : it->second;
  }
};

/// A harness-specific flag parse_cli should accept in addition to the
/// shared set, e.g. {"--pareto", true} or {"--smoke", false}.
struct FlagSpec {
  std::string name;         ///< including leading dashes
  bool takes_value = false;
};

/// Parse the shared flag set plus any `extra_flags`. Contract (pinned by
/// tests/test_exp.cpp):
///  * an unrecognised flag is a hard error (std::invalid_argument) — typos
///    must not silently degrade a benchmark run;
///  * a value flag with no value is a hard error;
///  * non-numeric --jobs is a hard error;
///  * a flag given twice warns and the last occurrence wins.
/// Both "--flag value" and "--flag=value" spellings are accepted.
Cli parse_cli(int argc, char** argv, const std::vector<FlagSpec>& extra_flags = {});

/// Map the CLI's out-of-process flags onto executor options. Sets
/// worker_argv to the CLI's argv with argv[0] resolved to this executable
/// (/proc/self/exe: the driver re-execs itself) and
/// forwards the worker-side fields, so a driver only needs
/// `run.proc = proc_options_from_cli(cli)` to support every runner flag.
ProcOptions proc_options_from_cli(const Cli& cli);

/// Driver-side lifetime wrapper for the result cache: opens the directory
/// named by the CLI, hands run_grid a ResultCache*, and handles the
/// --cache-stats / --cache-gc epilogue. A driver needs three lines:
///
///   exp::CacheSession cache = exp::CacheSession::from_cli(cli);
///   run.cache = cache.cache();
///   ...run... ; cache.finish("my_tool");
struct CacheSession {
  /// Disabled session (null cache) when the CLI has no cache directory or
  /// this process is a proc-runner worker — workers publish frames and the
  /// supervisor commits them, so a worker must never open the cache.
  static CacheSession from_cli(const Cli& cli);

  ResultCache* cache() const { return cache_.get(); }
  /// Stats line and gc pass per the CLI flags, on stderr only (stdout is
  /// under the byte-identity contract). Safe to call on a disabled session.
  void finish(const char* tool) const;

  std::shared_ptr<ResultCache> cache_;
  bool stats_ = false;
  bool gc_ = false;
  std::uint64_t gc_limit_ = 0;
};

}  // namespace stob::exp
