// Crash-isolated out-of-process executor for run_grid's cell pipeline.
//
// With --proc-workers N, each thread of run_grid's one pipeline pass
// (experiment.cpp) hands its cache misses to ProcExecutor::run(): one
// blocking attempt loop per cell that execs one worker process per attempt
// (util::Subprocess, at most N alive at once), polls the worker's result
// and stderr pipes until EOF or the watchdog deadline, reaps it and
// classifies the attempt. It turns the failure modes that kill a
// single-address-space sweep — a segfaulting cell, an OOM kill, a wedged
// simulation — into per-cell events:
//
//   * crash (signal) / nonzero exit / torn result frame → the cell is
//     retried with capped exponential backoff;
//   * hang → a per-attempt wall-clock watchdog SIGKILLs the worker, then
//     the same retry path applies;
//   * a cell that fails every attempt is *quarantined*: the sweep keeps
//     going, and the cell gets a structured CrashRecord (outcome, signal /
//     exit code, attempt count, captured stderr tail) in the report.
//
// Determinism: the executor only moves opaque result payloads around —
// cells are pure functions of their spec, payloads are decoded and crash
// records reported in job-index order by run_grid, and retries/backoff/
// scheduling affect timing only. The self-fault hook (WorkerFaultPlan,
// `--inject-worker-fault`) makes that claim testable: it deterministically
// injects crash/hang/exit faults into worker attempts, *never on a cell's
// final attempt* (unless rate >= 1), so a faulted sweep converges to output
// byte-identical to a fault-free run.
#pragma once

#include <cstdint>
#include <optional>
#include <semaphore>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace stob::exp {

/// Deterministic self-fault hook for testing the supervisor. Parsed from
/// "crash|hang|exit[:rate]" (rate defaults to 1). The injection coin for
/// (cell, attempt) is a pure splitmix64 function — independent of
/// scheduling — and a cell's final attempt is exempt unless rate >= 1, so
/// any rate < 1 exercises retries without ever changing sweep output.
struct WorkerFaultPlan {
  enum class Kind : std::uint8_t { None, Crash, Hang, Exit };
  Kind kind = Kind::None;
  double rate = 0.0;

  /// Throws std::invalid_argument on a malformed spec. Empty = no faults.
  static WorkerFaultPlan parse(const std::string& spec);

  bool enabled() const { return kind != Kind::None && rate > 0.0; }
  bool should_inject(std::size_t job, std::size_t attempt, std::size_t max_attempts) const;
  const char* kind_name() const;  ///< "crash" / "hang" / "exit" / ""
};

/// Execute an injected fault inside a worker process: "crash" raises
/// SIGKILL (uncatchable, so the outcome is sanitizer-invariant), "hang"
/// wedges until the watchdog fires, "exit" _exits nonzero. Any other value
/// (including "") returns and the worker proceeds normally.
void execute_worker_fault(std::string_view kind);

/// Out-of-process executor configuration (CLI-shaped; see
/// exp::proc_options_from_cli).
struct ProcOptions {
  /// Concurrent worker processes; 0 disables out-of-process mode.
  std::size_t workers = 0;
  /// Per-attempt wall-clock watchdog; expiry means SIGKILL + retry.
  Duration job_timeout = Duration::seconds(120);
  /// Retries after the first failed attempt (total attempts = retries + 1).
  std::size_t retries = 2;
  /// Capped exponential backoff between a cell's attempts.
  Duration backoff_base = Duration::millis(50);
  Duration backoff_cap = Duration::seconds(2);
  /// Self-fault hook, e.g. "crash:0.1" (see WorkerFaultPlan).
  std::string fault_spec;
  /// The worker command: argv[0] is the executable, and the executor
  /// appends --worker-job N [--worker-fault KIND] [--worker-prof-domain D].
  /// The worker writes its result frame to util::kResultFd. Required when
  /// workers > 0.
  std::vector<std::string> worker_argv;

  // -- worker-side fields (set only inside a spawned worker process) --
  std::optional<std::size_t> worker_job;  ///< cell index to run, then _exit
  std::string worker_fault;               ///< fault to execute before the job
  std::uint64_t worker_prof_domain = 0;   ///< caller profiler's id domain
  bool worker_profile = false;            ///< capture per-job span records
};

/// Structured crash report for a quarantined cell (failed all attempts).
struct CrashRecord {
  std::uint64_t job = 0;
  std::string digest;
  std::uint32_t attempts = 0;
  /// "signal" (killed by a signal), "exit" (nonzero exit code), "timeout"
  /// (watchdog SIGKILL), or "frame" (exited 0 but the result frame was
  /// missing/torn).
  std::string outcome;
  int signal_no = 0;
  int exit_code = 0;
  std::string stderr_tail;  ///< last bytes of the worker's captured stderr
};

/// What the proc executor did, aggregated over the grid. Failures only
/// holds quarantined cells (every attempt failed), in ascending job index;
/// transient failures that a retry recovered show up in `retries` only.
/// Cache hits and stores are counted by ResultCache::stats().
struct ProcReport {
  std::size_t cells = 0;          ///< total cells in the run
  std::size_t ran = 0;            ///< cells executed by workers this run
  std::size_t retries = 0;        ///< extra attempts scheduled
  std::size_t injected_faults = 0;  ///< attempts the self-fault hook hit
  std::size_t quarantined = 0;    ///< cells that failed all attempts
  std::vector<CrashRecord> failures;
};

/// One cell's run in worker processes.
struct CellRun {
  std::optional<std::string> payload;  ///< nullopt = quarantined
  CrashRecord crash;                   ///< final attempt's failure (digest unset)
  std::size_t retries = 0;
  std::size_t injected_faults = 0;
};

/// Runs cells in exec'd worker processes, at most opts.workers at a time.
/// run() is blocking and thread-safe, so run_grid's pool threads share one
/// executor: a thread holds one of the `workers` slots only while its
/// worker process runs, never while it backs off.
class ProcExecutor {
 public:
  /// Throws std::invalid_argument when opts.worker_argv is empty or
  /// opts.fault_spec is malformed.
  explicit ProcExecutor(const ProcOptions& opts);

  /// Attempt loop for cell `job`: spawn, poll the worker's two pipes until
  /// EOF or the watchdog deadline, wait(), classify; back off and retry a
  /// failed attempt, or return the last failure as the cell's CrashRecord.
  CellRun run(std::size_t job);

 private:
  ProcOptions opts_;
  WorkerFaultPlan fault_;
  std::counting_semaphore<> slots_;
};

/// One-line supervisor summary, plus one line per quarantined cell carrying
/// its JSON-escaped stderr tail, on stderr — never stdout, which stays
/// byte-identical across modes.
void print_proc_summary(const char* tool, const ProcReport& report);

}  // namespace stob::exp
