// Crash-isolated out-of-process experiment runner.
//
// run_cells() is a single-threaded supervisor that executes a dense index
// space of grid cells in child worker processes (util::Subprocess), one
// process per cell attempt, multiplexed with poll(). It turns the failure
// modes that kill a single-address-space sweep — a segfaulting cell, an
// OOM kill, a wedged simulation — into per-cell events:
//
//   * crash (signal) / nonzero exit / torn result frame → the cell is
//     retried with capped exponential backoff;
//   * hang → a per-job wall-clock watchdog SIGKILLs the worker, then the
//     same retry path applies;
//   * a cell that fails every attempt is *quarantined*: the sweep keeps
//     going, and the cell gets a structured CrashRecord (outcome, signal /
//     exit code, attempt count, captured stderr tail) in the report.
//
// Determinism: the supervisor only moves opaque result payloads around —
// cells are pure functions of their spec, payloads are decoded in job-index
// order by the caller, and retries/backoff/scheduling affect timing only.
// The self-fault hook (WorkerFaultPlan, `--inject-worker-fault`) makes that
// claim testable: it deterministically injects crash/hang/exit faults into
// worker attempts, *never on a cell's final attempt* (unless rate >= 1), so
// a faulted sweep converges to output byte-identical to a fault-free run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
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

/// Supervisor configuration (CLI-shaped; see exp::proc_options_from_cli).
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
  /// Non-empty: fork/exec these argv as the worker (the supervisor appends
  /// the --worker-* flags). Empty: fork-only workers running the caller's
  /// in-process cell function — no exec, used by tests/library callers.
  std::vector<std::string> worker_argv;

  // -- worker-side fields (set only inside a spawned worker process) --
  std::optional<std::size_t> worker_job;  ///< cell index to run, then _exit
  int worker_fd = 3;                      ///< descriptor for the result frame
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

/// What the supervisor did, cell by cell aggregated. Failures only holds
/// quarantined cells (every attempt failed); transient failures that a
/// retry recovered show up in `retries` only.
struct ProcReport {
  std::size_t cells = 0;          ///< total cells in the run
  std::size_t ran = 0;            ///< cells executed by workers this run
  std::size_t cache_hits = 0;     ///< cells served by the result cache
  std::size_t cache_stores = 0;   ///< worker results committed to the cache
  std::size_t retries = 0;        ///< extra attempts scheduled
  std::size_t injected_faults = 0;  ///< attempts the self-fault hook hit
  std::size_t quarantined = 0;    ///< cells that failed all attempts
  std::vector<CrashRecord> failures;
};

/// Supervisor-side hooks into the content-addressed result cache: `probe`
/// is consulted before a cell is scheduled (a hit skips the worker), and
/// `commit` is called with every worker-produced payload — workers publish
/// frames, only the supervisor commits them, so a crashing worker can never
/// tear a cache entry. Committing per cell, not per sweep, is what makes a
/// killed sweep (SIGKILL of the supervisor included) resumable: a rerun
/// against the same cache hits every cell that finished.
struct CellCache {
  std::function<std::optional<std::string>(std::size_t)> probe;
  std::function<void(std::size_t, const std::string&)> commit;
};

/// Execute cells [0, count) out of process and return each cell's result
/// payload in index order (nullopt = quarantined). `digest(i)` names cell i
/// in its crash record; `run_cell(i)` produces cell i's payload and is
/// invoked *in the forked child* when `opts.worker_argv` is empty (exec
/// mode never calls it — the exec'd binary computes the payload itself).
/// Throws std::runtime_error on supervisor-level failures (no workers, or
/// workers cannot be spawned at all).
std::vector<std::optional<std::string>> run_cells(
    std::size_t count, const ProcOptions& opts,
    const std::function<std::string(std::size_t)>& digest,
    const std::function<std::string(std::size_t)>& run_cell, ProcReport* report,
    const CellCache* cache = nullptr);

/// One-line supervisor summary, plus one line per quarantined cell carrying
/// its JSON-escaped stderr tail, on stderr — never stdout, which stays
/// byte-identical across modes.
void print_proc_summary(const char* tool, const ProcReport& report);

}  // namespace stob::exp
