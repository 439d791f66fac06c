// Scoped-span self-profiler for the experiment harness.
//
// PRs 1-3 gave the *simulated stack* a flight recorder, metrics and an
// invariant checker; this module turns the same lens on the harness itself —
// worker pools, grid phases, forest fits, bench drivers — so a sweep can
// report where its own wall-clock goes (the precondition for sharding or
// caching it; see ROADMAP). Three properties carry over from the obs
// hooks:
//
//  1. *Disabled is free.* Spans are opt-in via a thread-local slot, exactly
//     like TraceRecorder / MetricsRegistry: with no Profiler installed a
//     ProfSpan is one TLS pointer load and a branch at open and a branch at
//     close (micro-benched beside the PR 1/2 hooks in bench/micro_bench).
//  2. *Deterministic identity.* Span ids are a pure function of the
//     profiler's id domain (derived from the job index for per-job
//     profilers) and an open-order sequence number — never wall-clock,
//     thread id, or pointer values — so the span *structure* exported from
//     an N-worker sweep is byte-identical to the 1-worker run, and the
//     timing fields are the only nondeterministic part.
//  3. *Own the cost story.* Each span records wall time, thread CPU time
//     (the owning thread's share of process CPU) and util/buffer_pool
//     hit/miss deltas, so a phase rollup says not just "how long" but
//     whether the time went to compute or allocator churn.
//
// Exporters: a Chrome/Perfetto trace_event JSON writer (open a sweep's
// thread timeline in chrome://tracing or ui.perfetto.dev) lives here; the
// run-manifest emitter builds on both and lives in obs/manifest.hpp.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace stob::obs {

/// One closed (or still-open) span. Times are nanoseconds; start_ns is
/// relative to the owning Profiler's epoch (its construction instant).
struct ProfRecord {
  std::uint64_t id = 0;      ///< deterministic: mix(domain, open sequence)
  std::uint64_t parent = 0;  ///< enclosing span id, 0 = root
  std::uint32_t depth = 0;   ///< nesting depth (roots are 0)
  /// Thread lane for timeline export: 0 = the profiler's own thread, pool
  /// workers are 1-based ordinals. Scheduling-dependent — part of the
  /// timeline view, never of the deterministic structure export.
  std::uint32_t worker = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t wall_ns = -1;  ///< -1 while the span is still open
  std::int64_t cpu_ns = 0;    ///< owning thread's CPU time inside the span
  std::uint64_t pool_hits = 0;    ///< util/buffer_pool freelist hits inside
  std::uint64_t pool_misses = 0;  ///< pool allocs that hit the allocator
};

/// Deterministic sub-domain for item `index` of a pool rooted at `domain`
/// (splitmix64 mixing, same recipe as exp::job_seed). Pure function of its
/// arguments so per-job span ids never depend on scheduling.
std::uint64_t sub_domain(std::uint64_t domain, std::uint64_t index);

/// Span sink for one thread (or one job). Records are kept in open order,
/// which is deterministic program order on the owning thread; spans spliced
/// in from per-job profilers (worker_pool) are appended in job-index order,
/// so the full record sequence is reproducible for any worker count.
class Profiler {
 public:
  explicit Profiler(std::uint64_t id_domain = 0);

  std::uint64_t id_domain() const { return id_domain_; }

  /// Monotonic nanoseconds since this profiler's epoch. Thread-safe (reads
  /// an immutable epoch); worker_pool uses it to timestamp jobs on worker
  /// threads against the caller's timeline.
  std::int64_t now_ns() const;

  // ---- span interface (used by ProfSpan; callable directly) ----
  /// Open a span named `name` nested under the current open span. Returns
  /// the record index to pass to close().
  std::size_t open(std::string_view name);
  void close(std::size_t index);
  std::size_t open_depth() const { return stack_.size(); }

  /// Append another profiler's records (a per-job capture) nested under the
  /// currently open span: root spans are re-parented, depths shifted, start
  /// times shifted by `shift_ns` (the job's start on this timeline) and
  /// thread lanes rebased onto `worker`. Span ids are kept verbatim — they
  /// are already deterministic via the child's id domain.
  void splice(std::vector<ProfRecord> records, std::int64_t shift_ns, std::uint32_t worker);

  const std::vector<ProfRecord>& records() const { return records_; }
  std::vector<ProfRecord> take_records();
  void clear();

  /// Harness-side metrics (queue waits, worker utilization, stragglers —
  /// anything timing-derived). Kept on the profiler rather than the
  /// thread-local MetricsRegistry slot so the deterministic stack metrics a
  /// run collects are never polluted with scheduling-dependent values.
  MetricsRegistry& harness() { return harness_; }
  const MetricsRegistry& harness() const { return harness_; }

  /// Deterministic structure export: one "id parent depth name" line per
  /// record, in record order. Contains no timing, lane or pool fields, so
  /// two runs of the same grid at different --jobs counts produce
  /// byte-identical structure (tested in test_exp).
  std::string structure() const;

 private:
  std::uint64_t next_id();

  std::uint64_t id_domain_ = 0;
  std::uint64_t seq_ = 0;
  std::int64_t epoch_wall_ns_ = 0;  // steady_clock at construction
  std::vector<ProfRecord> records_;
  std::vector<std::size_t> stack_;  // indices of open spans, innermost last
  MetricsRegistry harness_;
};

// ---------------------------------------------------------------- install

namespace detail {
extern constinit thread_local Profiler* g_profiler;  // nullptr = profiling disabled
}  // namespace detail

/// Profiler installed on the calling thread, or nullptr. The disabled fast
/// path of every ProfSpan is exactly this load plus a branch.
inline Profiler* profiler() noexcept { return detail::g_profiler; }

/// Install (or, with nullptr, remove) the calling thread's profiler.
void install_profiler(Profiler* p) noexcept;

/// RAII installation for a scope, mirroring ScopedRecorder/ScopedMetrics.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(Profiler& p) : prev_(profiler()) { install_profiler(&p); }
  ~ScopedProfiler() { install_profiler(prev_); }
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  Profiler* prev_;
};

/// RAII span: opens on construction when a profiler is installed, closes on
/// destruction — including during exception unwind, so a throwing job still
/// leaves a balanced span tree. Disabled path: one TLS load and branch.
class ProfSpan {
 public:
  explicit ProfSpan(std::string_view name)
      : prof_(detail::g_profiler), index_(prof_ != nullptr ? prof_->open(name) : 0) {}
  ~ProfSpan() {
    if (prof_ != nullptr) prof_->close(index_);
  }
  ProfSpan(const ProfSpan&) = delete;
  ProfSpan& operator=(const ProfSpan&) = delete;

 private:
  Profiler* prof_;
  std::size_t index_;
};

// ----------------------------------------------------- trace_event export

/// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds)
/// for a span capture. Loads in chrome://tracing and ui.perfetto.dev: one
/// lane per ProfRecord::worker, named via thread_name metadata events.
/// Open spans (wall_ns < 0) are skipped. Formatting is deterministic for
/// identical records (golden-tested in test_obs).
std::string trace_event_json(const std::vector<ProfRecord>& records,
                             std::string_view process_name);

void write_trace_event(const std::filesystem::path& path,
                       const std::vector<ProfRecord>& records, std::string_view process_name);

}  // namespace stob::obs
