// Named metrics registry: counters, gauges and streaming distributions.
//
// Complements the flight recorder (trace_recorder.hpp) with aggregate
// signals — retransmits, cwnd samples, qdisc depth/drops, TSO split counts,
// pacing-release delays, simulator internals — that are cheap enough to keep
// for a whole run. Distributions reuse stats::Welford for O(1) streaming
// moments plus a bounded sample reservoir that medians and percentiles are
// read from.
//
// Like tracing, metrics are opt-in via a thread-local slot: with no
// registry installed every hook is one (TLS) pointer load and branch — the
// single-threaded fast path is identical to the former process-global slot.
// Thread-locality means each worker thread of the parallel experiment
// engine (src/exp/) installs its own registry with no hook-site locking.
// Snapshots are emitted in sorted name order, so two identical
// deterministic sim runs produce byte-identical snapshots.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.hpp"
#include "util/stats.hpp"

namespace stob::sim {
class Simulator;
}

namespace stob::obs {

class MetricsRegistry {
 public:
  /// Streaming view of an observed value series.
  struct Distribution {
    stats::Welford welford;
    double min = 0.0;
    double max = 0.0;
    /// First kReservoirCap samples, kept so medians and percentiles can be
    /// read without unbounded memory.
    std::vector<double> reservoir;

    std::size_t count() const { return welford.count(); }
    double mean() const { return welford.mean(); }
    double stddev() const { return welford.stddev(); }
  };

  static constexpr std::size_t kReservoirCap = 4096;

  /// Increment the named counter.
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Set the named gauge to `value` (last write wins).
  void set(std::string_view name, double value);

  /// Feed one sample into the named distribution.
  void observe(std::string_view name, double value);

  std::uint64_t counter(std::string_view name) const;  ///< 0 when absent
  double gauge(std::string_view name) const;           ///< 0 when absent
  const Distribution* distribution(std::string_view name) const;  ///< nullptr when absent

  /// Fold another registry in: counters add, gauges last-write (the other
  /// registry's value wins), distributions Welford-merge with min/max and
  /// the sample reservoir appended up to kReservoirCap. Merging per-worker
  /// (really per-job) registries in job-index order yields one run-level
  /// snapshot that is deterministic for any worker count — the experiment
  /// engine's profiled pool does exactly that.
  void merge(const MetricsRegistry& other);

  bool empty() const { return counters_.empty() && gauges_.empty() && dists_.empty(); }
  void clear();

  /// Deterministic text rendering, one metric per line, sorted by name.
  std::string snapshot() const;

  /// CSV rows (kind,name,count,value,mean,stddev,min,max), sorted by name.
  std::vector<csv::Row> to_csv_rows() const;
  void write_csv(const std::filesystem::path& path) const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Distribution, std::less<>> dists_;
};

/// Copy a simulator's internals (events executed / pending / cancelled,
/// event-heap high-water mark) into gauges — call at the end of a run, or
/// periodically from a scheduled probe. All values are deterministic for a
/// deterministic simulation, so per-job snapshots stay --jobs-invariant.
void scrape_simulator(const sim::Simulator& sim, MetricsRegistry& m);

/// Copy the calling thread's util/buffer_pool counters (hits / misses /
/// spills / cached / outstanding) into gauges. Freelist warmth depends on
/// what ran earlier on the thread, so these are *not* deterministic across
/// worker counts — scrape into a harness registry (Profiler::harness()),
/// never into a per-job registry that determinism checks compare.
void scrape_pool(MetricsRegistry& m);

// ---------------------------------------------------------------- install

namespace detail {
extern constinit thread_local MetricsRegistry* g_metrics;  // nullptr = metrics disabled
}  // namespace detail

/// Registry installed on the calling thread, or nullptr.
inline MetricsRegistry* metrics() noexcept { return detail::g_metrics; }

/// Install (or, with nullptr, remove) the calling thread's registry.
void install_metrics(MetricsRegistry* m) noexcept;

class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry& m) : prev_(metrics()) { install_metrics(&m); }
  ~ScopedMetrics() { install_metrics(prev_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* prev_;
};

// One-line hook helpers: no-ops (one load + branch) when disabled.
inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (MetricsRegistry* m = detail::g_metrics) m->add(name, delta);
}
inline void sample(std::string_view name, double value) {
  if (MetricsRegistry* m = detail::g_metrics) m->observe(name, value);
}
inline void set_gauge(std::string_view name, double value) {
  if (MetricsRegistry* m = detail::g_metrics) m->set(name, value);
}

}  // namespace stob::obs
