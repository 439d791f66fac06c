// Run manifests: one JSON record per bench/sweep invocation describing what
// ran (tool, git rev, config, seeds), what it measured (metrics-snapshot
// digest), and where the time went (per-phase span rollups from the
// profiler).
//
// The manifest splits cleanly into a *deterministic* part — tool, config,
// seeds, phase names and span counts, metrics digest — and a *harness* part
// (wall/CPU timings, pool counters, worker utilization) that depends on
// scheduling and machine load. deterministic_json() emits only the former,
// so `table2_kfp --check-determinism` can assert that manifests from
// different worker counts are identical minus timing.
//
// cell_spec_digest() hashes the deterministic inputs (tool + config +
// base seed, *not* the worker count) and is deliberately the precursor of
// the ROADMAP's content-addressed experiment cache key: two invocations
// with equal digests are re-running the same cells.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "util/sha256.hpp"

namespace stob::obs {

/// Aggregate of every closed span sharing one name.
struct PhaseRollup {
  std::string name;
  std::uint64_t count = 0;  ///< deterministic (span structure)
  // Harness side: timing and allocator behaviour.
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

/// Rollup of `records` by span name, sorted by name (deterministic order).
std::vector<PhaseRollup> rollup_phases(const std::vector<ProfRecord>& records);

/// The cell-spec preimage streamed into SHA-256: a version header, the
/// tool, the base seed, then one `key=value` line per config entry. Callers
/// add entries in sorted key order; RunManifest::cell_spec_digest and
/// exp::cell_digest both hash through it, so the format lives here only.
class CellSpecHash {
 public:
  CellSpecHash(std::string_view tool, std::uint64_t base_seed);
  void add(std::string_view key, std::string_view value);
  std::string hex_digest() { return h_.hex_digest(); }

 private:
  util::Sha256 h_;
};

class RunManifest {
 public:
  std::string tool;     ///< bench driver name ("table2_kfp", "chaos_sweep", ...)
  std::string git_rev;  ///< short HEAD rev, or "unknown"
  std::uint64_t base_seed = 0;
  std::size_t jobs = 0;  ///< worker count (harness detail, not cell spec)
  /// Tool configuration as sorted key/value pairs (samples, folds, trees,
  /// scenario lists — everything that selects *which* cells run).
  std::vector<std::pair<std::string, std::string>> config;
  /// SHA-256 of the run-level MetricsRegistry snapshot plus the metric
  /// count; empty digest when the run collected no metrics.
  std::string metrics_sha256;
  std::uint64_t metrics_lines = 0;
  std::vector<PhaseRollup> phases;
  // Harness section (omitted from the deterministic form).
  double total_wall_ms = 0.0;
  double total_cpu_ms = 0.0;
  std::string harness_metrics;  ///< Profiler::harness() snapshot text

  void set_config(std::string key, std::string value);

  /// SHA-256 over (tool, base_seed, sorted config): the content-addressed
  /// cache-key precursor. Independent of jobs, timings and git rev.
  std::string cell_spec_digest() const;

  /// Full manifest JSON (include_harness = true) or the deterministic form
  /// with every timing/scheduling-dependent field stripped.
  std::string to_json(bool include_harness = true) const;
  std::string deterministic_json() const { return to_json(false); }

  void write(const std::filesystem::path& path) const;
};

/// Assemble a manifest from a finished profiler capture: phase rollups from
/// its records, totals from its root spans, harness metrics from its
/// attached registry (plus the calling thread's buffer-pool counters), and
/// the digest of `metrics` (the run-level deterministic registry; may be
/// null). Config/seeds are left for the caller to fill.
RunManifest build_manifest(std::string tool, const Profiler& prof,
                           const MetricsRegistry* metrics, std::size_t jobs,
                           std::uint64_t base_seed);

}  // namespace stob::obs
