// Named tiny experiment grids shared by test_proc, test_cache and the
// grid_worker helper. A proc-mode test runs the supervisor side of a grid
// in the test process and execs grid_worker (path in STOB_GRID_WORKER) as
// its worker; both sides build the grid from the same name here, so the
// cells a worker computes are the cells the supervisor expects.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "defenses/policy.hpp"
#include "exp/experiment.hpp"
#include "workload/website.hpp"

namespace stob::exp::tiny {

// Small, fast site profiles so whole-grid tests run in well under a second.
inline std::vector<workload::SiteProfile> tiny_sites(std::size_t n) {
  std::vector<workload::SiteProfile> sites;
  for (std::size_t i = 0; i < n; ++i) {
    workload::SiteProfile s;
    s.name = "tiny" + std::to_string(i);
    s.html_mu = 8.5 + 0.3 * static_cast<double>(i);
    s.objects_mean = 3.0 + static_cast<double>(i);
    s.object_mu = 8.0;
    s.parallel_connections = 2;
    sites.push_back(s);
  }
  return sites;
}

/// The split row, whose factory throws when `fail` is set: a stand-in for a
/// transient failure that a later rerun of the sweep no longer hits. It
/// keeps the name "split", so its cells share cache keys with an unfaulted
/// run's.
inline std::unique_ptr<defenses::PolicyInfo> faultable_split(bool fail) {
  auto split = std::make_unique<defenses::PolicyInfo>(defenses::policy_info("split"));
  if (fail) {
    split->factory = []() -> std::unique_ptr<defenses::Policy> {
      throw std::runtime_error("transient failure");
    };
  }
  return split;
}

/// A grid, the RunOptions its tests run it with, and the split it points at.
struct TinyGrid {
  std::unique_ptr<defenses::PolicyInfo> split;
  ExperimentGrid grid;
  RunOptions opts;
};

/// The grid called `name`; `fail_split` makes its split cells throw.
///   split  — 2 sites x 2 samples x {none, split}, every sink armed (8 cells)
///   cache  — 2 sites x {none, split} x {cubic, bbr}, every sink armed (8 cells)
///   resume — 1 site x 2 samples x {none, split} x {cubic}; the split cells
///            are 1 and 3 (4 cells)
///   seed3  — 1 site x 2 samples (2 cells); seed7 — 2 sites x 1 sample (2)
///   five   — 1 site x 5 samples (5 cells)
inline TinyGrid make_grid(const std::string& name, bool fail_split = false) {
  TinyGrid t;
  t.split = faultable_split(fail_split);
  ExperimentGrid& g = t.grid;
  RunOptions& o = t.opts;
  const auto arm_sinks = [&o] {
    o.collect_metrics = true;
    o.trace_capacity = 4096;
    o.check_invariants = true;
  };
  if (name == "split") {
    g.sites = tiny_sites(2);
    g.samples = 2;
    g.defenses = {{"none", nullptr}, {"split", t.split.get()}};
    g.base_seed = 20260808;
    o.jobs = 2;
    arm_sinks();
  } else if (name == "cache") {
    g.sites = tiny_sites(2);
    g.defenses = {{"none", nullptr}, {"split", t.split.get()}};
    g.ccas = {"cubic", "bbr"};
    g.base_seed = 20260808;
    o.jobs = 2;
    arm_sinks();
  } else if (name == "resume") {
    g.sites = tiny_sites(1);
    g.samples = 2;
    g.defenses = {{"none", nullptr}, {"split", t.split.get()}};
    g.ccas = {"cubic"};
    g.base_seed = 20261017;
    o.jobs = 2;
    o.collect_metrics = true;
    o.trace_capacity = 4096;
  } else if (name == "seed3") {
    g.sites = tiny_sites(1);
    g.samples = 2;
    g.base_seed = 3;
    o.jobs = 2;
  } else if (name == "seed7") {
    g.sites = tiny_sites(2);
    g.base_seed = 7;
    o.jobs = 1;
  } else if (name == "five") {
    g.sites = tiny_sites(1);
    g.samples = 5;
    g.base_seed = 5;
    o.jobs = 2;
  } else {
    throw std::invalid_argument("tiny_grids: unknown grid '" + name + "'");
  }
  return t;
}

/// Proc options whose workers are grid_worker building grid `name`, with
/// `extra` flags appended to its command. Short backoff keeps retry tests
/// fast.
inline ProcOptions worker_opts(std::size_t workers, const std::string& name,
                               const std::vector<std::string>& extra = {}) {
  ProcOptions proc;
  proc.workers = workers;
  proc.job_timeout = Duration::seconds(30);
  proc.backoff_base = Duration::millis(1);
  proc.backoff_cap = Duration::millis(8);
  proc.worker_argv = {STOB_GRID_WORKER, "--grid", name};
  proc.worker_argv.insert(proc.worker_argv.end(), extra.begin(), extra.end());
  return proc;
}

}  // namespace stob::exp::tiny
