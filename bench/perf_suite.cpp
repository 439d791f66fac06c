// Reproducible performance-trajectory harness.
//
// Times the simulation core (event-loop microbenchmarks) and end-to-end
// workloads (page load, bare and with the invariant checker armed; a
// table1-style grid at --jobs {1,N}; a chaos scenario) and emits a
// BENCH_*.json snapshot so every PR extends a comparable perf trajectory.
// Unlike micro_bench this tool has *no external dependencies* (no
// google-benchmark): timing comes from CLOCK_PROCESS_CPUTIME_ID (plus a
// steady_clock wall reading) and heap churn from the counting operator new
// of util/alloc_probe.hpp.
//
// Usage:
//   perf_suite [--smoke] [--out BENCH_7.json] [--baseline OLD.json]
//              [--filter substr] [--jobs N] [--emit-manifest]
//
//   --smoke      tiny problem sizes (CI smoke job; numbers are not
//                comparable to full runs and are marked "smoke": true)
//   --baseline   embed a previous run's JSON verbatim under "baseline" and
//                report events/sec speedups for benchmarks both runs share
//   --jobs N     worker count for the _jN grid benchmark (default: hardware)
//   --emit-manifest  install the span profiler for the whole run and write
//                run_manifest.json + trace_events.json beside --out. The
//                profiler adds (small) overhead inside the experiment
//                engine, so committed BENCH_*.json snapshots are produced
//                WITHOUT this flag; manifests are for inspecting where a
//                perf run's time went, not for the trajectory numbers.
//
// Output schema, one object per benchmark:
//   { "name":, "wall_ms":, "cpu_ms":, "events":, "events_per_sec":,
//     "allocs":, "iters": }
// plus top-level "git_rev", "smoke" and (optionally) "baseline".
// events_per_sec is computed from process-CPU time (best of N iterations),
// which stays comparable when other tenants preempt us on shared runners;
// wall_ms is the same iteration's wall clock, reported for context.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "defenses/policy.hpp"
#include "defenses/trace_defense.hpp"
#include "exp/experiment.hpp"
#include "obs/manifest.hpp"
#include "obs/prof.hpp"
#include "exp/worker_pool.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "net/packet.hpp"
#include "net/pipe.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_probe.hpp"  // counting operator new for the allocs column
#include "util/rng.hpp"
#include "wf/corpus.hpp"
#include "wf/features.hpp"
#include "wf/kfp.hpp"
#include "wf/leaf_knn.hpp"
#include "wf/open_world.hpp"
#include "wf/random_forest.hpp"
#include "wf/synth_traces.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

using namespace stob;

namespace {

struct BenchResult {
  std::string name;
  double wall_ms = 0;
  double cpu_ms = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
  std::uint64_t allocs = 0;
  int iters = 0;
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Process CPU time in milliseconds (sums all threads). Preferred basis for
/// events/sec: unlike wall time it is insensitive to other tenants
/// preempting us on a shared machine, which keeps the BENCH_*.json
/// trajectory comparable across noisy CI runners.
double cpu_now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Run `body` (which returns the number of simulator events executed)
/// `iters` times; keep the best CPU time (noise floor), that iteration's
/// wall time and alloc count.
template <typename Body>
BenchResult run_bench(const std::string& name, int iters, Body&& body) {
  obs::ProfSpan span(name);  // no-op unless --emit-manifest installed a profiler
  BenchResult r;
  r.name = name;
  r.iters = iters;
  r.cpu_ms = 1e300;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t allocs0 = util::allocations();
    const double cpu0 = cpu_now_ms();
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t events = body();
    const double wall = ms_since(t0);
    const double cpu = cpu_now_ms() - cpu0;
    if (cpu < r.cpu_ms) {
      r.cpu_ms = cpu;
      r.wall_ms = wall;
      r.events = events;
      r.allocs = util::allocations() - allocs0;
    }
  }
  r.events_per_sec = r.cpu_ms > 0 ? static_cast<double>(r.events) / (r.cpu_ms / 1e3) : 0;
  std::printf("%-28s %10.2f cpu-ms %12" PRIu64 " events %14.0f ev/s %10" PRIu64 " allocs\n",
              r.name.c_str(), r.cpu_ms, r.events, r.events_per_sec, r.allocs);
  return r;
}

// ------------------------------------------------------- microbenchmarks

/// Representative callback capture: the transport timers capture `this`
/// plus a weak_ptr (24 B); the pipe captures a whole Packet. This struct
/// sits in between, so the std::function path of the old core pays its
/// heap allocation exactly as the real stack does.
struct MidCapture {
  std::uint64_t a[6] = {0, 0, 0, 0, 0, 0};
  void* self = nullptr;
};

/// The headline event-loop benchmark: schedule `n` one-shot events at
/// pseudo-random times in batches, drain, repeat. Exercises push, pop and
/// callback dispatch with no cancellation.
std::uint64_t sim_schedule_fire(std::size_t n) {
  sim::Simulator s;
  std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const std::size_t batch = 4096;
  std::size_t scheduled = 0;
  while (scheduled < n) {
    const std::size_t m = std::min(batch, n - scheduled);
    for (std::size_t i = 0; i < m; ++i) {
      x ^= x << 13; x ^= x >> 7; x ^= x << 17;
      MidCapture cap;
      cap.a[0] = x;
      cap.self = &sink;
      s.schedule_after(Duration(static_cast<std::int64_t>(x % 1000)),
                       [cap] { *static_cast<std::uint64_t*>(cap.self) += cap.a[0]; });
    }
    scheduled += m;
    s.run();
  }
  if (sink == 42) std::printf("?");  // defeat dead-code elimination
  return s.executed();
}

/// Transport-timer churn: most scheduled timers are cancelled and rearmed
/// before firing (RTO/delack/PTO behaviour). Cancellation cost dominates.
std::uint64_t sim_timer_churn(std::size_t n) {
  sim::Simulator s;
  std::uint64_t fired = 0;
  std::uint64_t x = 0xC0FFEEull;
  std::vector<sim::EventId> live(64);
  std::size_t scheduled = 0;
  while (scheduled < n) {
    for (std::size_t slot = 0; slot < live.size() && scheduled < n; ++slot, ++scheduled) {
      x ^= x << 13; x ^= x >> 7; x ^= x << 17;
      s.cancel(live[slot]);  // rearm: cancel the previous timer in this slot
      live[slot] = s.schedule_after(Duration(static_cast<std::int64_t>(200 + x % 800)),
                                    [&fired] { ++fired; });
      if (x % 8 == 0) s.run(s.now() + Duration(50));  // let a few fire
    }
  }
  s.run();
  return s.executed() + s.cancelled();
}

/// Same-timestamp FIFO bursts: models TSO micro-bursts and simultaneous
/// qdisc releases, stressing the tie-break path.
std::uint64_t sim_same_tick(std::size_t n) {
  sim::Simulator s;
  std::uint64_t order_check = 0;
  const std::size_t burst = 64;
  std::size_t scheduled = 0;
  std::int64_t t = 0;
  while (scheduled < n) {
    for (std::size_t i = 0; i < burst; ++i) {
      s.schedule_at(TimePoint(t), [&order_check, i] { order_check += i; });
    }
    scheduled += burst;
    t += 10;
    if (scheduled % (burst * 64) == 0) s.run();
  }
  s.run();
  return s.executed();
}

/// Packet stream through a pipe: serialisation + delivery events carrying
/// Packet captures, the simulator's dominant real workload.
std::uint64_t net_pipe_stream(std::size_t n) {
  sim::Simulator s;
  net::Pipe::Config cfg;
  cfg.rate = DataRate::gbps(10);
  cfg.delay = Duration::micros(50);
  cfg.queue_capacity = Bytes(0);  // unbounded: this measures the event loop
  net::Pipe pipe(s, cfg);
  std::uint64_t delivered = 0;
  pipe.set_sink([&delivered](net::Packet) { ++delivered; });
  const std::size_t batch = 1024;
  std::size_t sent = 0;
  while (sent < n) {
    const std::size_t m = std::min(batch, n - sent);
    for (std::size_t i = 0; i < m; ++i) {
      net::Packet p;
      p.id = net::next_packet_id();
      p.flow = {1, 2, 40000, 443, net::Proto::Tcp};
      p.header = Bytes(net::kEthIpTcpHeader);
      p.payload = Bytes(1460);
      p.tcp().seq = sent + i;
      pipe.send(std::move(p));
    }
    sent += m;
    s.run();
  }
  return s.executed();
}

// ------------------------------------------------------- e2e benchmarks

workload::PageLoadOptions page_options() {
  workload::PageLoadOptions opt;
  opt.tls_records = true;
  return opt;
}

/// `checked` arms a StackInvariantChecker on the listener tap, so the same
/// loads also pay for checking every stack event.
std::uint64_t e2e_page_load(int repeats, bool checked) {
  std::uint64_t events = 0;
  for (int i = 0; i < repeats; ++i) {
    net::PacketIdScope ids;
    fault::StackInvariantChecker checker;
    std::optional<obs::ScopedListener> armed;
    if (checked) armed.emplace(checker);
    Rng rng(0xBE7C4ull + static_cast<std::uint64_t>(i));
    const workload::PageLoadResult r =
        workload::run_page_load(workload::nine_sites()[0], rng, page_options());
    if (!r.completed) std::fprintf(stderr, "WARNING: page load %d incomplete\n", i);
    if (checker.violations() > 0) {
      std::fprintf(stderr, "WARNING: page load %d: %s\n", i, checker.first_report().c_str());
    }
    events += r.sim_events;
  }
  return events;
}

std::uint64_t grid_run(std::size_t sites, std::size_t samples, std::size_t jobs,
                       bool chaos) {
  exp::ExperimentGrid grid;
  const auto& all = workload::nine_sites();
  grid.sites.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(sites));
  grid.samples = samples;
  grid.ccas = {"reno", "cubic", "bbr"};
  if (chaos) grid.faults = {fault::PathProfile::symmetric(fault::adverse_mix())};
  grid.base_seed = 0x57AB1E5EEDull;
  exp::RunOptions opts;
  opts.page = page_options();
  opts.jobs = jobs;
  std::uint64_t events = 0;
  for (const exp::JobResult& r : exp::run_grid(grid, opts)) events += r.sim_events;
  return events;
}

// ------------------------------------------------- WF attack benchmarks
//
// Synthetic k-FP-scale learning problem: `classes` Gaussian blobs in a
// feature space as wide as the real k-FP extractor produces. Sizes are the
// benchmark contract — the wf.* entries stay comparable across engine
// rewrites only while the (rows, features, trees) triple is unchanged.

struct WfBenchData {
  wf::FeatureMatrix x;
  std::vector<int> labels;
  int classes = 0;

  WfBenchData(int num_classes, int per_class, std::size_t features)
      : x(static_cast<std::size_t>(num_classes) * static_cast<std::size_t>(per_class), features),
        classes(num_classes) {
    Rng rng(0xF0E57ull);
    std::size_t r = 0;
    for (int c = 0; c < num_classes; ++c) {
      for (int s = 0; s < per_class; ++s, ++r) {
        for (double& v : x.row(r)) v = rng.normal(static_cast<double>(c), 2.0);
        labels.push_back(c);
      }
    }
  }
};

/// Forest training: events = trees x training rows (tree-sample units).
std::uint64_t wf_fit(const WfBenchData& data, std::size_t trees) {
  wf::RandomForest::Config cfg;
  cfg.num_trees = trees;
  wf::RandomForest forest(cfg);
  forest.fit({&data.x, data.labels, data.classes});
  if (!forest.trained()) std::printf("?");
  return trees * data.x.rows();
}

/// Forest inference over the whole dataset, `passes` times: events =
/// predictions x trees (tree-walk units).
std::uint64_t wf_predict_batch(const wf::RandomForest& forest, const WfBenchData& data,
                               int passes) {
  std::uint64_t sink = 0;
  for (int p = 0; p < passes; ++p) {
    for (int pred : forest.predict_batch(data.x)) sink += static_cast<std::uint64_t>(pred);
  }
  if (sink == 0xFFFFFFFFull) std::printf("?");
  return static_cast<std::uint64_t>(passes) * data.x.rows() * forest.tree_count();
}

/// Leaf-vector k-NN (k-FP's open-world mechanism): the whole dataset
/// queries itself, `passes` times. events = query x train pairs.
std::uint64_t wf_knn_leaf(const WfBenchData& data, std::size_t trees, int passes) {
  wf::KFingerprint::Config cfg;
  cfg.forest.num_trees = trees;
  cfg.use_knn = true;
  wf::KFingerprint clf(cfg);
  clf.fit(data.x, data.labels);
  std::uint64_t sink = 0;
  for (int p = 0; p < passes; ++p) {
    for (int pred : clf.predict_batch(data.x)) sink += static_cast<std::uint64_t>(pred);
  }
  if (sink == 0xFFFFFFFFull) std::printf("?");
  return static_cast<std::uint64_t>(passes) * data.x.rows() * data.x.rows();
}

/// Pure blocked-descent kernel: leaf ids for the whole dataset, `passes`
/// times, on a pre-trained forest. Unlike wf.predict_batch this skips vote
/// aggregation, so the number isolates kernels::descend_block (scalar on
/// every level since its AVX2 variant lost to it; the row keeps its name so
/// the BENCH_* trajectory stays comparable). events = rows x trees
/// tree-walk units.
std::uint64_t wf_descent_simd(const wf::RandomForest& forest, const WfBenchData& data,
                              int passes) {
  std::vector<std::uint32_t> leaves(data.x.rows() * forest.tree_count());
  std::uint64_t sink = 0;
  for (int p = 0; p < passes; ++p) {
    forest.leaf_batch(data.x.data(), data.x.row_stride(), data.x.rows(), leaves.data());
    sink += leaves[0];
  }
  if (sink == 0xFFFFFFFFull) std::printf("?");
  return static_cast<std::uint64_t>(passes) * data.x.rows() * forest.tree_count();
}

/// Pure leaf-agreement kernel over precomputed leaf vectors. wf.knn_leaf
/// times fit + leaf extraction + matching together; this entry times only
/// kernels::leaf_match_block so kernel speedups are not diluted by
/// training. events = query x train pairs.
std::uint64_t wf_knn_simd(const std::vector<std::uint32_t>& leaves, std::size_t rows,
                          std::size_t trees, int passes) {
  std::vector<int> counts(rows * rows);
  std::uint64_t sink = 0;
  for (int p = 0; p < passes; ++p) {
    wf::leaf_match_matrix(leaves, rows, leaves, rows, trees, counts);
    sink += static_cast<std::uint64_t>(counts[0]);
  }
  if (sink == 0xFFFFFFFFull) std::printf("?");
  return static_cast<std::uint64_t>(passes) * rows * rows;
}

/// k-FP feature extraction over pre-generated synthetic page loads: the
/// timed body is kfp_features_into (counting/banding kernels + scalar
/// stats). events = packets consumed.
std::uint64_t wf_features_simd(const std::vector<wf::Trace>& traces, std::uint64_t packets,
                               int passes) {
  std::vector<double> row(wf::kfp_feature_count());
  double sink = 0;
  for (int p = 0; p < passes; ++p) {
    for (const wf::Trace& t : traces) {
      wf::kfp_features_into(t, row);
      sink += row[0];
    }
  }
  if (sink < 0) std::printf("?");
  return static_cast<std::uint64_t>(passes) * packets;
}

/// Store-backed streaming open world end to end: mmap + sha256-validate
/// two STOBFST1 stores, fit a forest from sampled rows, stream the
/// background corpus block-wise with pages dropped behind the pass. The
/// stores are written once outside the timed body. events = background
/// rows x trees (tree-walk units of the streaming pass).
std::uint64_t corpus_stream_fit(const std::filesystem::path& dir, std::size_t trees,
                                std::size_t block_rows) {
  const wf::FeatureStore monitored(dir / "monitored.fst", wf::kfp_feature_count());
  const wf::FeatureStore background(dir / "background.fst", wf::kfp_feature_count());
  wf::OpenWorldStreamConfig cfg;
  cfg.forest.num_trees = trees;
  cfg.bg_train_count = background.rows() / 10;
  cfg.block_rows = block_rows;
  cfg.seed = 0xC0FFEEull;
  const wf::OpenWorldResult res = wf::open_world_stream(monitored, background, cfg);
  if (res.background_tested == 0) std::printf("?");
  return background.rows() * trees;
}

/// Miniature Table 2 pipeline: collect a (site x sample) grid through the
/// simulated stack, sanitise, then cross-validate k-FP over (scope x
/// countermeasure) cells — the paper's dominant evaluation loop end to end.
/// Attack cells run serially (jobs=1) so the CPU-time basis is clean.
/// events = simulator events of the collection stage (identical across
/// attack-engine rewrites, so events/sec ratios are CPU-time ratios).
std::uint64_t grid_table2(std::size_t sites, std::size_t samples, std::size_t folds,
                          std::size_t trees) {
  exp::ExperimentGrid grid;
  const auto& all = workload::nine_sites();
  grid.sites.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(sites));
  grid.samples = samples;
  grid.base_seed = 0x7AB1E2ull;
  exp::RunOptions opts;
  opts.page = page_options();
  opts.jobs = 1;
  std::uint64_t events = 0;
  const std::vector<exp::JobResult> results = exp::run_grid(grid, opts);
  for (const exp::JobResult& r : results) events += r.sim_events;
  const wf::Dataset data = exp::to_dataset(results).sanitized_by_download_size(0.75);

  const auto combined = defenses::make_policy_defense("combined");
  struct Variant {
    const char* name;
    const defenses::TraceDefense* defense;
  };
  const Variant variants[] = {{"Original", nullptr}, {"Combined", combined.get()}};
  wf::KFingerprint::Config kfp_cfg;
  kfp_cfg.forest.num_trees = trees;
  double acc = 0;
  for (std::size_t scope : {std::size_t{30}, std::size_t{0}}) {
    for (const Variant& v : variants) {
      Rng rng(0x7AB1E2ull ^ 0xDEFull);
      const wf::Dataset defended = data.transformed([&](const wf::Trace& t) {
        wf::Trace out =
            v.defense != nullptr ? defenses::apply_to_prefix(*v.defense, t, scope, rng) : t;
        return scope == 0 ? out : out.truncated(scope);
      });
      acc += wf::cross_validate(defended, kfp_cfg, folds, 0x7AB1E2ull).mean_accuracy;
    }
  }
  if (acc < 0) std::printf("?");
  return events;
}

// ------------------------------------------------------------- reporting

/// Extract "events_per_sec" for benchmark `name` from a previous run's JSON
/// (our own emitter's formatting; not a general JSON parser).
double baseline_events_per_sec(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\": \"" + name + "\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  const std::string key = "\"events_per_sec\": ";
  const std::size_t k = json.find(key, at);
  if (k == std::string::npos) return 0;
  return std::atof(json.c_str() + k + key.size());
}

void write_json(const std::string& path, const std::vector<BenchResult>& results, bool smoke,
                const std::string& baseline_json) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"stob-bench-v1\",\n";
  out << "  \"git_rev\": \"" << obs::git_rev() << "\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"wall_ms\": " << r.wall_ms
        << ", \"cpu_ms\": " << r.cpu_ms << ", \"events\": " << r.events
        << ", \"events_per_sec\": " << r.events_per_sec << ", \"allocs\": " << r.allocs
        << ", \"iters\": " << r.iters << "}";
    if (!baseline_json.empty()) {
      const double base = baseline_events_per_sec(baseline_json, r.name);
      if (base > 0) {
        out << ",\n    {\"name\": \"" << r.name << ".speedup_vs_baseline\", \"wall_ms\": 0"
            << ", \"cpu_ms\": 0, \"events\": 0, \"events_per_sec\": "
            << (r.events_per_sec / base) << ", \"allocs\": 0, \"iters\": 0}";
      }
    }
    out << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  ]";
  if (!baseline_json.empty()) {
    out << ",\n  \"baseline\": " << baseline_json << "\n";
  } else {
    out << "\n";
  }
  out << "}\n";

  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  f << out.str();
  std::printf("\nwrote %s (git %s)\n", path.c_str(), obs::git_rev().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool emit_manifest = false;
  std::string out_path = "BENCH_7.json";
  std::string baseline_path;
  std::string filter;
  std::size_t jobs_n = std::thread::hardware_concurrency();
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(a, "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(a, "--filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    } else if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      jobs_n = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(a, "--emit-manifest") == 0) {
      emit_manifest = true;
    } else {
      std::fprintf(stderr,
                   "usage: perf_suite [--smoke] [--out F] [--baseline F] [--filter S] "
                   "[--jobs N] [--emit-manifest]\n");
      return 2;
    }
  }
  if (jobs_n == 0) jobs_n = 1;

  // Problem sizes: full runs target ~seconds per benchmark; smoke runs keep
  // CI fast while still exercising every code path.
  const std::size_t micro_n = smoke ? 200'000 : 4'000'000;
  const int micro_iters = smoke ? 2 : 5;
  const std::size_t pipe_n = smoke ? 50'000 : 1'000'000;
  const int page_repeats = smoke ? 1 : 5;
  const std::size_t grid_sites = smoke ? 1 : 3;
  const std::size_t grid_samples = smoke ? 1 : 4;

  stob::obs::Profiler prof;
  if (emit_manifest) stob::obs::install_profiler(&prof);

  std::vector<BenchResult> results;
  auto want = [&](const char* name) {
    return filter.empty() || std::string(name).find(filter) != std::string::npos;
  };

  std::printf("perf_suite (%s, jobs=%zu)\n\n", smoke ? "smoke" : "full", jobs_n);
  if (want("sim.schedule_fire")) {
    results.push_back(run_bench("sim.schedule_fire", micro_iters,
                                [&] { return sim_schedule_fire(micro_n); }));
  }
  if (want("sim.timer_churn")) {
    results.push_back(
        run_bench("sim.timer_churn", micro_iters, [&] { return sim_timer_churn(micro_n); }));
  }
  if (want("sim.same_tick_fifo")) {
    results.push_back(
        run_bench("sim.same_tick_fifo", micro_iters, [&] { return sim_same_tick(micro_n); }));
  }
  if (want("net.pipe_stream")) {
    results.push_back(
        run_bench("net.pipe_stream", micro_iters, [&] { return net_pipe_stream(pipe_n); }));
  }
  if (want("e2e.page_load")) {
    results.push_back(run_bench("e2e.page_load", smoke ? 1 : 3,
                                [&] { return e2e_page_load(page_repeats, /*checked=*/false); }));
  }
  if (want("e2e.page_load_checked")) {
    results.push_back(run_bench("e2e.page_load_checked", smoke ? 1 : 3,
                                [&] { return e2e_page_load(page_repeats, /*checked=*/true); }));
  }
  if (want("grid.table1_j1")) {
    results.push_back(run_bench("grid.table1_j1", 1, [&] {
      return grid_run(grid_sites, grid_samples, 1, /*chaos=*/false);
    }));
  }
  if (want("grid.table1_jN")) {
    results.push_back(run_bench("grid.table1_jN", 1, [&] {
      return grid_run(grid_sites, grid_samples, jobs_n, /*chaos=*/false);
    }));
  }
  if (want("grid.chaos")) {
    results.push_back(run_bench("grid.chaos", 1, [&] {
      return grid_run(grid_sites, grid_samples, jobs_n, /*chaos=*/true);
    }));
  }

  // WF attack engine. Sizes are part of the benchmark contract (see
  // WfBenchData); the feature width matches the real k-FP extractor scale.
  const int wf_classes = 9;
  const int wf_per_class = smoke ? 10 : 60;
  const std::size_t wf_features = 150;
  const std::size_t wf_trees = smoke ? 20 : 100;
  const int wf_iters = smoke ? 1 : 3;
  if (want("wf.")) {
    const WfBenchData wf_data(wf_classes, wf_per_class, wf_features);
    if (want("wf.fit")) {
      results.push_back(
          run_bench("wf.fit", wf_iters, [&] { return wf_fit(wf_data, wf_trees); }));
    }
    if (want("wf.predict_batch")) {
      wf::RandomForest::Config cfg;
      cfg.num_trees = wf_trees;
      wf::RandomForest forest(cfg);
      forest.fit({&wf_data.x, wf_data.labels, wf_data.classes});
      const int passes = smoke ? 2 : 20;
      results.push_back(run_bench("wf.predict_batch", wf_iters,
                                  [&] { return wf_predict_batch(forest, wf_data, passes); }));
    }
    if (want("wf.knn_leaf")) {
      const int passes = smoke ? 1 : 4;
      results.push_back(run_bench("wf.knn_leaf", wf_iters,
                                  [&] { return wf_knn_leaf(wf_data, wf_trees, passes); }));
    }
    if (want("wf.descent_simd") || want("wf.knn_simd")) {
      wf::RandomForest::Config cfg;
      cfg.num_trees = wf_trees;
      wf::RandomForest forest(cfg);
      forest.fit({&wf_data.x, wf_data.labels, wf_data.classes});
      if (want("wf.descent_simd")) {
        const int passes = smoke ? 4 : 40;
        results.push_back(run_bench("wf.descent_simd", wf_iters,
                                    [&] { return wf_descent_simd(forest, wf_data, passes); }));
      }
      if (want("wf.knn_simd")) {
        const std::vector<std::uint32_t> leaves = forest.leaf_batch(wf_data.x);
        const int passes = smoke ? 8 : 60;
        results.push_back(run_bench("wf.knn_simd", wf_iters, [&] {
          return wf_knn_simd(leaves, wf_data.x.rows(), forest.tree_count(), passes);
        }));
      }
    }
    if (want("wf.features_simd")) {
      std::vector<wf::Trace> traces;
      std::uint64_t packets = 0;
      const std::size_t n_traces = smoke ? 60 : 400;
      traces.reserve(n_traces);
      for (std::size_t i = 0; i < n_traces; ++i) {
        traces.push_back(wf::synth_background_trace(0xFEA7ull, i));
        packets += traces.back().size();
      }
      const int passes = smoke ? 2 : 10;
      results.push_back(run_bench("wf.features_simd", wf_iters,
                                  [&] { return wf_features_simd(traces, packets, passes); }));
    }
  }
  if (want("grid.table2")) {
    results.push_back(run_bench("grid.table2", 1, [&] {
      return grid_table2(smoke ? 2 : 9, smoke ? 2 : 12, /*folds=*/3, smoke ? 15 : 60);
    }));
  }
  if (want("corpus.stream_fit")) {
    // The stores are generated once up front; the timed body is mmap +
    // sha validation + streaming fit/eval (the million-trace driver's
    // steady-state path at benchmark scale).
    const std::filesystem::path dir = std::filesystem::temp_directory_path() / "stob_perf_corpus";
    std::filesystem::create_directories(dir);
    const std::size_t features = wf::kfp_feature_count();
    const std::uint64_t c_sites = smoke ? 4 : 10;
    const std::uint64_t c_inst = smoke ? 10 : 40;
    const std::uint64_t c_bg = smoke ? 800 : 20'000;
    const std::size_t c_trees = smoke ? 10 : 40;
    {
      std::vector<double> row(features);
      wf::FeatureStoreWriter mon(dir / "monitored.fst", features);
      for (std::uint64_t s = 0; s < c_sites; ++s) {
        for (std::uint64_t i = 0; i < c_inst; ++i) {
          wf::kfp_features_into(wf::synth_site_trace(0xC0DEull, static_cast<int>(s), i), row);
          mon.append_row(row, static_cast<int>(s));
        }
      }
      mon.finish();
      wf::FeatureStoreWriter bg(dir / "background.fst", features);
      for (std::uint64_t i = 0; i < c_bg; ++i) {
        wf::kfp_features_into(wf::synth_background_trace(0xC0DEull, i), row);
        bg.append_row(row, -1);
      }
      bg.finish();
    }
    results.push_back(run_bench("corpus.stream_fit", smoke ? 1 : 2, [&] {
      return corpus_stream_fit(dir, c_trees, smoke ? 256 : 2048);
    }));
  }

  std::string baseline_json;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    baseline_json = ss.str();
    while (!baseline_json.empty() &&
           (baseline_json.back() == '\n' || baseline_json.back() == ' ')) {
      baseline_json.pop_back();
    }
  }

  write_json(out_path, results, smoke, baseline_json);

  if (emit_manifest) {
    stob::obs::install_profiler(nullptr);
    // Manifest + timeline land beside the snapshot: BENCH_x.json ->
    // run_manifest.json / trace_events.json in the same directory.
    const std::filesystem::path out_dir = std::filesystem::path(out_path).parent_path();
    stob::obs::RunManifest m =
        stob::obs::build_manifest("perf_suite", prof, nullptr, jobs_n, 0);
    m.set_config("smoke", smoke ? "true" : "false");
    m.set_config("filter", filter);
    m.set_config("out", out_path);
    const std::filesystem::path manifest_path = out_dir / "run_manifest.json";
    const std::filesystem::path trace_path = out_dir / "trace_events.json";
    m.write(manifest_path);
    stob::obs::write_trace_event(trace_path, prof.records(), "perf_suite");
    std::printf("wrote %s and %s\n", manifest_path.string().c_str(),
                trace_path.string().c_str());
  }
  return 0;
}
