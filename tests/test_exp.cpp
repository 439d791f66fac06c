// Tests for the parallel experiment engine (src/exp/): grid enumeration,
// job-keyed seeding, ordered worker-pool reduction, thread-local obs sink
// isolation, and the engine's central guarantee — N-thread output is
// byte-identical to 1-thread output (metrics snapshots and exported trace
// CSVs included).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/worker_pool.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace_recorder.hpp"
#include "util/log.hpp"
#include "workload/website.hpp"

namespace stob::exp {
namespace {

// Small, fast site profiles (few objects, short pages) so engine tests run
// whole grids in well under a second.
std::vector<workload::SiteProfile> tiny_sites(std::size_t n) {
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

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------------- grid

TEST(ExperimentGrid, EnumeratesFullCartesianProduct) {
  ExperimentGrid grid;
  grid.sites = tiny_sites(3);
  grid.samples = 4;
  grid.defenses = {{"none", nullptr}, {"alt", nullptr}};
  grid.ccas = {"cubic", "reno", "bbr"};
  grid.base_seed = 7;
  EXPECT_EQ(grid.job_count(), 3u * 4u * 2u * 3u);

  const std::vector<JobSpec> jobs = grid.jobs();
  ASSERT_EQ(jobs.size(), grid.job_count());
  std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>> seen;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_LT(jobs[i].site, 3u);
    EXPECT_LT(jobs[i].sample, 4u);
    EXPECT_LT(jobs[i].defense, 2u);
    EXPECT_LT(jobs[i].cca, 3u);
    seen.insert({jobs[i].site, jobs[i].sample, jobs[i].defense, jobs[i].cca});
  }
  EXPECT_EQ(seen.size(), jobs.size());  // every coordinate distinct
}

TEST(ExperimentGrid, EmptyAxesContributeOnePoint) {
  ExperimentGrid grid;
  grid.sites = tiny_sites(2);
  grid.samples = 3;
  EXPECT_EQ(grid.job_count(), 6u);
  EXPECT_EQ(grid.job(5).site, 1u);
  EXPECT_EQ(grid.job(5).sample, 2u);
}

TEST(JobSeed, KeyedByIndexNotWorker) {
  // Pure function of (base, index); distinct across indices and bases.
  EXPECT_EQ(job_seed(1, 0), job_seed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(job_seed(42, i));
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(job_seed(41, 1), job_seed(42, 0));  // no (base, index) aliasing
}

TEST(JobSeed, NoCollisionsAcrossLargeIndexSpace) {
  // A colliding pair of jobs would silently produce duplicated samples, so
  // sweep a realistically large index space (far above any grid we run).
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 200000; ++i) seeds.insert(job_seed(20260808, i));
  EXPECT_EQ(seeds.size(), 200000u);
  // And across neighbouring bases at the same indices: resuming a sweep
  // under a tweaked base seed must not replay any old job's stream.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_FALSE(seeds.count(job_seed(20260809, i))) << "base/index aliasing at " << i;
  }
}

// ------------------------------------------------------------ worker pool

TEST(WorkerPool, OrderedResultsForAnyThreadCount) {
  auto square = [](std::size_t i) { return i * i; };
  const std::vector<std::size_t> serial = run_ordered<std::size_t>(100, 1, square);
  for (std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run_ordered<std::size_t>(100, threads, square), serial);
  }
}

TEST(WorkerPool, PropagatesFirstException) {
  EXPECT_THROW(run_ordered<int>(64, 4,
                                [](std::size_t i) {
                                  if (i == 13) throw std::runtime_error("boom");
                                  return static_cast<int>(i);
                                }),
               std::runtime_error);
}

TEST(WorkerPool, JobErrorCarriesLowestFailingIndex) {
  // Failure semantics pinned for every execution path: the pool rethrows a
  // JobError for the *lowest* failing job index (deterministic across
  // scheduling), whose message names the index and the original error.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    try {
      run_ordered<int>(64, threads, [](std::size_t) -> int {
        throw std::runtime_error("boom");
      });
      FAIL() << "expected JobError at threads=" << threads;
    } catch (const JobError& e) {
      EXPECT_EQ(e.job_index(), 0u);
      const std::string what = e.what();
      EXPECT_NE(what.find("job 0"), std::string::npos) << what;
      EXPECT_NE(what.find("boom"), std::string::npos) << what;
    }
  }
}

TEST(WorkerPool, NonStdExceptionsAreWrappedToo) {
  try {
    run_ordered<int>(4, 2, [](std::size_t i) -> int {
      if (i == 2) throw 42;  // not derived from std::exception
      return static_cast<int>(i);
    });
    FAIL() << "expected JobError";
  } catch (const JobError& e) {
    EXPECT_EQ(e.job_index(), 2u);
    EXPECT_NE(std::string(e.what()).find("unknown exception"), std::string::npos);
  }
}

TEST(WorkerPool, ExceptionNeverDeadlocksEvenWithManyThreads) {
  // More threads than jobs and a late-index failure: every worker must be
  // released and joined (the test finishing at all is the assertion).
  for (int round = 0; round < 8; ++round) {
    EXPECT_THROW(run_ordered<int>(8, 16,
                                  [](std::size_t i) -> int {
                                    if (i >= 6) throw std::runtime_error("late");
                                    return static_cast<int>(i);
                                  }),
                 JobError);
  }
}

TEST(WorkerPool, RunGridNamesTheFailingCell) {
  // run_grid decorates the pool's JobError with the failing cell's grid
  // coordinates, so a crashing sweep names the exact (site, defense, ...)
  // combination instead of just an opaque index.
  const defenses::PolicyInfo thrower{
      "thrower", {}, []() -> std::unique_ptr<defenses::Policy> {
        throw std::runtime_error("defense exploded");
      }};
  ExperimentGrid grid;
  grid.sites = tiny_sites(2);
  grid.samples = 1;
  grid.defenses = {{"none", nullptr}, {"thrower", &thrower}};
  grid.base_seed = 5;
  RunOptions opts;
  opts.jobs = 2;
  try {
    run_grid(grid, opts);
    FAIL() << "expected the throwing defense to surface";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("defense exploded"), std::string::npos) << what;
    EXPECT_NE(what.find("cell"), std::string::npos) << what;
    EXPECT_NE(what.find("defense=thrower"), std::string::npos) << what;
    EXPECT_NE(what.find("site=tiny0"), std::string::npos) << what;
  }
}

TEST(WorkerPool, ZeroJobsAndMoreThreadsThanJobs) {
  EXPECT_TRUE((run_ordered<int>(0, 4, [](std::size_t) { return 1; }).empty()));
  const std::vector<int> r =
      run_ordered<int>(2, 16, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(r, (std::vector<int>{0, 1}));
}

// ----------------------------------------------- thread-local obs sinks

TEST(ThreadLocalObs, SinksAreIsolatedPerThread) {
  obs::MetricsRegistry main_reg;
  obs::ScopedMetrics guard(main_reg);
  obs::count("main.only");

  std::string worker_snapshot;
  bool worker_saw_null = false;
  std::thread worker([&] {
    // A fresh thread starts with no sinks, regardless of the main thread's.
    worker_saw_null = obs::metrics() == nullptr && obs::recorder() == nullptr;
    obs::MetricsRegistry reg;
    obs::ScopedMetrics inner(reg);
    obs::count("worker.only", 3);
    worker_snapshot = reg.snapshot();
  });
  worker.join();

  EXPECT_TRUE(worker_saw_null);
  EXPECT_EQ(worker_snapshot, "counter worker.only 3\n");
  EXPECT_EQ(main_reg.counter("main.only"), 1u);
  EXPECT_EQ(main_reg.counter("worker.only"), 0u);  // no cross-thread bleed
}

TEST(ThreadLocalObs, ParallelWorkersCountIntoOwnRegistries) {
  // TSan stress: many workers hammer the hooks concurrently, each into its
  // own scoped registry; every job must see exactly its own counts.
  const std::vector<std::uint64_t> totals =
      run_ordered<std::uint64_t>(64, 8, [](std::size_t i) {
        obs::MetricsRegistry reg;
        obs::ScopedMetrics guard(reg);
        const std::uint64_t n = 100 + i;
        for (std::uint64_t k = 0; k < n; ++k) {
          obs::count("job.ticks");
          obs::sample("job.value", static_cast<double>(k));
        }
        return reg.counter("job.ticks");
      });
  for (std::size_t i = 0; i < totals.size(); ++i) EXPECT_EQ(totals[i], 100 + i);
}

TEST(ThreadLocalObs, PacketIdScopeResetsAndRestores) {
  const std::uint64_t before = net::next_packet_id();
  {
    net::PacketIdScope scope;
    EXPECT_EQ(net::next_packet_id(), 1u);
    EXPECT_EQ(net::next_packet_id(), 2u);
  }
  EXPECT_EQ(net::next_packet_id(), before + 1);
}

// ----------------------------------------------------------- determinism

ExperimentGrid small_grid() {
  ExperimentGrid grid;
  grid.sites = tiny_sites(2);
  grid.samples = 2;
  grid.ccas = {"cubic", "reno"};
  grid.base_seed = 20260805;
  return grid;
}

TEST(EngineDeterminism, ParallelOutputByteIdenticalToSerial) {
  const ExperimentGrid grid = small_grid();
  RunOptions opts;
  opts.collect_metrics = true;
  opts.trace_capacity = 1 << 14;

  opts.jobs = 1;
  const std::vector<JobResult> serial = run_grid(grid, opts);
  opts.jobs = 8;
  const std::vector<JobResult> parallel = run_grid(grid, opts);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(results_identical(serial[i], parallel[i])) << "job " << i;
    EXPECT_FALSE(serial[i].metrics.empty());
    EXPECT_FALSE(serial[i].events.empty());
  }
  // The reduction (labeled dataset) is identical too.
  const wf::Dataset a = to_dataset(serial);
  const wf::Dataset b = to_dataset(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_EQ(a.trace(i), b.trace(i));
  }
}

TEST(EngineDeterminism, CheckDeterminismModePasses) {
  ExperimentGrid grid = small_grid();
  grid.ccas.clear();  // smaller grid: this mode runs everything twice
  RunOptions opts;
  opts.jobs = 4;
  opts.collect_metrics = true;
  opts.check_determinism = true;
  EXPECT_NO_THROW(run_grid(grid, opts));
}

TEST(EngineDeterminism, RepeatedSeededRunsExportIdenticalArtifacts) {
  // Two identical seeded runs must produce byte-identical
  // MetricsRegistry::snapshot() output and identical exported trace CSVs.
  const ExperimentGrid grid = small_grid();
  RunOptions opts;
  opts.jobs = 4;
  opts.collect_metrics = true;
  opts.trace_capacity = 1 << 14;

  const std::vector<JobResult> first = run_grid(grid, opts);
  const std::vector<JobResult> second = run_grid(grid, opts);
  ASSERT_EQ(first.size(), second.size());

  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].metrics, second[i].metrics) << "job " << i;

    obs::TraceRecorder rec_a(1 << 14), rec_b(1 << 14);
    for (const obs::PacketEvent& ev : first[i].events) rec_a.record(ev);
    for (const obs::PacketEvent& ev : second[i].events) rec_b.record(ev);
    const std::filesystem::path csv_a = dir / ("stob_exp_a_" + std::to_string(i) + ".csv");
    const std::filesystem::path csv_b = dir / ("stob_exp_b_" + std::to_string(i) + ".csv");
    rec_a.write_csv(csv_a);
    rec_b.write_csv(csv_b);
    const std::string bytes_a = read_file(csv_a);
    EXPECT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, read_file(csv_b)) << "job " << i;
    std::filesystem::remove(csv_a);
    std::filesystem::remove(csv_b);
  }
}

TEST(EngineDeterminism, CcaAxisChangesTraffic) {
  // Sanity that the CCA axis is actually applied: same site/sample/seed
  // under cubic vs reno should not produce identical packet traces for a
  // multi-object page (different cwnd growth => different segmentation).
  ExperimentGrid grid;
  grid.sites = tiny_sites(1);
  grid.sites[0].objects_mean = 12.0;  // enough traffic for CCAs to diverge
  grid.samples = 1;
  grid.ccas = {"cubic", "bbr"};
  grid.base_seed = 99;
  RunOptions opts;
  opts.jobs = 2;
  const std::vector<JobResult> results = run_grid(grid, opts);
  ASSERT_EQ(results.size(), 2u);
  // Job seeds differ (index-keyed), so compare only that both completed and
  // produced traffic; the axis plumbing is what's under test.
  EXPECT_FALSE(results[0].trace.empty());
  EXPECT_FALSE(results[1].trace.empty());
}


// ------------------------------------------------- profiled worker pool

TEST(ProfiledPool, ParallelStructureMatchesSerial) {
  // With a profiler installed, run_ordered records per-job spans under
  // deterministic sub-domain ids; the exported structure (ids, parents,
  // depths, names) must be byte-identical for any worker count.
  auto capture = [](std::size_t threads) {
    obs::Profiler prof(99);
    obs::ScopedProfiler guard(prof);
    std::vector<int> results;
    {
      obs::ProfSpan span("batch");
      results = run_ordered<int>(6, threads, [](std::size_t i) {
        obs::ProfSpan outer("work");
        obs::ProfSpan inner(i % 2 == 0 ? "even" : "odd");
        return static_cast<int>(i * i);
      });
    }
    return std::make_pair(prof.structure(), results);
  };
  const auto serial = capture(1);
  const auto parallel = capture(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_NE(serial.first.find(" batch\n"), std::string::npos);
  EXPECT_NE(serial.first.find(" job\n"), std::string::npos);
  EXPECT_NE(serial.first.find(" even\n"), std::string::npos);
}

TEST(ProfiledPool, ParallelMetricsMergeDeterministic) {
  // Jobs observe into per-job registries which the pool merges in index
  // order into the caller's registry: the final snapshot must not depend on
  // the worker count. Pool timing metrics go to the profiler's harness
  // registry instead, so they never pollute the deterministic snapshot.
  auto run = [](std::size_t threads) {
    obs::MetricsRegistry metrics;
    obs::ScopedMetrics mguard(metrics);
    obs::Profiler prof(7);
    obs::ScopedProfiler pguard(prof);
    run_ordered<int>(5, threads, [](std::size_t i) {
      if (obs::MetricsRegistry* m = obs::metrics()) {
        m->add("jobs.done", 1);
        m->observe("jobs.value", static_cast<double>(i));
      }
      return 0;
    });
    return std::make_pair(metrics.snapshot(), prof.harness().counter("exp.pool.jobs"));
  };
  const auto serial = run(1);
  const auto parallel = run(3);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_NE(serial.first.find("jobs.done"), std::string::npos);
  EXPECT_EQ(serial.second, 5u);
  EXPECT_EQ(parallel.second, 5u);
}

TEST(ProfiledPool, ParallelExceptionKeepsProfilerBalanced) {
  // A throwing job propagates out of run_ordered; the caller's profiler
  // must come back with every span closed so the export stays well-formed.
  obs::Profiler prof;
  obs::ScopedProfiler guard(prof);
  EXPECT_THROW(
      {
        obs::ProfSpan span("batch");
        run_ordered<int>(8, 3, [](std::size_t i) -> int {
          obs::ProfSpan work("job.work");
          if (i == 4) throw std::runtime_error("boom");
          return static_cast<int>(i);
        });
      },
      std::runtime_error);
  EXPECT_EQ(prof.open_depth(), 0u);
  for (const obs::ProfRecord& r : prof.records()) EXPECT_GE(r.wall_ns, 0);
}

// ---------------------------------------------------------------- parse_cli
//
// The CLI contract: unknown flags are hard errors (a typo must not silently
// run a benchmark with default settings), value flags demand a value,
// --jobs must be numeric, duplicates take the last value, and harnesses can
// register extra flags.

namespace {
Cli parse(std::vector<const char*> argv, const std::vector<FlagSpec>& extra = {}) {
  argv.insert(argv.begin(), "prog");
  return parse_cli(static_cast<int>(argv.size()),
                   const_cast<char**>(const_cast<const char**>(argv.data())), extra);
}
}  // namespace

TEST(ParseCli, ParsesSharedFlagsBothSpellings) {
  const Cli a = parse({"--jobs", "4", "--check-determinism", "--manifest", "m.json"});
  EXPECT_EQ(a.jobs, 4u);
  EXPECT_TRUE(a.check_determinism);
  EXPECT_EQ(a.manifest_path, "m.json");
  EXPECT_TRUE(a.profile());

  const Cli b = parse({"--jobs=8", "--trace-events=t.json"});
  EXPECT_EQ(b.jobs, 8u);
  EXPECT_EQ(b.trace_events_path, "t.json");
}

TEST(ParseCli, UnknownFlagIsHardError) {
  EXPECT_THROW(parse({"--job", "4"}), std::invalid_argument);       // typo
  EXPECT_THROW(parse({"--frobnicate"}), std::invalid_argument);
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
  // The retired results-journal flags: resuming is a rerun with --cache.
  EXPECT_THROW(parse({"--journal", "j.jsonl"}), std::invalid_argument);
  EXPECT_THROW(parse({"--resume"}), std::invalid_argument);

  // The error lists the flags actually accepted, harness extras included.
  try {
    parse({"--frobnicate"}, {{"--smoke", false}});
    FAIL() << "unknown flag accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--cache-gc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--smoke"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("--journal"), std::string::npos) << msg;
  }
}

TEST(ParseCli, MissingOrForbiddenValueIsHardError) {
  EXPECT_THROW(parse({"--jobs"}), std::invalid_argument);           // no value
  EXPECT_THROW(parse({"--manifest"}), std::invalid_argument);
  EXPECT_THROW(parse({"--check-determinism=yes"}), std::invalid_argument);
}

TEST(ParseCli, NonNumericJobsIsHardError) {
  EXPECT_THROW(parse({"--jobs", "four"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "4x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", ""}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "-2"}), std::invalid_argument);
}

TEST(ParseCli, DuplicateFlagLastWins) {
  const Cli cli = parse({"--jobs", "2", "--jobs", "6", "--manifest=a", "--manifest=b"});
  EXPECT_EQ(cli.jobs, 6u);
  EXPECT_EQ(cli.manifest_path, "b");
}

TEST(ParseCli, DuplicateFlagWarningGoesToStderrNeverStdout) {
  // The drivers' byte-identity checks diff stdout, so the last-wins warning
  // must land on stderr only — and unconditionally, independent of the log
  // threshold (regression: it used to go through the leveled logger).
  const log::Level saved = log::level();
  log::set_level(log::Level::Off);
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const Cli cli = parse({"--jobs", "2", "--jobs", "6"});
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  log::set_level(saved);
  EXPECT_EQ(cli.jobs, 6u);
  EXPECT_EQ(out, "");
  EXPECT_NE(err.find("--jobs given more than once"), std::string::npos);
}

TEST(ParseCli, CacheFlags) {
  ::unsetenv("STOB_CACHE");
  const Cli off = parse({"--jobs", "2"});
  EXPECT_EQ(off.cache_dir, "");
  EXPECT_FALSE(off.cache_stats);
  EXPECT_FALSE(off.cache_gc);

  const Cli on = parse({"--cache", "/tmp/c", "--cache-stats", "--cache-gc", "512M"});
  EXPECT_EQ(on.cache_dir, "/tmp/c");
  EXPECT_TRUE(on.cache_stats);
  EXPECT_TRUE(on.cache_gc);
  EXPECT_EQ(on.cache_gc_limit, 512ull << 20);

  EXPECT_EQ(parse({"--cache-gc=1K", "--cache=d"}).cache_gc_limit, 1024u);
  EXPECT_EQ(parse({"--cache-gc=2g", "--cache=d"}).cache_gc_limit, 2ull << 30);
  EXPECT_EQ(parse({"--cache-gc=0", "--cache=d"}).cache_gc_limit, 0u);
  EXPECT_THROW(parse({"--cache-gc", "10X", "--cache=d"}), std::invalid_argument);
  EXPECT_THROW(parse({"--cache-gc", "", "--cache=d"}), std::invalid_argument);
  EXPECT_THROW(parse({"--cache-gc", "K", "--cache=d"}), std::invalid_argument);
}

TEST(ParseCli, CacheEnvDefaultAndNoCacheOverride) {
  ::setenv("STOB_CACHE", "/tmp/envcache", 1);
  EXPECT_EQ(parse({}).cache_dir, "/tmp/envcache");
  EXPECT_EQ(parse({"--cache", "/tmp/flag"}).cache_dir, "/tmp/flag");
  EXPECT_EQ(parse({"--no-cache"}).cache_dir, "");
  // --no-cache beats --cache regardless of order: it exists so CI can force
  // a cold run against any inherited environment.
  EXPECT_EQ(parse({"--no-cache", "--cache", "/tmp/flag"}).cache_dir, "");
  ::unsetenv("STOB_CACHE");
  EXPECT_EQ(parse({}).cache_dir, "");
}

TEST(ParseCli, CacheStatsAndGcRequireACache) {
  ::unsetenv("STOB_CACHE");
  EXPECT_THROW(parse({"--cache-stats"}), std::invalid_argument);
  EXPECT_THROW(parse({"--cache-gc", "1G"}), std::invalid_argument);
  EXPECT_THROW(parse({"--no-cache", "--cache=d", "--cache-stats"}), std::invalid_argument);
}

TEST(CacheSessionTest, WorkerModeNeverOpensTheCache) {
  Cli cli;
  cli.cache_dir = (std::filesystem::temp_directory_path() /
                   ("cache_session_worker_" + std::to_string(::getpid())))
                      .string();
  cli.worker_mode = true;
  const CacheSession session = CacheSession::from_cli(cli);
  EXPECT_EQ(session.cache(), nullptr);
  EXPECT_FALSE(std::filesystem::exists(cli.cache_dir));
  session.finish("test");  // disabled session: must be a no-op
}

TEST(ParseCli, ExtraFlagsRegisterAndParse) {
  const std::vector<FlagSpec> extra = {{"--pareto", true}, {"--smoke", false}};
  const Cli cli = parse({"--smoke", "--pareto", "out.csv"}, extra);
  EXPECT_TRUE(cli.has("--smoke"));
  EXPECT_EQ(cli.get("--pareto"), "out.csv");
  EXPECT_EQ(cli.get("--absent", "fallback"), "fallback");
  // Extra flags are only known when registered.
  EXPECT_THROW(parse({"--pareto", "out.csv"}), std::invalid_argument);
}

}  // namespace
}  // namespace stob::exp
