// Tests for the content-addressed experiment result cache (exp/result_cache):
// the golden on-disk entry format, key derivation and its invalidation
// surface (cell digest, profiler capture, config salt, STOB_CACHE_SALT),
// quarantine of corrupted/truncated/skewed entries, the headline
// differential guarantee — cold, warm and cache-free runs are
// byte-identical at any --jobs / --proc-workers — plus resuming failed or
// killed proc-mode sweeps from the cache, eviction (gc), SIGKILL-mid-commit
// crash consistency, and a concurrent mixed hit/miss stress kept honest by
// TSan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "defenses/trace_defense.hpp"
#include "exp/experiment.hpp"
#include "exp/job_codec.hpp"
#include "exp/proc_runner.hpp"
#include "exp/result_cache.hpp"
#include "obs/manifest.hpp"
#include "obs/prof.hpp"
#include "util/subprocess.hpp"
#include "workload/website.hpp"

namespace stob::exp {
namespace {

namespace fs = std::filesystem;

// Small, fast site profiles so whole-grid tests run in well under a second.
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

/// Fresh per-test path (the pid keeps parallel ctest runs apart).
fs::path temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string(info->test_suite_name()) + "_" + info->name() + "_" +
                           stem + "_" + std::to_string(::getpid());
  return fs::temp_directory_path() / name;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& stem) : path(temp_path(stem)) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// A syntactically valid (64 hex chars) cache key made of one repeated digit.
std::string key_of(char c) { return std::string(64, c); }

std::size_t count_files(const fs::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file()) ++n;
  }
  return n;
}

/// Fork-mode proc options: no exec, workers run the cell in a forked child.
ProcOptions fork_opts(std::size_t workers) {
  ProcOptions proc;
  proc.workers = workers;
  proc.job_timeout = Duration::seconds(30);
  proc.backoff_base = Duration::millis(1);
  proc.backoff_cap = Duration::millis(8);
  return proc;
}

/// The grid the differential tests run: 2 sites x 1 sample x 2 defenses x
/// 2 CCAs = 8 cells, with every optional sink armed so payloads carry
/// metrics, captured events and invariant verdicts.
struct CacheGrid {
  defenses::SplitDefense split;
  ExperimentGrid grid;
  RunOptions opts;

  CacheGrid() {
    grid.sites = tiny_sites(2);
    grid.samples = 1;
    grid.defenses = {{"none", nullptr}, {"split", &split}};
    grid.ccas = {"cubic", "bbr"};
    grid.base_seed = 20260808;
    opts.jobs = 2;
    opts.collect_metrics = true;
    opts.trace_capacity = 4096;
    opts.check_invariants = true;
  }

  /// Entry key of cell `i` exactly as run_grid derives it (unprofiled).
  std::string key(std::size_t i) const {
    return ResultCache::entry_key(cell_digest(grid, i, opts), false, run_config_salt(opts));
  }
};

// --------------------------------------------------------------- entry key

TEST(EntryKey, IsHexAndSensitiveToEveryComponent) {
  const std::string base = ResultCache::entry_key("digest-a", false, "salt-a");
  EXPECT_EQ(base.size(), 64u);
  for (char c : base) EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));

  // Pure function: same inputs, same key.
  EXPECT_EQ(base, ResultCache::entry_key("digest-a", false, "salt-a"));
  // Every component is load-bearing.
  EXPECT_NE(base, ResultCache::entry_key("digest-b", false, "salt-a"));
  EXPECT_NE(base, ResultCache::entry_key("digest-a", true, "salt-a"));
  EXPECT_NE(base, ResultCache::entry_key("digest-a", false, "salt-b"));
}

TEST(EntryKey, ConfigSaltCoversPageOptionsAndEnvEscapeHatch) {
  ::unsetenv("STOB_CACHE_SALT");
  RunOptions opts;
  const std::string base = run_config_salt(opts);

  // Execution knobs never reach the salt: a cache is shared across --jobs
  // and --proc-workers settings.
  RunOptions knobs = opts;
  knobs.jobs = 7;
  knobs.proc = fork_opts(3);
  knobs.proc.retries = 9;
  EXPECT_EQ(run_config_salt(knobs), base);

  // Page options that shape the simulated bytes do.
  RunOptions tls = opts;
  tls.page.tls_records = true;
  EXPECT_NE(run_config_salt(tls), base);
  RunOptions jitter = opts;
  jitter.page.delay_jitter = 0.5;
  EXPECT_NE(run_config_salt(jitter), base);

  // STOB_CACHE_SALT folds in verbatim — the code-change escape hatch.
  ::setenv("STOB_CACHE_SALT", "rev2", 1);
  EXPECT_NE(run_config_salt(opts), base);
  ::unsetenv("STOB_CACHE_SALT");
  EXPECT_EQ(run_config_salt(opts), base);
}

// ------------------------------------------------------ entry format golden

TEST(EntryFormatGolden, EncodedBytesArePinned) {
  // The entry format is an on-disk contract: changing it must bump
  // kCacheEntryVersion (so old caches quarantine loudly) and this golden.
  TempDir dir("golden");
  const ResultCache cache(dir.path, 7);
  const std::string key = key_of('a');
  const std::string expected =
      "stobcache 1\n"
      "key aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\n"
      "codec 7\n"
      "len 5\n"
      "sha256 2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824\n"
      "\n"
      "hello";
  EXPECT_EQ(cache.encode_entry(key, "hello"), expected);
  EXPECT_EQ(kCacheEntryVersion, 1u);
}

TEST(EntryFormat, RoundTripsEveryByteValue) {
  TempDir dir("roundtrip");
  const ResultCache cache(dir.path, 3);
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  const std::string key = key_of('b');
  const std::string bytes = cache.encode_entry(key, payload);
  std::string why;
  const std::optional<std::string> back = cache.decode_entry(bytes, key, &why);
  ASSERT_TRUE(back.has_value()) << why;
  EXPECT_EQ(*back, payload);
  // The empty payload is a valid entry too (a quarantined cell's slot).
  const std::string empty = cache.encode_entry(key, "");
  EXPECT_EQ(cache.decode_entry(empty, key), "");
}

TEST(EntryFormat, EveryCorruptionIsRejectedWithItsReason) {
  TempDir dir("reject");
  const ResultCache cache(dir.path, 7);
  const std::string key = key_of('c');
  const std::string good = cache.encode_entry(key, "payload-bytes");
  ASSERT_TRUE(cache.decode_entry(good, key).has_value());

  const auto reason = [&](std::string bytes, std::string_view probe_key) {
    std::string why = "(accepted)";
    EXPECT_FALSE(cache.decode_entry(bytes, probe_key, &why).has_value());
    return why;
  };

  EXPECT_EQ(reason("", key), "magic");
  EXPECT_EQ(reason("garbage\n" + good, key), "magic");
  {
    std::string v = good;
    v[10] = '2';  // "stobcache 1" -> "stobcache 2"
    EXPECT_EQ(reason(v, key), "version");
  }
  EXPECT_EQ(reason(good, key_of('d')), "key");  // wrong cell's entry
  {
    const ResultCache skew(dir.path / "skew", 8);
    std::string why;
    EXPECT_FALSE(skew.decode_entry(good, key, &why).has_value());
    EXPECT_EQ(why, "codec");
  }
  {
    std::string v = good;
    const std::size_t at = v.find("len 13");
    ASSERT_NE(at, std::string::npos);
    v.replace(at, 6, "len 12");
    EXPECT_EQ(reason(v, key), "len");
  }
  EXPECT_EQ(reason(good.substr(0, good.size() - 1), key), "len");  // truncated
  EXPECT_EQ(reason(good + "x", key), "len");                       // padded
  {
    std::string v = good;
    v[v.size() - 1] ^= 0x01;  // flip one payload byte, length intact
    EXPECT_EQ(reason(v, key), "sha256");
  }
  {
    std::string v = good;
    v.erase(v.find("\n\n"), 1);  // blank separator line lost
    EXPECT_FALSE(cache.decode_entry(v, key).has_value());
  }
}

// ----------------------------------------------------- store / load / stats

TEST(StoreLoad, MissThenStoreThenHitWithStats) {
  TempDir dir("basic");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  const std::string key = key_of('1');

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_TRUE(cache.store(key, "the-payload"));
  const std::optional<std::string> hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "the-payload");

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.probes, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.quarantined, 0u);
  EXPECT_EQ(s.bytes_read, 11u);  // payload bytes only
  EXPECT_GT(s.bytes_written, 11u);  // whole entry, header included
  EXPECT_DOUBLE_EQ(s.hit_ratio(), 0.5);
  // The CI hit-ratio gate greps this exact shape.
  EXPECT_NE(cache.stats_line().find("1/2 hits (50.0%)"), std::string::npos);
  EXPECT_NE(cache.stats_line().find("1 stores"), std::string::npos);

  // The entry file is the whole record of a commit.
  EXPECT_EQ(count_files(dir.path), 1u);
}

TEST(StoreLoad, MalformedKeyIsRejectedNotTraversed) {
  TempDir dir("badkey");
  ResultCache cache(dir.path, 1);
  EXPECT_THROW(cache.entry_path("../../etc/passwd"), std::invalid_argument);
  EXPECT_THROW(cache.entry_path(""), std::invalid_argument);
  EXPECT_THROW(cache.entry_path("ABCD"), std::invalid_argument);  // upper hex
}

TEST(StoreLoad, CorruptEntryIsQuarantinedAndNeverServed) {
  TempDir dir("quarantine");
  ResultCache cache(dir.path, 1);
  const std::string key = key_of('2');
  ASSERT_TRUE(cache.store(key, "original"));

  // Corrupt the committed entry in place (payload flip: sha mismatch).
  const fs::path path = cache.entry_path(key);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  // Moved aside, not deleted: the corpse is kept for post-mortems...
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(count_files(dir.path / "quarantine"), 1u);
  // ...and the slot is clean: a recompute stores and serves again.
  EXPECT_TRUE(cache.store(key, "recomputed"));
  EXPECT_EQ(cache.load(key), "recomputed");
}

TEST(StoreLoad, TruncatedEntryIsQuarantined) {
  TempDir dir("truncated");
  ResultCache cache(dir.path, 1);
  const std::string key = key_of('3');
  ASSERT_TRUE(cache.store(key, "a payload long enough to truncate"));
  const fs::path path = cache.entry_path(key);
  fs::resize_file(path, fs::file_size(path) / 2);  // torn write
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(path));
}

TEST(StoreLoad, CodecSkewedEntryIsQuarantinedNotMisread) {
  TempDir dir("skew");
  const std::string key = key_of('4');
  {
    ResultCache old_rev(dir.path, 1);
    ASSERT_TRUE(old_rev.store(key, "old-codec-bytes"));
  }
  ResultCache new_rev(dir.path, 2);
  EXPECT_FALSE(new_rev.load(key).has_value());
  EXPECT_EQ(new_rev.stats().quarantined, 1u);
}

// ------------------------------------- differential: cold == warm == none

TEST(RunGridCached, ColdWarmAndCacheFreeRunsAreIdenticalAcrossJobs) {
  CacheGrid t;
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);

  TempDir dir("diff");
  // Cold populate at jobs=4.
  {
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    RunOptions cold = t.opts;
    cold.jobs = 4;
    cold.cache = &cache;
    const std::vector<JobResult> results = run_grid(t.grid, cold);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(results_identical(baseline[i], results[i])) << "cold job " << i;
    }
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().stores, t.grid.job_count());
  }
  // Warm re-run at jobs=1: every cell served, nothing recomputed, bytes
  // identical to both the cold cached run and the cache-free baseline.
  {
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    RunOptions warm = t.opts;
    warm.jobs = 1;
    warm.cache = &cache;
    const std::vector<JobResult> results = run_grid(t.grid, warm);
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(results_identical(baseline[i], results[i])) << "warm job " << i;
    }
    EXPECT_EQ(cache.stats().hits, t.grid.job_count());
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_DOUBLE_EQ(cache.stats().hit_ratio(), 1.0);
  }
}

TEST(RunGridCached, OnlyInvalidatedCellsAreRecomputed) {
  CacheGrid t;
  TempDir dir("invalidate");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  RunOptions run = t.opts;
  run.cache = &cache;
  run_grid(t.grid, run);
  ASSERT_EQ(cache.stats().stores, t.grid.job_count());

  // Rename site 0: its 4 cells get new digests, site 1's 4 keep theirs — an
  // incremental sweep re-simulates exactly the invalidated half.
  ExperimentGrid edited = t.grid;
  edited.sites[0].name = "edited";
  ResultCache warm(dir.path, kWorkerPayloadVersion);
  run.cache = &warm;
  run_grid(edited, run);
  EXPECT_EQ(warm.stats().hits, 4u);
  EXPECT_EQ(warm.stats().misses, 4u);
  EXPECT_EQ(warm.stats().stores, 4u);
}

TEST(RunGridCached, CacheSaltEnvInvalidatesEverything) {
  CacheGrid t;
  TempDir dir("salt");
  RunOptions run = t.opts;
  {
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    run.cache = &cache;
    run_grid(t.grid, run);
  }
  ::setenv("STOB_CACHE_SALT", "defense-logic-changed", 1);
  ResultCache warm(dir.path, kWorkerPayloadVersion);
  run.cache = &warm;
  run_grid(t.grid, run);
  ::unsetenv("STOB_CACHE_SALT");
  EXPECT_EQ(warm.stats().hits, 0u);
  EXPECT_EQ(warm.stats().stores, t.grid.job_count());
}

TEST(RunGridCached, CheckDeterminismVerifiesWarmRuns) {
  CacheGrid t;
  TempDir dir("verify");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  RunOptions run = t.opts;
  run.cache = &cache;
  run_grid(t.grid, run);  // cold populate

  // The reference run never consults the cache, so determinism mode is a
  // differential test of every served payload.
  run.check_determinism = true;
  EXPECT_NO_THROW(run_grid(t.grid, run));
}

TEST(RunGridCached, PoisonedEntryIsCaughtByDeterminismMode) {
  CacheGrid t;
  TempDir dir("poison");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  RunOptions run = t.opts;
  run.cache = &cache;
  run_grid(t.grid, run);

  // Swap cell 1's entry for cell 0's payload. The entry itself is *valid*
  // (header, length and sha all check out) — content addressing hashes the
  // inputs, not the output — so only a differential run can catch it.
  const std::optional<std::string> payload0 = cache.load(t.key(0));
  ASSERT_TRUE(payload0.has_value());
  ASSERT_TRUE(cache.store(t.key(1), *payload0));

  run.check_determinism = true;
  EXPECT_THROW(run_grid(t.grid, run), std::runtime_error);
}

TEST(RunGridCached, ProfiledWarmRunProducesIdenticalManifest) {
  CacheGrid t;
  TempDir dir("prof");
  ResultCache cache(dir.path, kWorkerPayloadVersion);

  const auto manifest_of = [&](ResultCache* c) {
    obs::Profiler p;
    {
      obs::ScopedProfiler guard(p);
      obs::ProfSpan span("collect");
      RunOptions run = t.opts;
      run.cache = c;
      run_grid(t.grid, run);
    }
    return obs::build_manifest("test_cache", p, nullptr, t.opts.jobs, t.grid.base_seed)
        .deterministic_json();
  };

  const std::string plain = manifest_of(nullptr);
  const std::string cold = manifest_of(&cache);   // misses: profiled keyspace
  const std::string warm = manifest_of(&cache);   // hits: spliced prof records
  EXPECT_EQ(cold, plain);
  EXPECT_EQ(warm, plain);
  // Profiled payloads live under their own keys: the cold profiled run
  // missed even though an unprofiled entry set could share the directory.
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().hits, cache.stats().stores);
}

// ------------------------------------------------- proc-mode supervisor

TEST(RunGridProcCache, ColdStoresWarmHitsByteIdentically) {
  CacheGrid t;
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);

  TempDir dir("proc");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  RunOptions proc_run = t.opts;
  proc_run.proc = fork_opts(2);
  proc_run.cache = &cache;
  ProcReport cold;
  proc_run.proc_report = &cold;
  const std::vector<JobResult> cold_results = run_grid(t.grid, proc_run);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(results_identical(baseline[i], cold_results[i])) << "cold job " << i;
  }
  EXPECT_EQ(cold.ran, t.grid.job_count());
  EXPECT_EQ(cold.cache_stores, t.grid.job_count());
  EXPECT_EQ(cold.cache_hits, 0u);

  // Warm at a different worker count: no worker ever forks.
  proc_run.proc = fork_opts(4);
  ProcReport warm;
  proc_run.proc_report = &warm;
  const std::vector<JobResult> warm_results = run_grid(t.grid, proc_run);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(results_identical(baseline[i], warm_results[i])) << "warm job " << i;
  }
  EXPECT_EQ(warm.cache_hits, t.grid.job_count());
  EXPECT_EQ(warm.ran, 0u);
  EXPECT_EQ(warm.cache_stores, 0u);
}

TEST(RunGridProcCache, EntriesAreSharedAcrossInProcessAndProcModes) {
  CacheGrid t;
  TempDir dir("cross");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  // Populate in process...
  RunOptions run = t.opts;
  run.cache = &cache;
  run_grid(t.grid, run);
  // ...hit from the proc supervisor: same keys, same entries.
  run.proc = fork_opts(2);
  ProcReport report;
  run.proc_report = &report;
  run_grid(t.grid, run);
  EXPECT_EQ(report.cache_hits, t.grid.job_count());
  EXPECT_EQ(report.ran, 0u);
}

/// Split that runs `fault` first when set: a stand-in for a transient
/// failure that a later rerun of the sweep no longer hits. It keeps the name
/// "split", so its cells share cache keys with an unfaulted run's.
class FaultableSplit final : public defenses::TraceDefense {
 public:
  std::function<void()> fault;

  wf::Trace apply(const wf::Trace& trace, Rng& rng) const override {
    if (fault) fault();
    return split_.apply(trace, rng);
  }
  std::string name() const override { return split_.name(); }
  std::string target() const override { return split_.target(); }
  std::string strategy() const override { return split_.strategy(); }
  defenses::Manipulations manipulations() const override { return split_.manipulations(); }

 private:
  defenses::SplitDefense split_;
};

/// 1 site x 2 samples x {none, split} = 4 cells; the split cells are 1 and 3.
struct ResumeGrid {
  FaultableSplit split;
  ExperimentGrid grid;
  RunOptions opts;

  ResumeGrid() {
    grid.sites = tiny_sites(1);
    grid.samples = 2;
    grid.defenses = {{"none", nullptr}, {"split", &split}};
    grid.ccas = {"cubic"};
    grid.base_seed = 20261017;
    opts.jobs = 2;
    opts.collect_metrics = true;
    opts.trace_capacity = 4096;
  }
};

TEST(RunGridProcCache, RerunAgainstTheCacheRunsOnlyUnfinishedCells) {
  ResumeGrid t;
  ASSERT_EQ(t.grid.job_count(), 4u);
  ASSERT_EQ(t.grid.job(1).defense, 1u);
  ASSERT_EQ(t.grid.job(3).defense, 1u);
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);

  TempDir dir("rerun");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  RunOptions run = t.opts;
  run.cache = &cache;
  run.proc = fork_opts(2);
  run.proc.retries = 1;

  // First sweep: cells 1 and 3 throw in their worker on every attempt, are
  // quarantined, and so never reach the cache.
  t.split.fault = [] { throw std::runtime_error("transient failure"); };
  ProcReport first;
  run.proc_report = &first;
  run_grid(t.grid, run);
  EXPECT_EQ(first.quarantined, 2u);
  EXPECT_EQ(first.ran, 2u);
  EXPECT_EQ(first.cache_stores, 2u);

  // The rerun serves the finished cells from the cache and runs only the
  // two that failed; the result is the clean in-process run's.
  t.split.fault = nullptr;
  ProcReport second;
  run.proc_report = &second;
  const std::vector<JobResult> resumed = run_grid(t.grid, run);
  EXPECT_EQ(second.cache_hits, first.ran);
  EXPECT_EQ(second.ran, 2u);
  EXPECT_EQ(second.quarantined, 0u);
  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(results_identical(baseline[i], resumed[i])) << "job " << i;
  }
}

TEST(RunGridProcCache, SigkilledSupervisorResumesFromTheCache) {
  ResumeGrid t;
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);
  TempDir dir("killed");

  // The supervisor runs in a child with one worker, so cells start in
  // index order: cell 0 finishes and is committed, then cell 1's worker
  // SIGKILLs the supervisor mid-sweep.
  util::Subprocess::Options opts;
  opts.result_fd = -1;
  opts.child_fn = [&](int) {
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    RunOptions run = t.opts;
    run.cache = &cache;
    run.proc = fork_opts(1);
    t.split.fault = [] {
      ::kill(::getppid(), SIGKILL);
      ::_exit(0);
    };
    run_grid(t.grid, run);
    return 7;  // unreachable: the worker killed us
  };
  util::Subprocess supervisor = util::Subprocess::spawn(opts);
  const util::ExitStatus status = supervisor.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.term_signal, SIGKILL);

  ResultCache cache(dir.path, kWorkerPayloadVersion);
  RunOptions run = t.opts;
  run.cache = &cache;
  run.proc = fork_opts(2);
  ProcReport report;
  run.proc_report = &report;
  const std::vector<JobResult> resumed = run_grid(t.grid, run);
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.ran, 3u);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(results_identical(baseline[i], resumed[i])) << "job " << i;
  }
}

// ------------------------------------------------------------------- gc

TEST(Gc, EvictsOldestMtimeFirstTiesByKeyAndCleansJunk) {
  TempDir dir("gc");
  ResultCache cache(dir.path, 1);
  const std::string k1 = key_of('1'), k2 = key_of('2'), k3 = key_of('3'), k4 = key_of('4');
  // Stored in an order unrelated to the pinned commit times below.
  for (const std::string& k : {k4, k2, k1, k3}) ASSERT_TRUE(cache.store(k, std::string(100, 'x')));
  const std::uint64_t each = fs::file_size(cache.entry_path(k1));

  // k3 is the oldest commit, k1 and k2 tie, k4 is the newest.
  const fs::file_time_type now = fs::file_time_type::clock::now();
  fs::last_write_time(cache.entry_path(k3), now - std::chrono::hours(3));
  fs::last_write_time(cache.entry_path(k1), now - std::chrono::hours(2));
  fs::last_write_time(cache.entry_path(k2), now - std::chrono::hours(2));
  fs::last_write_time(cache.entry_path(k4), now - std::chrono::hours(1));

  // Junk to sweep: a stale in-flight commit and a quarantine corpse.
  { std::ofstream(dir.path / "tmp" / "stale.123.0") << "half an entry"; }
  { std::ofstream(dir.path / "quarantine" / "corpse") << "bad bytes"; }

  const ResultCache::GcReport report = cache.gc(2 * each);
  EXPECT_EQ(report.entries_evicted, 2u);
  EXPECT_EQ(report.entries_kept, 2u);
  EXPECT_EQ(report.junk_removed, 2u);
  EXPECT_EQ(report.bytes_kept, 2 * each);
  EXPECT_EQ(report.bytes_evicted, 2 * each);

  // The oldest mtime went first despite the largest key; of the tied pair
  // the smaller key went. The survivors still hit.
  EXPECT_FALSE(cache.load(k3).has_value());
  EXPECT_FALSE(cache.load(k1).has_value());
  EXPECT_TRUE(cache.load(k2).has_value());
  EXPECT_TRUE(cache.load(k4).has_value());
  EXPECT_EQ(count_files(dir.path / "tmp"), 0u);
  EXPECT_EQ(count_files(dir.path / "quarantine"), 0u);

  // A budget that fits everything evicts nothing.
  const ResultCache::GcReport roomy = cache.gc(1u << 20);
  EXPECT_EQ(roomy.entries_evicted, 0u);
  EXPECT_EQ(roomy.entries_kept, 2u);
}

// ------------------------------------------------------ crash consistency

TEST(CrashConsistency, SigkillMidCommitLeavesEarlierEntriesAndNoTornOnes) {
  TempDir dir("sigkill");
  const std::string survivor = key_of('a');
  const std::string doomed = key_of('b');

  // The child commits one entry, then dies by SIGKILL between the tmp write
  // and the rename of a second commit — the worst possible moment.
  util::Subprocess::Options opts;
  opts.result_fd = -1;
  opts.child_fn = [&](int) {
    ResultCache child(dir.path, 1);
    if (!child.store(survivor, "landed before the crash")) return 9;
    child.commit_hook_for_testing = [] { ::kill(::getpid(), SIGKILL); };
    child.store(doomed, "never committed");
    return 7;  // unreachable: the hook killed us
  };
  util::Subprocess child = util::Subprocess::spawn(opts);
  const util::ExitStatus status = child.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.term_signal, SIGKILL);

  // The completed commit survives; the torn one is invisible — only a stray
  // tmp file remains, which gc sweeps as junk.
  ResultCache cache(dir.path, 1);
  EXPECT_EQ(cache.load(survivor), "landed before the crash");
  EXPECT_FALSE(cache.load(doomed).has_value());
  EXPECT_EQ(cache.stats().quarantined, 0u);  // nothing corrupt: a miss, not a wound
  EXPECT_GE(count_files(dir.path / "tmp"), 1u);
  const ResultCache::GcReport report = cache.gc(1u << 20);
  EXPECT_GE(report.junk_removed, 1u);
  EXPECT_EQ(cache.load(survivor), "landed before the crash");
}

// ------------------------------------------------------------- concurrency

TEST(Stress, ConcurrentMixedHitsMissesAndStoresAreRaceFree) {
  // Run under TSan (ctest -R test_cache_tsan): threads race load/store on a
  // shared key set, including same-key double-stores (atomic rename wins).
  TempDir dir("stress");
  ResultCache cache(dir.path, 1);
  constexpr std::size_t kKeys = 8;
  const auto payload_of = [](std::size_t k) {
    return "payload-" + std::string(1 + k * 37, static_cast<char>('a' + k));
  };

  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 40; ++i) {
        const std::size_t k = (t + i) % kKeys;
        const std::string key = key_of(static_cast<char>('0' + k));
        const std::optional<std::string> hit = cache.load(key);
        if (hit.has_value()) {
          if (*hit != payload_of(k)) ok = false;  // never a torn/foreign read
        } else {
          cache.store(key, payload_of(k));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(ok);
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(cache.load(key_of(static_cast<char>('0' + k))), payload_of(k));
  }
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.probes, 4u * 40u + kKeys);
  EXPECT_EQ(s.hits + s.misses, s.probes);
  EXPECT_GE(s.stores, kKeys);
}

}  // namespace
}  // namespace stob::exp
