// Tests for the content-addressed experiment result cache (exp/result_cache):
// the golden on-disk entry format, key derivation and its invalidation
// surface (cell digest, profiler capture, config salt, STOB_CACHE_SALT),
// quarantine of corrupted/truncated/skewed entries, the headline
// differential guarantee — cold, warm and cache-free runs are
// byte-identical at any --jobs / --proc-workers — the commit stage (every
// finished cell committed when run_grid returns or throws, failing commits
// never touching results), plus resuming failed or killed proc-mode sweeps
// from the cache, eviction (gc), SIGKILL-mid-commit
// crash consistency, and a concurrent mixed hit/miss stress kept honest by
// TSan. Proc-mode workers are the grid_worker helper
// (tests/helpers/grid_worker.cpp).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cca_guard.hpp"
#include "core/policies.hpp"
#include "defenses/policy.hpp"
#include "exp/experiment.hpp"
#include "exp/job_codec.hpp"
#include "exp/proc_runner.hpp"
#include "exp/result_cache.hpp"
#include "exp/worker_pool.hpp"
#include "helpers/tiny_grids.hpp"
#include "obs/manifest.hpp"
#include "obs/prof.hpp"
#include "util/sha256.hpp"
#include "util/subprocess.hpp"

namespace stob::exp {
namespace {

namespace fs = std::filesystem;

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

/// The grid the differential tests run (tiny grid "cache"): 2 sites x
/// 1 sample x 2 defenses x 2 CCAs = 8 cells, with every optional sink armed
/// so payloads carry metrics, captured events and invariant verdicts.
struct CacheGrid {
  tiny::TinyGrid t = tiny::make_grid("cache");
  ExperimentGrid& grid = t.grid;
  RunOptions& opts = t.opts;

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
  knobs.proc = tiny::worker_opts(3, "cache");
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

  // A mounted policy keys on its config, not just its name: every
  // parameter is load-bearing, while no policy at all stays "stock".
  EXPECT_NE(base.find("server.policy=stock"), std::string::npos);
  const auto with_policy = [&](core::Policy* policy) {
    RunOptions o = opts;
    o.page.server_conn.policy = policy;
    return run_config_salt(o);
  };
  core::SweepSizePolicy alpha3(core::SweepSizePolicy::Config{.alpha = 3});
  core::SweepSizePolicy alpha5(core::SweepSizePolicy::Config{.alpha = 5});
  core::SweepSizePolicy alpha5_again(core::SweepSizePolicy::Config{.alpha = 5});
  EXPECT_EQ(alpha3.name(), alpha5.name());
  EXPECT_NE(with_policy(&alpha3), with_policy(&alpha5));
  EXPECT_EQ(with_policy(&alpha5), with_policy(&alpha5_again));
  EXPECT_NE(with_policy(&alpha3), base);
  core::SplitPolicy split1200(core::SplitPolicy::Config{.threshold = 1200});
  core::SplitPolicy split1000(core::SplitPolicy::Config{.threshold = 1000});
  EXPECT_NE(with_policy(&split1200), with_policy(&split1000));
  // Through the guard too: CcaGuard forwards its inner policy's config.
  core::CcaGuard guard3(alpha3);
  core::CcaGuard guard5(alpha5);
  EXPECT_NE(with_policy(&guard3), with_policy(&guard5));
  core::DelayPolicy slow(core::DelayPolicy::Config{.lo_frac = 0.10, .hi_frac = 0.30});
  core::DelayPolicy slower(core::DelayPolicy::Config{.lo_frac = 0.10, .hi_frac = 0.300001});
  EXPECT_NE(with_policy(&slow), with_policy(&slower));
}

// ------------------------------------------------------ entry format golden

TEST(EntryFormatGolden, EncodedBytesArePinned) {
  // The entry format is an on-disk contract: changing it must bump
  // kCacheEntryVersion (so old caches quarantine loudly) and this golden.
  TempDir dir("golden");
  const ResultCache cache(dir.path, 7);
  const std::string key = key_of('a');
  const std::string expected =
      "stobcache 2\n"
      "key aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\n"
      "codec 7\n"
      "len 5\n"
      "sha256 2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824\n"
      "\n"
      "hello";
  EXPECT_EQ(cache.encode_entry(key, "hello"), expected);
  EXPECT_EQ(kCacheEntryVersion, 2u);
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
    v[10] = '1';  // "stobcache 2" -> "stobcache 1", the previous version
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

// A cell cached by the previous entry version is never served: its key was
// derived under the old version, so the current key misses, and an
// old-version entry found under a current key is quarantined.
TEST(StoreLoad, PreviousVersionEntryIsAMiss) {
  TempDir dir("oldversion");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  const std::string salt_sha = ResultCache::salt_hash("salt");
  const auto key_at = [&](std::uint32_t version) {
    return util::sha256_hex("stobcache:" + std::to_string(version) +
                            "|digest=cell|prof=0|salt=" + salt_sha);
  };
  const std::string key = ResultCache::entry_key("cell", false, "salt");
  ASSERT_EQ(key, key_at(kCacheEntryVersion));  // the preimage above is the real one
  const std::string old_key = key_at(kCacheEntryVersion - 1);
  ASSERT_NE(old_key, key);

  // An entry exactly as the previous version wrote it, under its key.
  const auto old_entry = [&](const std::string& k) {
    std::string bytes = cache.encode_entry(k, "old-payload");
    const std::string header = "stobcache " + std::to_string(kCacheEntryVersion) + "\n";
    EXPECT_EQ(bytes.rfind(header, 0), 0u);
    return bytes.replace(0, header.size(),
                         "stobcache " + std::to_string(kCacheEntryVersion - 1) + "\n");
  };
  const auto plant = [&](const std::string& k) {
    fs::create_directories(cache.entry_path(k).parent_path());
    std::ofstream(cache.entry_path(k), std::ios::binary) << old_entry(k);
  };
  plant(old_key);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().quarantined, 0u);  // a plain miss: nothing at this key

  plant(key);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
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

// ---------------------------------------------- one pass over all cells
//
// run_grid serves hits and runs misses in the same pool pass, each job
// loading (and SHA-verifying) its own entry; these pin that mixing.

TEST(RunGridCached, HalfWarmGridMatchesCacheFreeRunAtAnyJobs) {
  CacheGrid t;
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);
  const std::size_t count = t.grid.job_count();
  for (std::size_t jobs : {1u, 2u, 4u}) {
    TempDir dir("half" + std::to_string(jobs));
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    for (std::size_t i = 0; i < count; i += 2) {
      WorkerPayload payload;
      payload.result = baseline[i];
      ASSERT_TRUE(cache.store(t.key(i), encode_worker_payload(payload)));
    }
    RunOptions run = t.opts;
    run.jobs = jobs;
    run.cache = &cache;
    const std::vector<JobResult> results = run_grid(t.grid, run);
    ASSERT_EQ(results.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(results_identical(baseline[i], results[i])) << "jobs " << jobs << " job " << i;
    }
    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.probes, count) << "jobs " << jobs;
    EXPECT_EQ(s.hits, count / 2) << "jobs " << jobs;
    EXPECT_EQ(s.stores, count) << "jobs " << jobs;  // half pre-stored, half misses
    EXPECT_EQ(s.quarantined, 0u) << "jobs " << jobs;
  }
}

TEST(RunGridCached, CorruptMidGridEntryIsQuarantinedAndRecomputed) {
  CacheGrid t;
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);
  const std::size_t count = t.grid.job_count();
  TempDir dir("midcorrupt");
  RunOptions run = t.opts;
  {
    ResultCache cold(dir.path, kWorkerPayloadVersion);
    run.cache = &cold;
    run_grid(t.grid, run);
  }
  ResultCache warm(dir.path, kWorkerPayloadVersion);
  const std::size_t bad = count / 2;
  {
    // Flip one payload bit: length intact, the SHA-256 check fails.
    std::fstream f(warm.entry_path(t.key(bad)), std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-1, std::ios::end);
    const char last = static_cast<char>(f.get());
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x01));
  }
  run.jobs = 4;
  run.cache = &warm;
  const std::vector<JobResult> results = run_grid(t.grid, run);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(results_identical(baseline[i], results[i])) << "job " << i;
  }
  const ResultCache::Stats s = warm.stats();
  EXPECT_EQ(s.hits, count - 1);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.quarantined, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(count_files(dir.path / "quarantine"), 1u);
  // The recomputed cell was committed again and now verifies.
  EXPECT_TRUE(warm.load(t.key(bad)).has_value());
}

TEST(RunGridCached, UndecodablePayloadNamesTheLowestJobAndCellOnce) {
  CacheGrid t;
  TempDir dir("undecodable");
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  // Valid entries (framing, length and SHA-256 all check out) whose
  // payloads are not job-codec frames: only the decoder can reject them.
  ASSERT_TRUE(cache.store(t.key(5), "not a worker payload"));
  ASSERT_TRUE(cache.store(t.key(3), "not a worker payload"));
  RunOptions run = t.opts;
  run.jobs = 4;
  run.cache = &cache;
  std::string what;
  try {
    run_grid(t.grid, run);
  } catch (const JobError&) {
    FAIL() << "a decode failure is not a job failure";
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what,
            "exp: undecodable cached payload for job 3 [cell site=tiny0 sample=0 defense=split "
            "cca=bbr fault=none seed=6586835960015582819]: job_codec: payload version mismatch");
  EXPECT_EQ(cache.stats().hits, 2u);
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

// ----------------------------------------------------- the commit stage
//
// Misses are committed by commit threads while the pool runs on; run_grid
// drains them before it returns or throws. These pin that contract.

/// Every cell of `t` is committed under `dir`: as many stores as misses, an
/// entry file per cell, and no in-flight file left in tmp/.
void expect_every_cell_committed(const CacheGrid& t, const ResultCache& cache,
                                 const fs::path& dir, const std::string& label) {
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, t.grid.job_count()) << label;
  EXPECT_EQ(s.stores, s.misses) << label;
  for (std::size_t i = 0; i < t.grid.job_count(); ++i) {
    EXPECT_TRUE(fs::is_regular_file(cache.entry_path(t.key(i)))) << label << " job " << i;
  }
  EXPECT_EQ(count_files(dir / "tmp"), 0u) << label;
}

TEST(CommitStage, ColdRunReturnsWithEveryCellCommittedAtAnyJobs) {
  CacheGrid t;
  for (std::size_t jobs : {1u, 2u, 4u}) {
    TempDir dir("cold" + std::to_string(jobs));
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    RunOptions run = t.opts;
    run.jobs = jobs;
    run.cache = &cache;
    run_grid(t.grid, run);
    expect_every_cell_committed(t, cache, dir.path, "jobs " + std::to_string(jobs));
  }
}

TEST(CommitStage, FailingCommitsDropEntriesButNeverResults) {
  CacheGrid t;
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);
  for (std::size_t jobs : {1u, 4u}) {
    TempDir dir("nocommit" + std::to_string(jobs));
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    // tmp/ becomes a regular file, so every commit's tmp write fails.
    fs::remove_all(dir.path / "tmp");
    { std::ofstream(dir.path / "tmp") << "not a directory"; }
    RunOptions run = t.opts;
    run.jobs = jobs;
    run.cache = &cache;
    const std::vector<JobResult> results = run_grid(t.grid, run);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(results_identical(baseline[i], results[i])) << "jobs " << jobs << " job " << i;
    }
    EXPECT_EQ(cache.stats().misses, t.grid.job_count()) << "jobs " << jobs;
    EXPECT_EQ(cache.stats().stores, 0u) << "jobs " << jobs;
    EXPECT_EQ(count_files(dir.path / "objects"), 0u) << "jobs " << jobs;
  }
}

TEST(CommitStage, ThrowingJobKeepsItsErrorAndTheCellsCommittedBeforeIt) {
  // The split cells of the failing grid throw; job 2 is the first of them.
  CacheGrid t;
  tiny::TinyGrid failing = tiny::make_grid("cache", /*fail_split=*/true);
  ASSERT_EQ(failing.grid.job(2).defense, 1u);
  const auto error_of = [&](const RunOptions& run) {
    try {
      run_grid(failing.grid, run);
    } catch (const JobError& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "the failing grid did not throw";
    return std::string();
  };
  const std::string expected = error_of(failing.opts);
  ASSERT_NE(expected.find("exp: job 2 failed: transient failure"), std::string::npos) << expected;

  for (std::size_t jobs : {1u, 4u}) {
    const std::string label = "jobs " + std::to_string(jobs);
    TempDir dir("throw" + std::to_string(jobs));
    std::uint64_t committed = 0;
    {
      ResultCache cache(dir.path, kWorkerPayloadVersion);
      RunOptions run = failing.opts;
      run.jobs = jobs;
      run.cache = &cache;
      EXPECT_EQ(error_of(run), expected) << label;
      committed = cache.stats().stores;
      // One job runs at a time: cells 0 and 1 finished before job 2 threw.
      if (jobs == 1) {
        EXPECT_EQ(committed, 2u);
      }
      EXPECT_GT(committed, 0u) << label;
      EXPECT_EQ(count_files(dir.path / "objects"), committed) << label;
      EXPECT_EQ(count_files(dir.path / "tmp"), 0u) << label;
    }
    // A rerun of the mended grid serves every committed cell.
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    RunOptions run = t.opts;
    run.jobs = jobs;
    run.cache = &cache;
    run_grid(t.grid, run);
    EXPECT_EQ(cache.stats().hits, committed) << label;
    EXPECT_EQ(cache.stats().stores, t.grid.job_count() - committed) << label;
  }
}

// ------------------------------------------------- proc-mode executor

TEST(RunGridProcCache, ColdStoresWarmHitsByteIdentically) {
  CacheGrid t;
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);

  TempDir dir("proc");
  RunOptions proc_run = t.opts;
  proc_run.proc = tiny::worker_opts(2, "cache");
  ProcReport cold;
  proc_run.proc_report = &cold;
  {
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    proc_run.cache = &cache;
    const std::vector<JobResult> cold_results = run_grid(t.grid, proc_run);
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(results_identical(baseline[i], cold_results[i])) << "cold job " << i;
    }
    EXPECT_EQ(cold.ran, t.grid.job_count());
    EXPECT_EQ(cache.stats().hits, 0u);
    expect_every_cell_committed(t, cache, dir.path, "proc workers 2");
  }

  // Warm at a different worker count: no worker is ever spawned.
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  proc_run.cache = &cache;
  proc_run.proc = tiny::worker_opts(4, "cache");
  ProcReport warm;
  proc_run.proc_report = &warm;
  const std::vector<JobResult> warm_results = run_grid(t.grid, proc_run);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(results_identical(baseline[i], warm_results[i])) << "warm job " << i;
  }
  EXPECT_EQ(cache.stats().hits, t.grid.job_count());
  EXPECT_EQ(warm.ran, 0u);
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(RunGridProcCache, EntriesAreSharedAcrossInProcessAndProcModes) {
  CacheGrid t;
  TempDir dir("cross");
  // Populate in process...
  {
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    RunOptions run = t.opts;
    run.cache = &cache;
    run_grid(t.grid, run);
  }
  // ...hit from proc mode: same keys, same entries.
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  RunOptions run = t.opts;
  run.cache = &cache;
  run.proc = tiny::worker_opts(2, "cache");
  ProcReport report;
  run.proc_report = &report;
  run_grid(t.grid, run);
  EXPECT_EQ(cache.stats().hits, t.grid.job_count());
  EXPECT_EQ(report.ran, 0u);
}

TEST(RunGridProcCache, RerunAgainstTheCacheRunsOnlyUnfinishedCells) {
  // Tiny grid "resume": 1 site x 2 samples x {none, split}; the split cells
  // are 1 and 3.
  tiny::TinyGrid t = tiny::make_grid("resume");
  ASSERT_EQ(t.grid.job_count(), 4u);
  ASSERT_EQ(t.grid.job(1).defense, 1u);
  ASSERT_EQ(t.grid.job(3).defense, 1u);
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);

  TempDir dir("rerun");
  RunOptions run = t.opts;

  // First sweep: cells 1 and 3 throw in their worker on every attempt, are
  // quarantined, and so never reach the cache.
  {
    ResultCache cache(dir.path, kWorkerPayloadVersion);
    run.cache = &cache;
    run.proc = tiny::worker_opts(2, "resume", {"--fail-split"});
    run.proc.retries = 1;
    ProcReport first;
    run.proc_report = &first;
    run_grid(t.grid, run);
    EXPECT_EQ(first.quarantined, 2u);
    EXPECT_EQ(first.ran, 2u);
    EXPECT_EQ(cache.stats().stores, 2u);
  }

  // The rerun serves the finished cells from the cache and runs only the
  // two that failed; the result is the clean in-process run's.
  ResultCache cache(dir.path, kWorkerPayloadVersion);
  run.cache = &cache;
  run.proc = tiny::worker_opts(2, "resume");
  ProcReport second;
  run.proc_report = &second;
  const std::vector<JobResult> resumed = run_grid(t.grid, run);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(second.ran, 2u);
  EXPECT_EQ(second.quarantined, 0u);
  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(results_identical(baseline[i], resumed[i])) << "job " << i;
  }
}

TEST(RunGridProcCache, SigkilledSupervisorResumesFromTheCache) {
  tiny::TinyGrid t = tiny::make_grid("resume");
  const std::vector<JobResult> baseline = run_grid(t.grid, t.opts);
  const std::size_t count = t.grid.job_count();
  TempDir dir("killed");

  // A supervisor process runs the sweep with one worker, so cells go in
  // index order. Its split cells fail and back off for over a second, so
  // the sweep is still running when the first entry (cell 0) is committed;
  // it is SIGKILLed then, as the CI resume leg does.
  util::Subprocess supervisor = util::Subprocess::spawn(
      {STOB_GRID_WORKER, "--grid", "resume", "--fail-split", "--proc-workers", "1", "--retries",
       "5", "--cache", dir.path.string()});
  const auto committed = [&] {
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir.path / "objects", ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (it->path().extension() == ".entry") return true;
    }
    return false;
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!committed() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  supervisor.kill(SIGKILL);
  const util::ExitStatus status = supervisor.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.term_signal, SIGKILL);

  ResultCache cache(dir.path, kWorkerPayloadVersion);
  RunOptions run = t.opts;
  run.cache = &cache;
  run.proc = tiny::worker_opts(2, "resume");
  ProcReport report;
  run.proc_report = &report;
  const std::vector<JobResult> resumed = run_grid(t.grid, run);
  // Some, not all, cells were committed before the kill: 0 < H < N.
  const std::size_t hits = cache.stats().hits;
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, count);
  EXPECT_EQ(report.ran, count - hits);
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
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ResultCache child(dir.path, 1);
    if (!child.store(survivor, "landed before the crash")) ::_exit(9);
    child.commit_hook_for_testing = [] { ::kill(::getpid(), SIGKILL); };
    child.store(doomed, "never committed");
    ::_exit(7);  // unreachable: the hook killed us
  }
  int raw = 0;
  ASSERT_EQ(::waitpid(pid, &raw, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(raw));
  ASSERT_EQ(WTERMSIG(raw), SIGKILL);

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
