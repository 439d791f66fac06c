// Content-addressed on-disk cache for experiment cell results.
//
// Grid cells are pure functions of (seed, site, defense, CCA, fault
// profile, sink options, codec rev) — exactly what exp::cell_digest hashes.
// This module turns that purity into incremental sweeps: a finished cell's
// job_codec payload is stored under a key derived from its cell digest plus
// a config salt (everything that shapes the bytes but is not a grid
// coordinate: PageLoadOptions, profiler capture, STOB_CACHE_SALT), so a
// re-run after editing one defense re-simulates only the cells whose keys
// changed while stdout/CSV/manifests stay byte-identical to a cold run.
//
// On-disk layout (machine-local, never an interchange format):
//
//   DIR/objects/<k0k1>/<key>.entry   one file per cell (see entry format)
//   DIR/tmp/                         in-flight commits (unique names)
//   DIR/quarantine/                  corrupt entries, kept for post-mortems
//
// Commit protocol: encode → write + fsync a unique file in tmp/ → rename(2)
// into objects/ (atomic on POSIX: readers see the old entry or the complete
// new one, never a torn write). rename(2) keeps the tmp write's mtime, so
// an entry's mtime is its commit time, and gc() evicts in that order.
// store() runs all three steps on the caller. run_grid prepares each miss's
// entry on the pool thread that ran it and leaves the durable half
// (commit()) to its commit threads, so fsync never stalls a simulation; a
// SIGKILL then loses at most the entries not yet renamed in, never tears one.
//
// Read path: open, read into one buffer sized from fstat, validate (magic,
// format version, key echo, codec rev, length, payload SHA-256 — on every
// load), strip the header in place. Any validation failure quarantines the
// file and reports a miss — a corrupt or truncated entry is recomputed,
// never served. No locks are taken: concurrent readers, writers and even
// concurrent sweeps sharing one DIR are safe because every mutation is a
// whole-file rename.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace stob::exp {

/// Entry format version: the first header line of every cache entry, and
/// part of every key. Bump when the entry layout changes — old caches then
/// quarantine-and-recompute loudly instead of misreading (pinned by a golden
/// test in test_cache) — or when the same cell would now record different
/// contents. Version 2: the simulator's heap high-water gauge in a cell's
/// metrics snapshot fell once pipes kept one arrival event each.
inline constexpr std::uint32_t kCacheEntryVersion = 2;

class ResultCache {
 public:
  struct Stats {
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t quarantined = 0;  ///< corrupt entries moved aside
    std::uint64_t bytes_read = 0;   ///< payload bytes served from hits
    std::uint64_t bytes_written = 0;  ///< entry bytes committed by stores

    double hit_ratio() const {
      return probes == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probes);
    }
  };

  struct GcReport {
    std::size_t entries_kept = 0;
    std::size_t entries_evicted = 0;
    std::size_t junk_removed = 0;  ///< tmp leftovers + quarantined files
    std::uint64_t bytes_kept = 0;
    std::uint64_t bytes_evicted = 0;
  };

  /// Open (creating if needed) a cache rooted at `dir`. `codec` is the
  /// job-codec payload version entries are written with; an entry recorded
  /// under a different codec rev is quarantined on load (the key already
  /// folds the codec in via cell_digest — this is belt and braces). Throws
  /// std::runtime_error when the directory tree cannot be created.
  explicit ResultCache(std::filesystem::path dir,
                       std::uint32_t codec = 0);

  /// Cache key for one cell: SHA-256 over the cell's content digest, the
  /// entry-format version, whether the payload carries a profiler capture,
  /// and the run's config salt (exp::run_config_salt). Pure function —
  /// jobs/timing/proc knobs never reach it.
  static std::string entry_key(std::string_view cell_digest, bool profiled,
                               std::string_view config_salt);
  /// entry_key split in two for callers that key many cells under one
  /// salt: hash the salt once with salt_hash, then derive each key with
  /// entry_key_hashed. entry_key(d, p, s) == entry_key_hashed(d, p, salt_hash(s)).
  static std::string salt_hash(std::string_view config_salt);
  static std::string entry_key_hashed(std::string_view cell_digest, bool profiled,
                                      std::string_view salt_sha256);

  /// Validated payload for `key`, or nullopt (miss). A present-but-invalid
  /// entry is moved to quarantine/ and reported as a miss. Lock-free and
  /// safe from any thread.
  std::optional<std::string> load(std::string_view key);

  /// Commit `payload` under `key` (atomic rename-in; see the commit
  /// protocol above). Best-effort: an I/O failure warns and returns false —
  /// a broken cache must never kill the sweep. Safe from any thread.
  /// Exactly commit(prepare(key, payload)).
  bool store(std::string_view key, std::string_view payload);

  /// An encoded entry and the paths its commit writes, so that commit()
  /// itself allocates nothing.
  struct Pending {
    std::string entry;  ///< encode_entry(key, payload)
    std::string tmp;    ///< unique in-flight path under tmp/
    std::string dest;   ///< entry_path(key)
  };
  /// The first half of store: encode the entry (SHA-256 included), name its
  /// paths and make its shard directory. Safe from any thread.
  Pending prepare(std::string_view key, std::string_view payload);
  /// The durable half of store: write + fsync the entry to its tmp file and
  /// rename(2) it into objects/. Same best-effort contract and counters as
  /// store. Safe from any thread; on success it allocates nothing.
  bool commit(const Pending& entry);

  /// Evict oldest-first (entry mtime, ties broken by key) until the
  /// objects/ tree holds at most `max_total_bytes`, and remove tmp/ and
  /// quarantine/ junk.
  GcReport gc(std::uint64_t max_total_bytes);

  Stats stats() const;
  /// One human line for stderr: "N/M hits (p%), ... " — the cache-hit
  /// ratio the CI gate parses.
  std::string stats_line() const;

  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path entry_path(std::string_view key) const;

  // ---- format internals, public for the golden / crash-consistency tests
  std::string encode_entry(std::string_view key, std::string_view payload) const;
  /// Payload when `bytes` is a valid entry for `key`; otherwise nullopt
  /// with a one-word reason ("magic", "version", "key", "codec", "len",
  /// "sha256") in *why when given. The header is stripped in place, so the
  /// payload is returned in the buffer passed in, not copied.
  std::optional<std::string> decode_entry(std::string bytes, std::string_view key,
                                          std::string* why = nullptr) const;
  /// Test hook: invoked between the tmp write and the rename — the
  /// SIGKILL-mid-commit crash-consistency test raises its signal here.
  std::function<void()> commit_hook_for_testing;

 private:
  /// entry_path as a plain string: the read path opens it directly.
  std::string entry_file(std::string_view key) const;
  /// Unique in-flight path for a commit of `key`.
  std::string tmp_path(std::string_view key);
  void quarantine(const std::filesystem::path& path);

  std::filesystem::path dir_;
  std::uint32_t codec_ = 0;
  std::atomic<std::uint64_t> tmp_seq_{0};
  std::atomic<std::uint64_t> quarantine_seq_{0};

  mutable std::atomic<std::uint64_t> probes_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> stores_{0};
  mutable std::atomic<std::uint64_t> quarantined_{0};
  mutable std::atomic<std::uint64_t> bytes_read_{0};
  mutable std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace stob::exp
