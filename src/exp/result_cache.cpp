#include "exp/result_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <tuple>
#include <utility>
#include <vector>

#include "util/log.hpp"
#include "util/sha256.hpp"

namespace stob::exp {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMagic = "stobcache";

bool is_hex_key(std::string_view key) {
  if (key.empty() || key.size() > 128) return false;
  for (char c : key) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

/// Whole file as bytes, or nullopt when it cannot be read (missing file is
/// the common case on a cold cache — not an error).
std::optional<std::string> read_file(const fs::path& path) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return out;
}

bool write_file_durable(const fs::path& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = ok && std::fflush(f) == 0;
  // The rename must never expose a page-cache-only entry as committed.
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

/// "name value\n" starting at *pos; advances *pos past the newline.
bool take_header_line(std::string_view bytes, std::size_t* pos, std::string_view name,
                      std::string_view* value) {
  const std::size_t end = bytes.find('\n', *pos);
  if (end == std::string_view::npos) return false;
  const std::string_view line = bytes.substr(*pos, end - *pos);
  if (line.size() < name.size() + 1 || line.substr(0, name.size()) != name ||
      line[name.size()] != ' ') {
    return false;
  }
  *value = line.substr(name.size() + 1);
  *pos = end + 1;
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

ResultCache::ResultCache(std::filesystem::path dir, std::uint32_t codec)
    : dir_(std::move(dir)), codec_(codec) {
  std::error_code ec;
  for (const char* sub : {"objects", "tmp", "quarantine"}) {
    fs::create_directories(dir_ / sub, ec);
    if (ec) {
      throw std::runtime_error("cache: cannot create '" + (dir_ / sub).string() +
                               "': " + ec.message());
    }
  }
}

std::string ResultCache::entry_key(std::string_view cell_digest, bool profiled,
                                   std::string_view config_salt) {
  // The salt is hashed first so its free-form contents cannot collide with
  // the framing of the key preimage.
  std::string preimage = "stobcache:";
  preimage += std::to_string(kCacheEntryVersion);
  preimage += "|digest=";
  preimage += cell_digest;
  preimage += "|prof=";
  preimage += profiled ? '1' : '0';
  preimage += "|salt=";
  preimage += util::sha256_hex(config_salt);
  return util::sha256_hex(preimage);
}

std::filesystem::path ResultCache::entry_path(std::string_view key) const {
  if (!is_hex_key(key)) throw std::invalid_argument("cache: malformed entry key");
  const std::string name(key);
  const std::string shard = name.substr(0, 2);
  return dir_ / "objects" / shard / (name + ".entry");
}

std::filesystem::path ResultCache::tmp_path(std::string_view key) {
  // pid + per-process sequence keeps concurrent sweeps sharing one cache
  // directory from ever colliding on an in-flight name.
  const std::uint64_t seq = tmp_seq_.fetch_add(1, std::memory_order_relaxed);
  return dir_ / "tmp" /
         (std::string(key.substr(0, 16)) + "." + std::to_string(::getpid()) + "." +
          std::to_string(seq));
}

std::string ResultCache::encode_entry(std::string_view key, std::string_view payload) const {
  std::string out(kMagic);
  out += ' ';
  out += std::to_string(kCacheEntryVersion);
  out += "\nkey ";
  out += key;
  out += "\ncodec ";
  out += std::to_string(codec_);
  out += "\nlen ";
  out += std::to_string(payload.size());
  out += "\nsha256 ";
  out += util::sha256_hex(payload);
  out += "\n\n";
  out += payload;
  return out;
}

std::optional<std::string> ResultCache::decode_entry(std::string_view bytes, std::string_view key,
                                                     std::string* why) const {
  const auto fail = [why](const char* reason) -> std::optional<std::string> {
    if (why != nullptr) *why = reason;
    return std::nullopt;
  };
  std::size_t pos = 0;
  std::string_view v;
  std::uint64_t num = 0;
  if (!take_header_line(bytes, &pos, kMagic, &v)) return fail("magic");
  if (!parse_u64(v, &num) || num != kCacheEntryVersion) return fail("version");
  if (!take_header_line(bytes, &pos, "key", &v)) return fail("key");
  if (v != key) return fail("key");
  if (!take_header_line(bytes, &pos, "codec", &v)) return fail("codec");
  if (!parse_u64(v, &num) || num != codec_) return fail("codec");
  if (!take_header_line(bytes, &pos, "len", &v)) return fail("len");
  std::uint64_t len = 0;
  if (!parse_u64(v, &len)) return fail("len");
  if (!take_header_line(bytes, &pos, "sha256", &v)) return fail("sha256");
  const std::string digest(v);
  if (pos >= bytes.size() || bytes[pos] != '\n') return fail("magic");
  pos += 1;
  // Exact length: a truncated *or* padded payload both fail here, before
  // the hash is even computed.
  if (bytes.size() - pos != len) return fail("len");
  const std::string_view payload = bytes.substr(pos);
  if (util::sha256_hex(payload) != digest) return fail("sha256");
  return std::string(payload);
}

void ResultCache::quarantine(const std::filesystem::path& path) {
  const std::uint64_t seq = quarantine_seq_.fetch_add(1, std::memory_order_relaxed);
  const fs::path dest = dir_ / "quarantine" /
                        (path.filename().string() + "." + std::to_string(::getpid()) + "." +
                         std::to_string(seq));
  std::error_code ec;
  fs::rename(path, dest, ec);
  // A concurrent process may have quarantined it first; losing that race
  // leaves nothing to move and nothing to clean up.
  if (ec) fs::remove(path, ec);
}

std::optional<std::string> ResultCache::load(std::string_view key) {
  probes_.fetch_add(1, std::memory_order_relaxed);
  const fs::path path = entry_path(key);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::string why;
  std::optional<std::string> payload = decode_entry(*bytes, key, &why);
  if (!payload.has_value()) {
    STOB_WARN("cache") << "entry " << std::string(key.substr(0, 12)) << "… failed " << why
                       << " validation; quarantined, cell will be recomputed";
    quarantine(path);
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(payload->size(), std::memory_order_relaxed);
  return payload;
}

bool ResultCache::store(std::string_view key, std::string_view payload) {
  const std::string entry = encode_entry(key, payload);
  const fs::path dest = entry_path(key);
  const fs::path tmp = tmp_path(key);
  std::error_code ec;
  fs::create_directories(dest.parent_path(), ec);
  if (ec || !write_file_durable(tmp, entry)) {
    STOB_WARN("cache") << "cannot write " << tmp.string() << "; entry dropped";
    fs::remove(tmp, ec);
    return false;
  }
  if (commit_hook_for_testing) commit_hook_for_testing();
  fs::rename(tmp, dest, ec);
  if (ec) {
    STOB_WARN("cache") << "cannot commit " << dest.string() << ": " << ec.message();
    fs::remove(tmp, ec);
    return false;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(entry.size(), std::memory_order_relaxed);
  return true;
}

ResultCache::GcReport ResultCache::gc(std::uint64_t max_total_bytes) {
  GcReport report;
  std::error_code ec;

  // In-flight leftovers and quarantined corpses are junk by definition —
  // a live commit's tmp file can race this sweep, but losing one means the
  // committer re-stores on the next run, never a wrong result.
  for (const char* sub : {"tmp", "quarantine"}) {
    for (const auto& e : fs::directory_iterator(dir_ / sub, ec)) {
      if (fs::remove(e.path(), ec)) report.junk_removed += 1;
    }
  }

  // Every entry on disk, ranked oldest commit first; equal mtimes (a coarse
  // filesystem clock) fall back to key order so the ranking is total.
  struct OnDisk {
    fs::file_time_type mtime;
    std::string key;
    fs::path path;
    std::uint64_t bytes = 0;
  };
  std::vector<OnDisk> entries;
  std::uint64_t total = 0;
  for (const auto& shard : fs::directory_iterator(dir_ / "objects", ec)) {
    for (const auto& e : fs::directory_iterator(shard.path(), ec)) {
      if (e.path().extension() != ".entry") continue;
      // A concurrent gc or quarantine may remove the file mid-scan.
      std::error_code sec;
      const std::uint64_t size = fs::file_size(e.path(), sec);
      if (sec) continue;
      const fs::file_time_type mtime = fs::last_write_time(e.path(), sec);
      if (sec) continue;
      entries.push_back({mtime, e.path().stem().string(), e.path(), size});
      total += size;
    }
  }
  std::sort(entries.begin(), entries.end(), [](const OnDisk& a, const OnDisk& b) {
    return std::tie(a.mtime, a.key) < std::tie(b.mtime, b.key);
  });

  for (const OnDisk& e : entries) {
    if (total > max_total_bytes) {
      if (fs::remove(e.path, ec)) {
        report.entries_evicted += 1;
        report.bytes_evicted += e.bytes;
      }
      total -= e.bytes;
    } else {
      report.entries_kept += 1;
      report.bytes_kept += e.bytes;
    }
  }
  return report;
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.probes = probes_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return s;
}

std::string ResultCache::stats_line() const {
  const Stats s = stats();
  char ratio[16];
  std::snprintf(ratio, sizeof ratio, "%.1f", 100.0 * s.hit_ratio());
  std::string out = "cache: " + std::to_string(s.hits) + "/" + std::to_string(s.probes) +
                    " hits (" + ratio + "%), " + std::to_string(s.misses) + " misses, " +
                    std::to_string(s.stores) + " stores, " + std::to_string(s.quarantined) +
                    " quarantined, " + std::to_string(s.bytes_read) + " bytes in, " +
                    std::to_string(s.bytes_written) + " bytes out";
  return out;
}

}  // namespace stob::exp
