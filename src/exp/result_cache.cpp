#include "exp/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
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
/// the common case on a cold cache — not an error). The buffer is sized
/// once from fstat; a file that shrinks mid-read comes back short and fails
/// validation.
std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> out;
  struct stat st;
  if (::fstat(fd, &st) == 0) {
    std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
    std::size_t got = 0;
    bool ok = true;
    while (got < bytes.size()) {
      const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ok = n == 0;
        break;
      }
      got += static_cast<std::size_t>(n);
    }
    if (ok) {
      bytes.resize(got);
      out = std::move(bytes);
    }
  }
  ::close(fd);
  return out;
}

/// Plain syscalls, no stdio buffer: a commit allocates nothing.
bool write_file_durable(const std::string& path, std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  bool ok = true;
  std::size_t put = 0;
  while (ok && put < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) put += static_cast<std::size_t>(n);
  }
  // The rename must never expose a page-cache-only entry as committed.
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
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
  return entry_key_hashed(cell_digest, profiled, salt_hash(config_salt));
}

std::string ResultCache::salt_hash(std::string_view config_salt) {
  return util::sha256_hex(config_salt);
}

std::string ResultCache::entry_key_hashed(std::string_view cell_digest, bool profiled,
                                          std::string_view salt_sha256) {
  // The salt is hashed first so its free-form contents cannot collide with
  // the framing of the key preimage. The preimage
  // "stobcache:<version>|digest=<d>|prof=<0|1>|salt=<s>" is streamed into
  // the hash piece by piece, so deriving a key allocates only its result.
  char version[24];  // holds any 64-bit value
  const char* version_end =
      std::to_chars(version, version + sizeof version, kCacheEntryVersion).ptr;
  util::Sha256 h;
  h.update("stobcache:");
  h.update(version, static_cast<std::size_t>(version_end - version));
  h.update("|digest=");
  h.update(cell_digest);
  h.update(profiled ? "|prof=1" : "|prof=0");
  h.update("|salt=");
  h.update(salt_sha256);
  std::string key(64, '\0');
  h.hex_digest(key.data());
  return key;
}

std::string ResultCache::entry_file(std::string_view key) const {
  if (!is_hex_key(key)) throw std::invalid_argument("cache: malformed entry key");
  // DIR/objects/<k0k1>/<key>.entry, assembled in one allocation.
  const std::string& dir = dir_.native();
  std::string path;
  path.reserve(dir.size() + key.size() + 18);
  path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "objects/";
  path += key.substr(0, 2);
  path += '/';
  path += key;
  path += ".entry";
  return path;
}

std::filesystem::path ResultCache::entry_path(std::string_view key) const {
  return entry_file(key);
}

std::string ResultCache::tmp_path(std::string_view key) {
  // pid + per-process sequence keeps concurrent sweeps sharing one cache
  // directory from ever colliding on an in-flight name.
  const std::uint64_t seq = tmp_seq_.fetch_add(1, std::memory_order_relaxed);
  return (dir_ / "tmp" /
          (std::string(key.substr(0, 16)) + "." + std::to_string(::getpid()) + "." +
           std::to_string(seq)))
      .native();
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

std::optional<std::string> ResultCache::decode_entry(std::string bytes, std::string_view key,
                                                     std::string* why) const {
  const auto fail = [why](const char* reason) -> std::optional<std::string> {
    if (why != nullptr) *why = reason;
    return std::nullopt;
  };
  const std::string_view view = bytes;
  std::size_t pos = 0;
  std::string_view v;
  std::uint64_t num = 0;
  if (!take_header_line(view, &pos, kMagic, &v)) return fail("magic");
  if (!parse_u64(v, &num) || num != kCacheEntryVersion) return fail("version");
  if (!take_header_line(view, &pos, "key", &v)) return fail("key");
  if (v != key) return fail("key");
  if (!take_header_line(view, &pos, "codec", &v)) return fail("codec");
  if (!parse_u64(v, &num) || num != codec_) return fail("codec");
  if (!take_header_line(view, &pos, "len", &v)) return fail("len");
  std::uint64_t len = 0;
  if (!parse_u64(v, &len)) return fail("len");
  std::string_view digest;
  if (!take_header_line(view, &pos, "sha256", &digest)) return fail("sha256");
  if (pos >= view.size() || view[pos] != '\n') return fail("magic");
  pos += 1;
  // Exact length: a truncated *or* padded payload both fail here, before
  // the hash is even computed.
  if (view.size() - pos != len) return fail("len");
  util::Sha256 sha;
  sha.update(view.substr(pos));
  char actual[64];
  sha.hex_digest(actual);
  if (digest != std::string_view(actual, sizeof actual)) return fail("sha256");
  bytes.erase(0, pos);  // the payload, in the buffer it was read into
  return bytes;
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
  const std::string path = entry_file(key);
  std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::string why;
  std::optional<std::string> payload = decode_entry(std::move(*bytes), key, &why);
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
  return commit(prepare(key, payload));
}

ResultCache::Pending ResultCache::prepare(std::string_view key, std::string_view payload) {
  Pending p;
  p.dest = entry_file(key);
  p.tmp = tmp_path(key);
  p.entry = encode_entry(key, payload);
  // The shard directory is made here, so commit() needs no path of its own;
  // if this fails, commit's rename reports it.
  std::error_code ec;
  fs::create_directories(fs::path(p.dest).parent_path(), ec);
  return p;
}

bool ResultCache::commit(const Pending& p) {
  if (!write_file_durable(p.tmp, p.entry)) {
    STOB_WARN("cache") << "cannot write " << p.tmp << "; entry dropped";
    ::unlink(p.tmp.c_str());
    return false;
  }
  if (commit_hook_for_testing) commit_hook_for_testing();
  if (::rename(p.tmp.c_str(), p.dest.c_str()) != 0) {
    const std::error_code ec(errno, std::generic_category());
    STOB_WARN("cache") << "cannot commit " << p.dest << ": " << ec.message();
    ::unlink(p.tmp.c_str());
    return false;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(p.entry.size(), std::memory_order_relaxed);
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
