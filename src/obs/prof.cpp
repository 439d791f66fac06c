#include "obs/prof.hpp"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "obs/json.hpp"
#include "util/buffer_pool.hpp"

namespace stob::obs {

namespace detail {
constinit thread_local Profiler* g_profiler = nullptr;
}  // namespace detail

void install_profiler(Profiler* p) noexcept { detail::g_profiler = p; }

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. Spans live on one thread, so this is the
/// span's attributable share of process CPU (summing a run's span CPU over
/// all workers reconstructs the process figure without double counting).
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t sub_domain(std::uint64_t domain, std::uint64_t index) {
  return splitmix64(splitmix64(domain) ^ index);
}

Profiler::Profiler(std::uint64_t id_domain)
    : id_domain_(id_domain), epoch_wall_ns_(wall_now_ns()) {}

std::int64_t Profiler::now_ns() const { return wall_now_ns() - epoch_wall_ns_; }

std::uint64_t Profiler::next_id() {
  // mix(domain, seq): seq is open order, which is deterministic program
  // order — never wall-clock or thread identity. 0 is reserved for "root".
  const std::uint64_t id = splitmix64(splitmix64(id_domain_) ^ ++seq_);
  return id != 0 ? id : 1;
}

std::size_t Profiler::open(std::string_view name) {
  ProfRecord rec;
  rec.id = next_id();
  rec.parent = stack_.empty() ? 0 : records_[stack_.back()].id;
  rec.depth = static_cast<std::uint32_t>(stack_.size());
  rec.name.assign(name);
  rec.start_ns = now_ns();
  rec.cpu_ns = thread_cpu_ns();  // epoch; close() rewrites with the delta
  const mem::PoolStats pool = mem::pool_stats();
  rec.pool_hits = pool.hits;      // epochs, rewritten on close
  rec.pool_misses = pool.misses;
  const std::size_t index = records_.size();
  records_.push_back(std::move(rec));
  stack_.push_back(index);
  return index;
}

void Profiler::close(std::size_t index) {
  assert(!stack_.empty() && stack_.back() == index &&
         "ProfSpan close out of LIFO order");
  stack_.pop_back();
  ProfRecord& rec = records_[index];
  rec.wall_ns = now_ns() - rec.start_ns;
  rec.cpu_ns = thread_cpu_ns() - rec.cpu_ns;
  const mem::PoolStats pool = mem::pool_stats();
  rec.pool_hits = pool.hits - rec.pool_hits;
  rec.pool_misses = pool.misses - rec.pool_misses;
}

void Profiler::splice(std::vector<ProfRecord> records, std::int64_t shift_ns,
                      std::uint32_t worker) {
  const std::uint64_t attach = stack_.empty() ? 0 : records_[stack_.back()].id;
  const auto base_depth = static_cast<std::uint32_t>(stack_.size());
  records_.reserve(records_.size() + records.size());
  for (ProfRecord& rec : records) {
    if (rec.parent == 0) rec.parent = attach;
    rec.depth += base_depth;
    rec.start_ns += shift_ns;
    // Nested pools (a profiled pool inside a job) already assigned inner
    // lanes; fold them under this worker's lane block so lanes stay unique.
    rec.worker = rec.worker == 0 ? worker : worker * 64 + rec.worker;
    records_.push_back(std::move(rec));
  }
}

std::vector<ProfRecord> Profiler::take_records() {
  std::vector<ProfRecord> out = std::move(records_);
  records_.clear();
  stack_.clear();
  return out;
}

void Profiler::clear() {
  records_.clear();
  stack_.clear();
  seq_ = 0;
  harness_.clear();
}

std::string Profiler::structure() const {
  char buf[64];
  std::string out;
  for (const ProfRecord& rec : records_) {
    std::snprintf(buf, sizeof(buf), "%016llx %016llx %u ",
                  static_cast<unsigned long long>(rec.id),
                  static_cast<unsigned long long>(rec.parent), rec.depth);
    out += buf;
    out += rec.name;
    out += '\n';
  }
  return out;
}

// ----------------------------------------------------- trace_event export

std::string trace_event_json(const std::vector<ProfRecord>& records,
                             std::string_view process_name) {
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"";
  json_escape(out, process_name);
  out += "\"}}";
  // One thread_name metadata event per lane seen, in first-use order.
  std::vector<std::uint32_t> lanes;
  for (const ProfRecord& rec : records) {
    bool seen = false;
    for (std::uint32_t lane : lanes) seen = seen || lane == rec.worker;
    if (!seen) {
      lanes.push_back(rec.worker);
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"name\":\"%s %u\"}}",
                    rec.worker, rec.worker == 0 ? "main" : "worker", rec.worker);
      out += buf;
    }
  }
  for (const ProfRecord& rec : records) {
    if (rec.wall_ns < 0) continue;  // still open — not a complete event
    out += ",\n{\"name\":\"";
    json_escape(out, rec.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"stob\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%016llx\",\"cpu_ms\":%.6f,"
                  "\"pool_hits\":%llu,\"pool_misses\":%llu}}",
                  rec.worker, static_cast<double>(rec.start_ns) / 1e3,
                  static_cast<double>(rec.wall_ns) / 1e3,
                  static_cast<unsigned long long>(rec.id),
                  static_cast<double>(rec.cpu_ns) / 1e6,
                  static_cast<unsigned long long>(rec.pool_hits),
                  static_cast<unsigned long long>(rec.pool_misses));
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void write_trace_event(const std::filesystem::path& path,
                       const std::vector<ProfRecord>& records,
                       std::string_view process_name) {
  std::ofstream f(path);
  f << trace_event_json(records, process_name);
}

}  // namespace stob::obs
