#include "obs/manifest.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "obs/json.hpp"
#include "util/buffer_pool.hpp"
#include "util/sha256.hpp"

namespace stob::obs {

namespace {

// The manifest's escaping dialect (all control + non-ASCII bytes as
// \uXXXX, so output is provably 7-bit) now lives in obs/json.hpp, shared
// with the trace_event export; the hostile-string golden test in test_obs
// pins that the shared escaper matches the historical manifest output.
void append_escaped(std::string& out, std::string_view s) { json_escape(out, s); }

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::vector<PhaseRollup> rollup_phases(const std::vector<ProfRecord>& records) {
  std::map<std::string, PhaseRollup> by_name;
  for (const ProfRecord& rec : records) {
    if (rec.wall_ns < 0) continue;  // open span: no duration to attribute
    PhaseRollup& r = by_name[rec.name];
    r.name = rec.name;
    r.count += 1;
    r.wall_ms += static_cast<double>(rec.wall_ns) / 1e6;
    r.cpu_ms += static_cast<double>(rec.cpu_ns) / 1e6;
    r.pool_hits += rec.pool_hits;
    r.pool_misses += rec.pool_misses;
  }
  std::vector<PhaseRollup> out;
  out.reserve(by_name.size());
  for (auto& [name, r] : by_name) out.push_back(std::move(r));
  return out;  // map iteration order = sorted by name
}

void RunManifest::set_config(std::string key, std::string value) {
  for (auto& [k, v] : config) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  config.emplace_back(std::move(key), std::move(value));
  std::sort(config.begin(), config.end());
}

CellSpecHash::CellSpecHash(std::string_view tool, std::uint64_t base_seed) {
  h_.update("stob-cell-spec-v1\n");
  h_.update(tool);
  h_.update("\n");
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, base_seed).ptr;
  h_.update(buf, static_cast<std::size_t>(end - buf));
  h_.update("\n");
}

void CellSpecHash::add(std::string_view key, std::string_view value) {
  h_.update(key);
  h_.update("=");
  h_.update(value);
  h_.update("\n");
}

std::string RunManifest::cell_spec_digest() const {
  CellSpecHash h(tool, base_seed);
  for (const auto& [k, v] : config) h.add(k, v);
  return h.hex_digest();
}

std::string RunManifest::to_json(bool include_harness) const {
  std::string out = "{\n";
  out += "  \"schema\": \"stob-manifest-v1\",\n";
  out += "  \"tool\": \"";
  append_escaped(out, tool);
  out += "\",\n";
  if (include_harness) {
    out += "  \"git_rev\": \"";
    append_escaped(out, git_rev);
    out += "\",\n  \"jobs\": " + std::to_string(jobs) + ",\n";
  }
  out += "  \"base_seed\": " + std::to_string(base_seed) + ",\n";
  out += "  \"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    append_escaped(out, config[i].first);
    out += "\": \"";
    append_escaped(out, config[i].second);
    out += "\"";
  }
  out += config.empty() ? "},\n" : "\n  },\n";
  out += "  \"cell_spec_digest\": \"" + cell_spec_digest() + "\",\n";
  out += "  \"metrics_sha256\": \"" + metrics_sha256 + "\",\n";
  out += "  \"metrics_lines\": " + std::to_string(metrics_lines) + ",\n";
  out += "  \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseRollup& p = phases[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    append_escaped(out, p.name);
    out += "\", \"count\": " + std::to_string(p.count);
    if (include_harness) {
      out += ", \"wall_ms\": " + fmt(p.wall_ms) + ", \"cpu_ms\": " + fmt(p.cpu_ms) +
             ", \"pool_hits\": " + std::to_string(p.pool_hits) +
             ", \"pool_misses\": " + std::to_string(p.pool_misses);
    }
    out += "}";
  }
  out += phases.empty() ? "]" : "\n  ]";
  if (include_harness) {
    out += ",\n  \"harness\": {\n";
    out += "    \"total_wall_ms\": " + fmt(total_wall_ms) + ",\n";
    out += "    \"total_cpu_ms\": " + fmt(total_cpu_ms) + ",\n";
    out += "    \"metrics\": \"";
    append_escaped(out, harness_metrics);
    out += "\"\n  }";
  }
  out += "\n}\n";
  return out;
}

void RunManifest::write(const std::filesystem::path& path) const {
  std::ofstream f(path);
  f << to_json();
}

RunManifest build_manifest(std::string tool, const Profiler& prof,
                           const MetricsRegistry* metrics, std::size_t jobs,
                           std::uint64_t base_seed) {
  RunManifest m;
  m.tool = std::move(tool);
  m.git_rev = obs::git_rev();
  m.jobs = jobs;
  m.base_seed = base_seed;
  m.phases = rollup_phases(prof.records());
  for (const ProfRecord& rec : prof.records()) {
    if (rec.wall_ns < 0 || rec.parent != 0) continue;  // totals = root spans
    m.total_wall_ms += static_cast<double>(rec.wall_ns) / 1e6;
    m.total_cpu_ms += static_cast<double>(rec.cpu_ns) / 1e6;
  }
  if (metrics != nullptr && !metrics->empty()) {
    const std::string snap = metrics->snapshot();
    m.metrics_sha256 = util::sha256_hex(snap);
    for (char c : snap) m.metrics_lines += c == '\n' ? 1 : 0;
  }
  // Harness section: profiler-side metrics plus this thread's pool totals.
  MetricsRegistry harness = prof.harness();
  const mem::PoolStats pool = mem::pool_stats();
  harness.set("mem.pool_hits", static_cast<double>(pool.hits));
  harness.set("mem.pool_misses", static_cast<double>(pool.misses));
  harness.set("mem.pool_spills", static_cast<double>(pool.spills));
  harness.set("mem.pool_cached", static_cast<double>(pool.cached));
  m.harness_metrics = harness.snapshot();
  return m;
}

std::string git_rev() {
  if (const char* env = std::getenv("STOB_GIT_REV")) return env;
  std::string rev = "unknown";
  if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      rev.assign(buf);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) rev.pop_back();
      if (rev.empty()) rev = "unknown";
    }
    pclose(p);
  }
  return rev;
}

}  // namespace stob::obs
