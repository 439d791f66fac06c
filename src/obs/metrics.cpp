#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/simulator.hpp"
#include "util/buffer_pool.hpp"

namespace stob::obs {

namespace detail {
constinit thread_local MetricsRegistry* g_metrics = nullptr;
}  // namespace detail

void install_metrics(MetricsRegistry* m) noexcept { detail::g_metrics = m; }

namespace {

/// Shortest round-trippable rendering; deterministic for identical doubles.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view name, double value) {
  auto it = dists_.find(name);
  if (it == dists_.end()) it = dists_.emplace(std::string(name), Distribution{}).first;
  Distribution& d = it->second;
  if (d.welford.count() == 0) {
    d.min = d.max = value;
  } else {
    d.min = std::min(d.min, value);
    d.max = std::max(d.max, value);
  }
  d.welford.add(value);
  if (d.reservoir.size() < kReservoirCap) d.reservoir.push_back(value);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const MetricsRegistry::Distribution* MetricsRegistry::distribution(std::string_view name) const {
  auto it = dists_.find(name);
  return it == dists_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) add(name, v);
  for (const auto& [name, v] : other.gauges_) set(name, v);
  for (const auto& [name, od] : other.dists_) {
    auto it = dists_.find(name);
    if (it == dists_.end()) {
      dists_.emplace(name, od);
      continue;
    }
    Distribution& d = it->second;
    if (od.welford.count() > 0) {
      d.min = d.welford.count() == 0 ? od.min : std::min(d.min, od.min);
      d.max = d.welford.count() == 0 ? od.max : std::max(d.max, od.max);
    }
    d.welford.merge(od.welford);
    for (double v : od.reservoir) {
      if (d.reservoir.size() >= kReservoirCap) break;
      d.reservoir.push_back(v);
    }
  }
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  dists_.clear();
}

std::string MetricsRegistry::snapshot() const {
  std::string out;
  for (const auto& [name, v] : counters_) {
    out += "counter " + name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : gauges_) {
    out += "gauge " + name + " " + format_double(v) + "\n";
  }
  for (const auto& [name, d] : dists_) {
    out += "dist " + name + " count=" + std::to_string(d.count()) +
           " mean=" + format_double(d.mean()) + " stddev=" + format_double(d.stddev()) +
           " min=" + format_double(d.min) + " max=" + format_double(d.max) + "\n";
  }
  return out;
}

std::vector<csv::Row> MetricsRegistry::to_csv_rows() const {
  std::vector<csv::Row> rows;
  rows.push_back({"kind", "name", "count", "value", "mean", "stddev", "min", "max"});
  for (const auto& [name, v] : counters_) {
    rows.push_back({"counter", name, std::to_string(v), "", "", "", "", ""});
  }
  for (const auto& [name, v] : gauges_) {
    rows.push_back({"gauge", name, "", format_double(v), "", "", "", ""});
  }
  for (const auto& [name, d] : dists_) {
    rows.push_back({"dist", name, std::to_string(d.count()), "", format_double(d.mean()),
                    format_double(d.stddev()), format_double(d.min), format_double(d.max)});
  }
  return rows;
}

void MetricsRegistry::write_csv(const std::filesystem::path& path) const {
  csv::write_file(path, to_csv_rows());
}

void scrape_simulator(const sim::Simulator& sim, MetricsRegistry& m) {
  m.set("sim.events_executed", static_cast<double>(sim.executed()));
  m.set("sim.events_pending", static_cast<double>(sim.pending()));
  m.set("sim.events_cancelled", static_cast<double>(sim.cancelled()));
  m.set("sim.heap_high_water", static_cast<double>(sim.heap_high_water()));
}

void scrape_pool(MetricsRegistry& m) {
  const mem::PoolStats s = mem::pool_stats();
  m.set("mem.pool_hits", static_cast<double>(s.hits));
  m.set("mem.pool_misses", static_cast<double>(s.misses));
  m.set("mem.pool_spills", static_cast<double>(s.spills));
  m.set("mem.pool_cached", static_cast<double>(s.cached));
  m.set("mem.pool_outstanding", static_cast<double>(s.outstanding));
}

}  // namespace stob::obs
