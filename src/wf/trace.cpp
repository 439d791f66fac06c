#include "wf/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "util/csv.hpp"
#include "util/stats.hpp"

namespace stob::wf {

namespace {

bool time_less(const PacketRecord& a, const PacketRecord& b) { return a.time < b.time; }

/// Shortest decimal that parses back to exactly `v` (std::to_string would
/// print %f, six decimals, and lose every sub-microsecond part of a time).
std::string round_trip_string(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Orders a[first..) into the already ordered prefix a[0..first), where
/// `first` is the first descent. Insertion moves a record only past
/// strictly later ones, so equal times keep their capture order, and the
/// array stays a permutation whose stable sort is the stable sort of the
/// input. Once the moves pass the budget (far-travelling disorder), a
/// stable sort finishes.
void order_from(std::vector<PacketRecord>& a, std::size_t first) {
  const std::size_t n = a.size();
  // Eight moves per packet. Split output, where a delayed second half is
  // overtaken by the next few packets, needs about a quarter.
  std::size_t budget = 8 * n;
  for (std::size_t i = first; i < n; ++i) {
    if (!time_less(a[i], a[i - 1])) continue;
    const PacketRecord x = a[i];
    std::size_t j = i;
    do {
      a[j] = a[j - 1];
      --j;
    } while (j > 0 && time_less(x, a[j - 1]));
    a[j] = x;
    if (i - j > budget) {
      std::stable_sort(a.begin(), a.end(), time_less);
      return;
    }
    budget -= i - j;
  }
}

}  // namespace

void Trace::normalize() {
  if (packets_.empty()) return;
  std::size_t first = 1;
  while (first < packets_.size() && packets_[first - 1].time <= packets_[first].time) ++first;
  if (first < packets_.size() &&
      std::any_of(packets_.begin(), packets_.end(),
                  [](const PacketRecord& p) { return std::isnan(p.time); })) {
    // NaN breaks the strict weak order `<` needs, and only the algorithm
    // the contract names reproduces its output then.
    std::stable_sort(packets_.begin(), packets_.end(), time_less);
  } else {
    if (first < packets_.size()) order_from(packets_, first);
    // No NaN here, and x - (+0.0) is x for every other double, -0.0
    // included: a trace that already starts at +0.0 is done.
    if (packets_.front().time == 0.0 && !std::signbit(packets_.front().time)) return;
  }
  const double t0 = packets_.front().time;
  for (PacketRecord& p : packets_) p.time -= t0;
}

Trace Trace::truncated(std::size_t n) const {
  if (n >= packets_.size()) return *this;
  return Trace(std::vector<PacketRecord>(packets_.begin(),
                                         packets_.begin() + static_cast<std::ptrdiff_t>(n)));
}

// The sums wrap in uint64_t, as the k-FP extractor's do: a hostile CSV's
// int64 sizes would overflow a signed sum.
std::int64_t Trace::total_bytes() const {
  std::uint64_t s = 0;
  for (const auto& p : packets_) s += static_cast<std::uint64_t>(p.size);
  return static_cast<std::int64_t>(s);
}

std::int64_t Trace::incoming_bytes() const {
  std::uint64_t s = 0;
  for (const auto& p : packets_) {
    if (p.direction < 0) s += static_cast<std::uint64_t>(p.size);
  }
  return static_cast<std::int64_t>(s);
}

std::int64_t Trace::outgoing_bytes() const {
  std::uint64_t s = 0;
  for (const auto& p : packets_) {
    if (p.direction > 0) s += static_cast<std::uint64_t>(p.size);
  }
  return static_cast<std::int64_t>(s);
}

std::size_t Trace::incoming_count() const {
  return static_cast<std::size_t>(
      std::count_if(packets_.begin(), packets_.end(),
                    [](const PacketRecord& p) { return p.direction < 0; }));
}

std::size_t Trace::outgoing_count() const {
  return packets_.size() - incoming_count();
}

double Trace::duration() const {
  if (packets_.size() < 2) return 0.0;
  return packets_.back().time - packets_.front().time;
}

// ----------------------------------------------------------------- Dataset

void Dataset::add(Trace trace, int label) {
  traces_.push_back(std::move(trace));
  labels_.push_back(label);
}

std::size_t Dataset::num_classes() const {
  return std::set<int>(labels_.begin(), labels_.end()).size();
}

Dataset Dataset::sanitized_by_download_size(double k) const {
  // Group indices per class, fence on incoming_bytes within the class.
  std::set<int> classes(labels_.begin(), labels_.end());
  Dataset out;
  for (int cls : classes) {
    std::vector<std::size_t> idx;
    std::vector<double> sizes;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      if (labels_[i] == cls) {
        idx.push_back(i);
        sizes.push_back(static_cast<double>(traces_[i].incoming_bytes()));
      }
    }
    for (std::size_t j : stats::iqr_inlier_indices(sizes, k)) {
      out.add(traces_[idx[j]], cls);
    }
  }
  return out;
}

Dataset Dataset::balanced(std::size_t per_class) const {
  std::set<int> classes(labels_.begin(), labels_.end());
  Dataset out;
  for (int cls : classes) {
    std::size_t taken = 0;
    for (std::size_t i = 0; i < traces_.size() && taken < per_class; ++i) {
      if (labels_[i] == cls) {
        out.add(traces_[i], cls);
        ++taken;
      }
    }
  }
  return out;
}

void Dataset::save_csv(const std::filesystem::path& path) const {
  std::vector<csv::Row> rows;
  rows.push_back({"trace_id", "label", "time", "direction", "size"});
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    if (traces_[i].empty()) {
      throw std::invalid_argument("dataset csv: trace " + std::to_string(i) +
                                  " has no packets and would write no rows");
    }
    for (const PacketRecord& p : traces_[i].packets()) {
      rows.push_back({std::to_string(i), std::to_string(labels_[i]), round_trip_string(p.time),
                      std::to_string(p.direction), std::to_string(p.size)});
    }
  }
  csv::write_file(path, rows);
}

Dataset Dataset::load_csv(const std::filesystem::path& path) {
  const auto rows = csv::read_file(path);
  Dataset out;
  Trace current;
  std::int64_t current_id = -1;
  int current_label = 0;
  for (std::size_t r = 1; r < rows.size(); ++r) {  // skip header
    const auto& row = rows[r];
    if (row.size() != 5) throw std::runtime_error("dataset csv: malformed row");
    const std::int64_t id = std::stoll(row[0]);
    if (id < 0) {
      throw std::invalid_argument("dataset csv: negative trace_id " + row[0] + " in data row " +
                                  std::to_string(r));
    }
    if (id != current_id) {
      if (id != current_id + 1) {
        throw std::invalid_argument("dataset csv: trace_id " + row[0] + " in data row " +
                                    std::to_string(r) + " breaks the sequence 0, 1, 2, ... " +
                                    "(expected " + std::to_string(current_id + 1) + ")");
      }
      if (current_id >= 0) out.add(std::move(current), current_label);
      current = Trace{};
      current_id = id;
      current_label = std::stoi(row[1]);
    }
    current.add(std::stod(row[2]), std::stoi(row[3]), std::stoll(row[4]));
  }
  if (current_id >= 0) out.add(std::move(current), current_label);
  return out;
}

// ----------------------------------------------------------- TraceRecorder

TraceRecorder::TraceRecorder(net::DuplexPath& path) : path_(&path) {
  path_->forward().set_tx_tap([this](const net::Packet& p, TimePoint t) {
    trace_.add(t.sec(), +1, p.wire_size().count());
  });
  path_->backward().set_rx_tap([this](const net::Packet& p, TimePoint t) {
    trace_.add(t.sec(), -1, p.wire_size().count());
  });
}

void TraceRecorder::detach() {
  if (path_ != nullptr) {
    path_->forward().set_tx_tap(nullptr);
    path_->backward().set_rx_tap(nullptr);
    path_ = nullptr;
  }
}

Trace TraceRecorder::take() {
  detach();
  Trace t = std::move(trace_);
  trace_ = Trace{};
  t.normalize();
  return t;
}

}  // namespace stob::wf
