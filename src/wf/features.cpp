#include "wf/features.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <tuple>

#include "exp/worker_pool.hpp"
#include "util/stats.hpp"
#include "wf/simd_kernels.hpp"

namespace stob::wf {

namespace {

/// The lower of the two ranks stats::percentile_sorted() blends for
/// percentile p of n > 0 sorted values (the same expression).
std::size_t rank_below(std::size_t n, double p) {
  return static_cast<std::size_t>(p / 100.0 * static_cast<double>(n - 1));
}

/// Move the values an ascending sort would put at ranks k and k + 1 (those
/// below a.size()) into those positions. `done` is the prefix already
/// settled by earlier calls, which must come in ascending k: no value before
/// it exceeds any value from it on, so selection searches [done, n) only.
void select_ranks(std::vector<double>& a, std::size_t& done, std::size_t k) {
  const auto at = [&a](std::size_t i) { return a.begin() + static_cast<std::ptrdiff_t>(i); };
  for (std::size_t r = k; r <= k + 1 && r < a.size(); ++r) {
    if (r < done) continue;
    if (r == done) {
      std::iter_swap(at(r), std::min_element(at(r), a.end()));
    } else {
      std::nth_element(at(done), at(r), a.end());
    }
    done = r + 1;
  }
}

/// Helper collecting (name, value) pairs so names and values never drift.
/// Values land in caller-owned storage via a write cursor, so a dataset's
/// rows go straight into the contiguous FeatureMatrix without a per-trace
/// vector in between.
class FeatureBuilder {
 public:
  explicit FeatureBuilder(std::span<double> out) : out_(out) {}

  void add(std::string_view name, double value) {
    if (cursor_ < out_.size()) out_[cursor_++] = std::isfinite(value) ? value : 0.0;
    if (names_ != nullptr) names_->emplace_back(name);
  }

  /// Summary-statistic bundle over a value list. Mean and stddev accumulate
  /// over the original order (their rounding depends on it). The order
  /// statistics come from selection, not a sort: min and max from one scan,
  /// and each quantile from the two ranks percentile_sorted() blends, which
  /// yields the same values. A list holding a NaN has no order, so its order
  /// statistics are undefined and written as 0 like any non-finite feature.
  void add_stats(std::string_view prefix, std::span<const double> xs) {
    add2(prefix, "_mean", stats::mean(xs));
    add2(prefix, "_std", stats::stddev(xs));
    double lo = 0.0, hi = 0.0, median = 0.0, p75 = 0.0;
    if (!xs.empty()) {
      lo = hi = xs[0];
      bool nan = false;
      for (double x : xs) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        nan |= std::isnan(x);
      }
      if (nan) {
        lo = hi = median = p75 = std::numeric_limits<double>::quiet_NaN();
      } else {
        thread_local std::vector<double> ranked;
        ranked.assign(xs.begin(), xs.end());
        std::size_t done = 0;
        select_ranks(ranked, done, rank_below(xs.size(), 50.0));
        select_ranks(ranked, done, rank_below(xs.size(), 75.0));
        // percentile_sorted reads only the two ranks placed above.
        median = stats::percentile_sorted(ranked, 50.0);
        p75 = stats::percentile_sorted(ranked, 75.0);
      }
    }
    add2(prefix, "_min", lo);
    add2(prefix, "_max", hi);
    add2(prefix, "_median", median);
    add2(prefix, "_p75", p75);
  }

  void collect_names(std::vector<std::string>* names) { names_ = names; }
  bool collecting_names() const { return names_ != nullptr; }

 private:
  /// add() without building the concatenated name unless names are wanted.
  void add2(std::string_view prefix, std::string_view suffix, double value) {
    if (cursor_ < out_.size()) out_[cursor_++] = std::isfinite(value) ? value : 0.0;
    if (names_ != nullptr) {
      std::string name;
      name.reserve(prefix.size() + suffix.size());
      name.append(prefix).append(suffix);
      names_->push_back(std::move(name));
    }
  }

  std::span<double> out_;
  std::size_t cursor_ = 0;
  std::vector<std::string>* names_ = nullptr;
};

/// Per-thread extraction scratch. A million-trace streaming run calls
/// build() once per trace; reusing these buffers (capacity survives
/// clear()) removes ~20 heap allocations per trace from the hot path.
struct Scratch {
  std::vector<double> dir01;  // 1.0 for outgoing, 0.0 for incoming
  std::vector<double> in_times, out_times, all_times;
  std::vector<double> in_sizes, out_sizes;
  std::vector<double> out_positions, in_positions;
  std::vector<double> conc, conc30, conc30_alt;
  std::vector<double> bursts, in_bursts;
  std::vector<double> gap_all, gap_in, gap_out, gap_head;
  std::vector<double> sorted_times, pps;
};

/// gaps of ts into g via the pair-difference kernel (independent
/// subtractions — bit-identical to the sequential loop).
void fill_gaps(const std::vector<double>& ts, std::vector<double>& g) {
  g.resize(ts.size() > 1 ? ts.size() - 1 : 0);
  kernels::pair_diffs(ts.data(), ts.size(), g.data());
}

/// The single implementation walked both for names and values. The
/// vectorizable pieces (directional counts, chunk sums, burst thresholds,
/// size bands, inter-arrival gaps) go through kernels::*, all of which are
/// exact, so values are bit-identical to the pre-SIMD scalar loops.
void build(const Trace& trace, FeatureBuilder& fb) {
  thread_local Scratch s;
  const auto& pkts = trace.packets();
  const double n = static_cast<double>(pkts.size());

  s.dir01.clear();
  s.all_times.clear();
  s.in_times.clear();
  s.out_times.clear();
  s.in_sizes.clear();
  s.out_sizes.clear();
  s.dir01.reserve(pkts.size());
  s.all_times.reserve(pkts.size());
  for (const PacketRecord& p : pkts) {
    s.all_times.push_back(p.time);
    if (p.direction > 0) {
      s.dir01.push_back(1.0);
      s.out_times.push_back(p.time);
      s.out_sizes.push_back(static_cast<double>(p.size));
    } else {
      s.dir01.push_back(0.0);
      s.in_times.push_back(p.time);
      s.in_sizes.push_back(static_cast<double>(p.size));
    }
  }

  // ---- 1. Counts and fractions.
  fb.add("count_total", n);
  fb.add("count_in", static_cast<double>(s.in_times.size()));
  fb.add("count_out", static_cast<double>(s.out_times.size()));
  fb.add("frac_in", n > 0 ? static_cast<double>(s.in_times.size()) / n : 0.0);
  fb.add("frac_out", n > 0 ? static_cast<double>(s.out_times.size()) / n : 0.0);

  // ---- 2. First/last 30 packet composition (0/1 sums: exact).
  const std::size_t head = std::min<std::size_t>(30, pkts.size());
  const double head_out = kernels::sum_ints(s.dir01.data(), head);
  fb.add("first30_in", static_cast<double>(head) - head_out);
  fb.add("first30_out", head_out);
  const std::size_t tail = std::min<std::size_t>(30, pkts.size());
  const double tail_out = kernels::sum_ints(s.dir01.data() + (pkts.size() - tail), tail);
  fb.add("last30_in", static_cast<double>(tail) - tail_out);
  fb.add("last30_out", tail_out);

  // ---- 3. Packet ordering: for the i-th outgoing (resp. incoming) packet,
  // its absolute position in the trace.
  s.out_positions.clear();
  s.in_positions.clear();
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    (pkts[i].direction > 0 ? s.out_positions : s.in_positions).push_back(static_cast<double>(i));
  }
  fb.add("order_out_mean", stats::mean(s.out_positions));
  fb.add("order_out_std", stats::stddev(s.out_positions));
  fb.add("order_in_mean", stats::mean(s.in_positions));
  fb.add("order_in_std", stats::stddev(s.in_positions));

  // ---- 4. Concentration of outgoing packets (chunks of 20 packets).
  s.conc.clear();
  for (std::size_t base = 0; base < pkts.size(); base += 20) {
    const std::size_t len = std::min<std::size_t>(20, pkts.size() - base);
    s.conc.push_back(kernels::sum_ints(s.dir01.data() + base, len));
  }
  fb.add_stats("conc20_out", s.conc);
  fb.add("conc20_out_sum", stats::sum(s.conc));

  // Alternative concentration: chunks of 30, decimated (k-FP's "alternative
  // concentration" keeps every other chunk to reduce dimensionality).
  s.conc30.clear();
  for (std::size_t base = 0; base < pkts.size(); base += 30) {
    const std::size_t len = std::min<std::size_t>(30, pkts.size() - base);
    s.conc30.push_back(kernels::sum_ints(s.dir01.data() + base, len));
  }
  s.conc30_alt.clear();
  for (std::size_t i = 0; i < s.conc30.size(); i += 2) s.conc30_alt.push_back(s.conc30[i]);
  fb.add_stats("conc30alt_out", s.conc30_alt);

  // ---- 5. Bursts: maximal runs of consecutive outgoing packets.
  s.bursts.clear();
  double run = 0;
  for (const PacketRecord& p : pkts) {
    if (p.direction > 0) {
      run += 1;
    } else if (run > 0) {
      s.bursts.push_back(run);
      run = 0;
    }
  }
  if (run > 0) s.bursts.push_back(run);
  fb.add("burst_count", static_cast<double>(s.bursts.size()));
  fb.add_stats("burst_len", s.bursts);
  fb.add("burst_gt5",
         static_cast<double>(kernels::count_gt(s.bursts.data(), s.bursts.size(), 5.0)));
  fb.add("burst_gt10",
         static_cast<double>(kernels::count_gt(s.bursts.data(), s.bursts.size(), 10.0)));
  fb.add("burst_gt15",
         static_cast<double>(kernels::count_gt(s.bursts.data(), s.bursts.size(), 15.0)));

  // Incoming bursts as well (download trains are site-specific).
  s.in_bursts.clear();
  run = 0;
  for (const PacketRecord& p : pkts) {
    if (p.direction < 0) {
      run += 1;
    } else if (run > 0) {
      s.in_bursts.push_back(run);
      run = 0;
    }
  }
  if (run > 0) s.in_bursts.push_back(run);
  fb.add("in_burst_count", static_cast<double>(s.in_bursts.size()));
  fb.add_stats("in_burst_len", s.in_bursts);

  // ---- 6. Inter-arrival times: total / in / out.
  fill_gaps(s.all_times, s.gap_all);
  fill_gaps(s.in_times, s.gap_in);
  fill_gaps(s.out_times, s.gap_out);
  fb.add_stats("iat_all", s.gap_all);
  fb.add_stats("iat_in", s.gap_in);
  fb.add_stats("iat_out", s.gap_out);

  // First-20-gap statistics (early-connection behaviour, relevant to the
  // censorship setting where only a prefix is observed).
  s.gap_head.assign(s.gap_all.begin(),
                    s.gap_all.begin() + std::min<std::size_t>(20, s.gap_all.size()));
  fb.add_stats("iat_first20", s.gap_head);

  // ---- 7. Transmission time quantiles. A normalized trace lists its times
  // in order, so they are read in place; only an unordered list is sorted,
  // once for all three quantiles. A NaN time has no place in any order: its
  // list's quantiles are undefined, written as 0 (the empty-list value).
  fb.add("time_total", trace.duration());
  const auto in_order = [](const std::vector<double>& ts) -> std::span<const double> {
    std::size_t i = 1;
    while (i < ts.size() && ts[i - 1] <= ts[i]) ++i;
    if (i >= ts.size()) return ts;
    if (std::any_of(ts.begin(), ts.end(), [](double t) { return std::isnan(t); })) return {};
    s.sorted_times.assign(ts.begin(), ts.end());
    std::sort(s.sorted_times.begin(), s.sorted_times.end());
    return s.sorted_times;
  };
  for (const auto& [ts, q25, q50, q75] :
       {std::tuple{&s.all_times, "time_q25_all", "time_q50_all", "time_q75_all"},
        std::tuple{&s.in_times, "time_q25_in", "time_q50_in", "time_q75_in"},
        std::tuple{&s.out_times, "time_q25_out", "time_q50_out", "time_q75_out"}}) {
    const std::span<const double> sorted = in_order(*ts);
    fb.add(q25, stats::percentile_sorted(sorted, 25.0));
    fb.add(q50, stats::percentile_sorted(sorted, 50.0));
    fb.add(q75, stats::percentile_sorted(sorted, 75.0));
  }

  // ---- 8. Packets per second over whole-second buckets [0, 120). A time
  // outside (-1, 120), NaN included, lands in no bucket: casting it to an
  // index would be undefined.
  s.pps.clear();
  if (!s.all_times.empty()) {
    const double last = s.all_times.back();
    s.pps.assign(last >= 119.0 ? 120 : last > -1.0 ? static_cast<std::size_t>(last) + 1 : 0,
                 0.0);
    for (double t : s.all_times) {
      if (t > -1.0 && t < static_cast<double>(s.pps.size())) {
        s.pps[static_cast<std::size_t>(t)] += 1.0;
      }
    }
  }
  fb.add_stats("pps", s.pps);
  fb.add("pps_sum", stats::sum(s.pps));

  // ---- 9. Volume (sizes are visible to the adversary even under TLS).
  fb.add("bytes_total", static_cast<double>(trace.total_bytes()));
  fb.add("bytes_in", static_cast<double>(trace.incoming_bytes()));
  fb.add("bytes_out", static_cast<double>(trace.outgoing_bytes()));
  fb.add_stats("size_in", s.in_sizes);
  fb.add_stats("size_out", s.out_sizes);

  // Size histogram coarse shape: share of incoming packets in size bands.
  double in_small = 0, in_mid = 0, in_full = 0;
  kernels::band_counts(s.in_sizes.data(), s.in_sizes.size(), 600.0, 1400.0, &in_small, &in_mid,
                       &in_full);
  const double in_n = std::max<double>(1.0, static_cast<double>(s.in_sizes.size()));
  fb.add("in_size_frac_small", in_small / in_n);
  fb.add("in_size_frac_mid", in_mid / in_n);
  fb.add("in_size_frac_full", in_full / in_n);

  // ---- 10. Cumulative byte milestones: time to reach fractions of the
  // total download (robust early-trace features).
  const double total_in_bytes = static_cast<double>(trace.incoming_bytes());
  for (double frac : {0.25, 0.5, 0.75}) {
    double reached = 0.0;
    double acc = 0.0;
    for (const PacketRecord& p : pkts) {
      if (p.direction < 0) {
        acc += static_cast<double>(p.size);
        if (total_in_bytes > 0 && acc >= frac * total_in_bytes) {
          reached = p.time;
          break;
        }
      }
    }
    if (fb.collecting_names()) {
      fb.add("time_to_in_frac_" + std::to_string(static_cast<int>(frac * 100)), reached);
    } else {
      fb.add({}, reached);
    }
  }
}

std::vector<std::string> compute_names() {
  std::vector<std::string> names;
  FeatureBuilder fb({});
  fb.collect_names(&names);
  build(Trace{}, fb);
  return names;
}

}  // namespace

const std::vector<std::string>& kfp_feature_names() {
  static const std::vector<std::string> names = compute_names();
  return names;
}

std::size_t kfp_feature_count() { return kfp_feature_names().size(); }

std::vector<double> kfp_features(const Trace& trace) {
  std::vector<double> out(kfp_feature_count(), 0.0);
  FeatureBuilder fb(out);
  build(trace, fb);
  return out;
}

void kfp_features_into(const Trace& trace, std::span<double> out) {
  FeatureBuilder fb(out);
  build(trace, fb);
}

FeatureMatrix kfp_features(std::size_t rows,
                           const std::function<const Trace&(std::size_t)>& trace_at,
                           std::size_t jobs) {
  FeatureMatrix m(rows, kfp_feature_count());
  // Rows are independent and each starts on its own cache line, so blocks
  // of them fill in parallel with no sharing; blocks (not one job per row)
  // keep the pool's per-job cost, and a profile's job spans, few.
  constexpr std::size_t kBlockRows = 32;
  exp::run_ordered<char>((rows + kBlockRows - 1) / kBlockRows, jobs, [&](std::size_t b) {
    const std::size_t end = std::min(rows, (b + 1) * kBlockRows);
    for (std::size_t r = b * kBlockRows; r < end; ++r) kfp_features_into(trace_at(r), m.row(r));
    return char{};
  });
  return m;
}

FeatureMatrix kfp_features(const Dataset& dataset, std::size_t jobs) {
  return kfp_features(
      dataset.size(), [&dataset](std::size_t i) -> const Trace& { return dataset.trace(i); },
      jobs);
}

}  // namespace stob::wf
