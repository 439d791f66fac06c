#include "wf/features.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "exp/worker_pool.hpp"
#include "util/stats.hpp"

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
void select_ranks(std::span<double> a, std::size_t& done, std::size_t k) {
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

  /// Summary-statistic bundle over a value list (mean, std, min, max,
  /// median, p75); returns the list's sum. Two passes in list order, whose
  /// rounding depends on it: the sum with min, max and a NaN check, then
  /// the variance around the mean that sum gives. The quantiles then come
  /// from selecting, in place, the two ranks percentile_sorted() blends,
  /// which yields the values a sort would. So `xs` is left permuted:
  /// callers read whatever needs its order first. A list holding a NaN has
  /// no order, so its order statistics are undefined and written as 0 like
  /// any non-finite feature.
  double add_stats(std::string_view prefix, std::span<double> xs) {
    double sum = 0.0, lo = 0.0, hi = 0.0, median = 0.0, p75 = 0.0;
    bool nan = false;
    if (!xs.empty()) lo = hi = xs[0];
    for (double x : xs) {
      sum += x;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      nan |= std::isnan(x);
    }
    const double mean = xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
    add2(prefix, "_mean", mean);
    add2(prefix, "_std", std::sqrt(stats::variance(xs, mean)));
    if (nan) {
      lo = hi = median = p75 = std::numeric_limits<double>::quiet_NaN();
    } else if (!xs.empty()) {
      std::size_t done = 0;
      select_ranks(xs, done, rank_below(xs.size(), 50.0));
      select_ranks(xs, done, rank_below(xs.size(), 75.0));
      // percentile_sorted reads only the two ranks placed above.
      median = stats::percentile_sorted(xs, 50.0);
      p75 = stats::percentile_sorted(xs, 75.0);
    }
    add2(prefix, "_min", lo);
    add2(prefix, "_max", hi);
    add2(prefix, "_median", median);
    add2(prefix, "_p75", p75);
    return sum;
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

/// Per-thread extraction scratch. A feature pass calls build() once per
/// trace; reusing these buffers (capacity survives resize()) removes ~16
/// heap allocations per trace from the hot path.
struct Scratch {
  std::vector<double> dir01;  // 1.0 for outgoing, 0.0 otherwise
  std::vector<double> all_times, in_times, out_times;
  std::vector<double> in_sizes, out_sizes;
  std::vector<double> bursts, in_bursts;
  std::vector<double> conc, conc30_alt;
  std::vector<double> gap_all, gap_in, gap_out, gap_head;
  std::vector<double> sorted_times, pps;
};

/// Gaps of ts into g: g[i] = ts[i+1] - ts[i].
void fill_gaps(const std::vector<double>& ts, std::vector<double>& g) {
  g.resize(ts.size() > 1 ? ts.size() - 1 : 0);
  for (std::size_t i = 1; i < ts.size(); ++i) g[i - 1] = ts[i] - ts[i - 1];
}

/// Sum of n integer-valued doubles (0/1 direction indicators) in order.
double sum_ints(const double* xs, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += xs[i];
  return s;
}

/// What the classification pass totals besides its lists.
struct PassTotals {
  std::int64_t bytes_total = 0, bytes_in = 0, bytes_out = 0;
  double pos_sum_out = 0.0, pos_sum_in = 0.0;  ///< packet indices, per direction
  bool ordered = true;                         ///< times non-decreasing, no NaN
};

/// The one pass over the packets. Outgoing means direction > 0; every
/// other packet, direction 0 included, joins the incoming lists and
/// position sum, while an incoming burst and the incoming bytes count
/// direction < 0 only. Each list is sized to its exact length plus one
/// slot and written at its cursor for every packet, and a cursor moves only
/// past a packet that belongs to its list, so the loop has no
/// data-dependent branch; a burst length is written on every packet and
/// kept where its run ends.
PassTotals classify(const std::vector<PacketRecord>& pkts, Scratch& s) {
  const std::size_t n = pkts.size();
  std::size_t n_out = 0;
  for (const PacketRecord& p : pkts) n_out += p.direction > 0 ? 1 : 0;
  const std::size_t n_in = n - n_out;
  s.dir01.resize(n);
  s.all_times.resize(n);
  for (std::vector<double>* v : {&s.out_times, &s.out_sizes, &s.bursts}) v->resize(n_out + 1);
  for (std::vector<double>* v : {&s.in_times, &s.in_sizes, &s.in_bursts}) v->resize(n_in + 1);

  PassTotals tot;
  // Unsigned sums wrap where a hostile trace's int64 sizes would overflow.
  // Flags are 0/1 integers and every choice is arithmetic on them (signed
  // counters convert to double in one instruction).
  std::uint64_t bytes_total = 0, bytes_in = 0, bytes_out = 0;
  std::int64_t no = 0, ni = 0, nb = 0, nib = 0, run = 0, in_run = 0;
  double prev = -std::numeric_limits<double>::infinity();
  double* const all_times = s.all_times.data();
  double* const dir01 = s.dir01.data();
  double* const out_times = s.out_times.data();
  double* const out_sizes = s.out_sizes.data();
  double* const in_times = s.in_times.data();
  double* const in_sizes = s.in_sizes.data();
  double* const bursts = s.bursts.data();
  double* const in_bursts = s.in_bursts.data();
  for (std::size_t i = 0; i < n; ++i) {
    const PacketRecord& p = pkts[i];
    const std::int64_t out = p.direction > 0;
    const std::int64_t inc = p.direction < 0;
    const double pos = static_cast<double>(static_cast<std::int64_t>(i));
    const double size = static_cast<double>(p.size);
    const double dir = static_cast<double>(out);
    all_times[i] = p.time;
    dir01[i] = dir;
    // The other direction's packets add an exact +0.0 to each sum.
    tot.pos_sum_out += pos * dir;
    tot.pos_sum_in += pos * (1.0 - dir);
    out_times[no] = p.time;
    out_sizes[no] = size;
    in_times[ni] = p.time;
    in_sizes[ni] = size;
    no += out;
    ni += 1 - out;
    bursts[nb] = static_cast<double>(run);
    nb += (1 - out) & static_cast<std::int64_t>(run != 0);
    run = (run + 1) & -out;
    in_bursts[nib] = static_cast<double>(in_run);
    nib += (1 - inc) & static_cast<std::int64_t>(in_run != 0);
    in_run = (in_run + 1) & -inc;
    const auto bytes = static_cast<std::uint64_t>(p.size);
    bytes_total += bytes;
    bytes_in += bytes & (0 - static_cast<std::uint64_t>(inc));
    bytes_out += bytes & (0 - static_cast<std::uint64_t>(out));
    tot.ordered &= prev <= p.time;
    prev = p.time;
  }
  if (run > 0) bursts[nb++] = static_cast<double>(run);
  if (in_run > 0) in_bursts[nib++] = static_cast<double>(in_run);
  for (std::vector<double>* v : {&s.out_times, &s.out_sizes}) v->resize(n_out);
  for (std::vector<double>* v : {&s.in_times, &s.in_sizes}) v->resize(n_in);
  s.bursts.resize(static_cast<std::size_t>(nb));
  s.in_bursts.resize(static_cast<std::size_t>(nib));
  tot.bytes_total = static_cast<std::int64_t>(bytes_total);
  tot.bytes_in = static_cast<std::int64_t>(bytes_in);
  tot.bytes_out = static_cast<std::int64_t>(bytes_out);
  return tot;
}

/// The single implementation walked both for names and values.
void build(const Trace& trace, FeatureBuilder& fb) {
  thread_local Scratch s;
  const auto& pkts = trace.packets();
  const double n = static_cast<double>(pkts.size());
  const PassTotals tot = classify(pkts, s);

  // ---- 1. Counts and fractions.
  fb.add("count_total", n);
  fb.add("count_in", static_cast<double>(s.in_times.size()));
  fb.add("count_out", static_cast<double>(s.out_times.size()));
  fb.add("frac_in", n > 0 ? static_cast<double>(s.in_times.size()) / n : 0.0);
  fb.add("frac_out", n > 0 ? static_cast<double>(s.out_times.size()) / n : 0.0);

  // ---- 2. First/last 30 packet composition (0/1 sums: exact).
  const std::size_t head = std::min<std::size_t>(30, pkts.size());
  const double head_out = sum_ints(s.dir01.data(), head);
  fb.add("first30_in", static_cast<double>(head) - head_out);
  fb.add("first30_out", head_out);
  const std::size_t tail = std::min<std::size_t>(30, pkts.size());
  const double tail_out = sum_ints(s.dir01.data() + (pkts.size() - tail), tail);
  fb.add("last30_in", static_cast<double>(tail) - tail_out);
  fb.add("last30_out", tail_out);

  // ---- 3. Packet ordering: for the i-th outgoing (resp. incoming) packet,
  // its absolute position in the trace; mean and sample stddev of each
  // direction's positions. One walk over the direction indicators sums
  // both squared deviations in packet order, and a packet of the other
  // direction adds an exact +0.0, so each is the bits of a sum over its own
  // direction's positions alone.
  const auto n_out = static_cast<double>(s.out_times.size());
  const auto n_in = static_cast<double>(s.in_times.size());
  const double out_mean = n_out > 0 ? tot.pos_sum_out / n_out : 0.0;
  const double in_mean = n_in > 0 ? tot.pos_sum_in / n_in : 0.0;
  double out_dev = 0.0, in_dev = 0.0;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const double pos = static_cast<double>(static_cast<std::int64_t>(i));
    out_dev += s.dir01[i] * ((pos - out_mean) * (pos - out_mean));
    in_dev += (1.0 - s.dir01[i]) * ((pos - in_mean) * (pos - in_mean));
  }
  fb.add("order_out_mean", out_mean);
  fb.add("order_out_std", n_out > 1 ? std::sqrt(out_dev / (n_out - 1)) : 0.0);
  fb.add("order_in_mean", in_mean);
  fb.add("order_in_std", n_in > 1 ? std::sqrt(in_dev / (n_in - 1)) : 0.0);

  // ---- 4. Concentration of outgoing packets (chunks of 20 packets).
  s.conc.clear();
  for (std::size_t base = 0; base < pkts.size(); base += 20) {
    const std::size_t len = std::min<std::size_t>(20, pkts.size() - base);
    s.conc.push_back(sum_ints(s.dir01.data() + base, len));
  }
  fb.add("conc20_out_sum", fb.add_stats("conc20_out", s.conc));

  // Alternative concentration: chunks of 30, decimated (k-FP's "alternative
  // concentration" keeps every other chunk to reduce dimensionality).
  s.conc30_alt.clear();
  for (std::size_t base = 0; base < pkts.size(); base += 60) {
    const std::size_t len = std::min<std::size_t>(30, pkts.size() - base);
    s.conc30_alt.push_back(sum_ints(s.dir01.data() + base, len));
  }
  fb.add_stats("conc30alt_out", s.conc30_alt);

  // ---- 5. Bursts: maximal runs of consecutive outgoing packets, counted
  // past each threshold before add_stats reorders them.
  const auto bursts_over = [](double thr) {
    std::size_t c = 0;
    for (double b : s.bursts) c += b > thr;
    return static_cast<double>(c);
  };
  const double gt5 = bursts_over(5.0), gt10 = bursts_over(10.0), gt15 = bursts_over(15.0);
  fb.add("burst_count", static_cast<double>(s.bursts.size()));
  fb.add_stats("burst_len", s.bursts);
  fb.add("burst_gt5", gt5);
  fb.add("burst_gt10", gt10);
  fb.add("burst_gt15", gt15);

  // Incoming bursts as well (download trains are site-specific).
  fb.add("in_burst_count", static_cast<double>(s.in_bursts.size()));
  fb.add_stats("in_burst_len", s.in_bursts);

  // ---- 6. Inter-arrival times: total / in / out.
  fill_gaps(s.all_times, s.gap_all);
  fill_gaps(s.in_times, s.gap_in);
  fill_gaps(s.out_times, s.gap_out);
  // First-20-gap statistics (early-connection behaviour, relevant to the
  // censorship setting where only a prefix is observed), copied out before
  // add_stats reorders the gaps.
  s.gap_head.assign(s.gap_all.begin(),
                    s.gap_all.begin() + std::min<std::size_t>(20, s.gap_all.size()));
  fb.add_stats("iat_all", s.gap_all);
  fb.add_stats("iat_in", s.gap_in);
  fb.add_stats("iat_out", s.gap_out);
  fb.add_stats("iat_first20", s.gap_head);

  // ---- 7. Transmission time quantiles. A normalized trace lists its times
  // in order (the pass saw every time in order, so each list is), and they
  // are read in place; only an unordered list is sorted, once for all three
  // quantiles. A NaN time has no place in any order: its list's quantiles
  // are undefined, written as 0 (the empty-list value).
  fb.add("time_total", trace.duration());
  const auto in_order = [&tot](const std::vector<double>& ts) -> std::span<const double> {
    if (tot.ordered) return ts;
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

  // ---- 8. Packets per second over whole-second buckets [0, 120), up to
  // the last packet's. A time outside (-1, 120), NaN included, lands in no
  // bucket: casting it to an index would be undefined. So does any time
  // when the last one leaves no bucket at all. Consecutive times mostly
  // share a bucket, so a run is counted in a register and added once
  // (integer counts: exact in any grouping).
  s.pps.clear();
  if (!s.all_times.empty()) {
    const double last = s.all_times.back();
    s.pps.assign(last >= 119.0 ? 120 : last > -1.0 ? static_cast<std::size_t>(last) + 1 : 0,
                 0.0);
  }
  if (!s.pps.empty()) {
    std::size_t bucket = 0;
    double count = 0.0;
    for (double t : s.all_times) {
      if (!(t > -1.0 && t < static_cast<double>(s.pps.size()))) continue;
      const auto b = static_cast<std::size_t>(t);
      if (b != bucket) {
        s.pps[bucket] += count;
        bucket = b;
        count = 0.0;
      }
      count += 1.0;
    }
    s.pps[bucket] += count;
  }
  fb.add("pps_sum", fb.add_stats("pps", s.pps));

  // ---- 9. Volume (sizes are visible to the adversary even under TLS). The
  // size bands are counted before add_stats reorders the incoming sizes.
  double in_small = 0, in_mid = 0, in_full = 0;
  for (double size : s.in_sizes) {
    if (size < 600.0) {
      in_small += 1;
    } else if (size < 1400.0) {
      in_mid += 1;
    } else {
      in_full += 1;
    }
  }
  const double in_n = std::max<double>(1.0, static_cast<double>(s.in_sizes.size()));
  fb.add("bytes_total", static_cast<double>(tot.bytes_total));
  fb.add("bytes_in", static_cast<double>(tot.bytes_in));
  fb.add("bytes_out", static_cast<double>(tot.bytes_out));
  fb.add_stats("size_in", s.in_sizes);
  fb.add_stats("size_out", s.out_sizes);

  // Size histogram coarse shape: share of incoming packets in size bands.
  fb.add("in_size_frac_small", in_small / in_n);
  fb.add("in_size_frac_mid", in_mid / in_n);
  fb.add("in_size_frac_full", in_full / in_n);

  // ---- 10. Cumulative byte milestones: time to reach fractions of the
  // total download (robust early-trace features). One scan serves all
  // three: a running total that reaches a fraction has reached every
  // smaller one, at that packet or before.
  constexpr std::array<double, 3> kFracs = {0.25, 0.5, 0.75};
  std::array<double, 3> reached = {0.0, 0.0, 0.0};
  const double total_in_bytes = static_cast<double>(tot.bytes_in);
  if (total_in_bytes > 0) {
    std::size_t k = 0;
    double acc = 0.0;
    for (std::size_t i = 0; i < pkts.size() && k < kFracs.size(); ++i) {
      if (pkts[i].direction >= 0) continue;
      acc += static_cast<double>(pkts[i].size);
      while (k < kFracs.size() && acc >= kFracs[k] * total_in_bytes) reached[k++] = pkts[i].time;
    }
  }
  for (std::size_t k = 0; k < kFracs.size(); ++k) {
    if (fb.collecting_names()) {
      fb.add("time_to_in_frac_" + std::to_string(static_cast<int>(kFracs[k] * 100)), reached[k]);
    } else {
      fb.add({}, reached[k]);
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
  if (out.size() != kfp_feature_count()) {
    throw std::invalid_argument("kfp_features_into: span of " + std::to_string(out.size()) +
                                " values, need exactly " + std::to_string(kfp_feature_count()));
  }
  FeatureBuilder fb(out);
  build(trace, fb);
}

FeatureMatrix kfp_features(std::size_t rows,
                           const std::function<const Trace&(std::size_t)>& trace_at,
                           std::size_t jobs) {
  FeatureMatrix m(rows, kfp_feature_count());
  // Rows are independent and each starts on its own cache line, so blocks
  // of them fill in parallel with no sharing; blocks (not one job per row)
  // keep the pool's per-job cost, and a profile's job spans, few. A row
  // costs about kRowCost packets' worth plus its packets, and a dataset's
  // rows (ordered by site) differ ~40x in packets, so blocks are cut to
  // about equal cost, not equal rows: kBlocksPerWorker of them per worker
  // leaves the last block running alone a small share of the whole.
  constexpr std::size_t kRowCost = 16;
  constexpr std::size_t kBlocksPerWorker = 32;
  constexpr std::size_t kMinBlockCost = 4096;
  const auto cost = [&trace_at](std::size_t r) { return trace_at(r).size() + kRowCost; };
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows; ++r) total += cost(r);
  const std::size_t workers = jobs == 0 ? exp::default_jobs() : jobs;
  const std::size_t target = std::max(kMinBlockCost, total / (workers * kBlocksPerWorker));
  std::vector<std::size_t> ends;  // block b holds rows [ends[b - 1], ends[b])
  for (std::size_t r = 0, block = 0; r < rows; ++r) {
    block += cost(r);
    if (block >= target || r + 1 == rows) {
      ends.push_back(r + 1);
      block = 0;
    }
  }
  exp::run_ordered<char>(ends.size(), jobs, [&](std::size_t b) {
    for (std::size_t r = b == 0 ? 0 : ends[b - 1]; r < ends[b]; ++r) {
      kfp_features_into(trace_at(r), m.row(r));
    }
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
