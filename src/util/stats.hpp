// Small descriptive-statistics toolkit used by the WF pipeline (feature
// extraction, dataset sanitisation) and by the benchmark reporters.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace stob::stats {

/// Arithmetic mean; 0 for an empty input.
double mean(std::span<const double> xs);

/// Sample variance (n-1 denominator); 0 for fewer than two samples.
double variance(std::span<const double> xs);

/// The same around a mean the caller already has (mean(xs), bit for bit):
/// one pass instead of two.
double variance(std::span<const double> xs, double mean);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Input need not be sorted.
/// Convention (pinned by tests/test_util.cpp): empty input -> 0; p outside
/// [0, 100] clamps; NaN p -> NaN; p == 0 / p == 100 return the exact min /
/// max element; the interpolation is the "linear" (type 7 / numpy default)
/// rule over rank p/100 * (n-1).
double percentile(std::span<const double> xs, double p);

/// Same interpolation as percentile(), but the input must already be
/// ascending — no copy, no sort. Callers that need several quantiles of
/// one list sort once and reuse.
double percentile_sorted(std::span<const double> xs, double p);

double median(std::span<const double> xs);
double min(std::span<const double> xs);
double max(std::span<const double> xs);
double sum(std::span<const double> xs);

/// Interquartile range (P75 - P25).
double iqr(std::span<const double> xs);

/// Indices of values within [Q1 - k*IQR, Q3 + k*IQR] (Tukey fence). Used by
/// the dataset sanitiser to drop outlier traces, as the paper does with
/// total download size.
std::vector<std::size_t> iqr_inlier_indices(std::span<const double> xs, double k = 1.5);

/// Streaming mean/variance (Welford). Numerically stable, O(1) memory.
class Welford {
 public:
  void add(double x);
  /// Fold another accumulator in (Chan et al. pairwise update). Merging
  /// b into a equals streaming a's samples then b's in aggregate moments,
  /// and merging in a fixed order is deterministic — the experiment
  /// engine's run-level metric aggregation relies on both.
  void merge(const Welford& other);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace stob::stats
