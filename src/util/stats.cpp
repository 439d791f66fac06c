#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace stob::stats {

double sum(std::span<const double> xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return sum(xs) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) { return variance(xs, mean(xs)); }

double variance(std::span<const double> xs, double m) {
  if (xs.size() < 2) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  // std::clamp with a NaN p is UB, and a NaN rank cast to size_t is UB too;
  // make the convention explicit: a non-finite p propagates NaN.
  if (std::isnan(p)) return std::numeric_limits<double>::quiet_NaN();
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // lo == hi at p == 100 (and for single-element inputs); the blend below
  // then returns xs[lo] exactly, with no 0 * inf pitfalls since frac == 0.
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double min(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double iqr(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());  // one sort for both quartiles
  return percentile_sorted(sorted, 75.0) - percentile_sorted(sorted, 25.0);
}

std::vector<std::size_t> iqr_inlier_indices(std::span<const double> xs, double k) {
  std::vector<std::size_t> keep;
  if (xs.empty()) return keep;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double q1 = percentile_sorted(sorted, 25.0);
  const double q3 = percentile_sorted(sorted, 75.0);
  const double fence = k * (q3 - q1);
  const double lo = q1 - fence;
  const double hi = q3 + fence;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] >= lo && xs[i] <= hi) keep.push_back(i);
  }
  return keep;
}

void Welford::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Welford::merge(const Welford& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double n = na + nb;
  mean_ += delta * (nb / n);
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  n_ += other.n_;
}

double Welford::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const { return std::sqrt(variance()); }

}  // namespace stob::stats
