#include "wf/simd_kernels.hpp"

#include "util/simd.hpp"

#if !defined(STOB_SIMD_DISABLED) && (defined(__x86_64__) || defined(__i386__))
#define STOB_KERNELS_AVX2 1
#include <immintrin.h>
#endif
#if !defined(STOB_SIMD_DISABLED) && defined(__aarch64__) && defined(__ARM_NEON)
#define STOB_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace stob::wf::kernels {

// ------------------------------------------------------- forest descent

namespace {

inline std::uint32_t descend_one(const FlatNode* nodes, std::uint32_t root, const double* x) {
  std::uint32_t cur = root;
  while (nodes[cur].feature >= 0) {
    const FlatNode& nd = nodes[cur];
    cur = nd.kid[!(x[static_cast<std::size_t>(nd.feature)] <= nd.threshold)];
  }
  return cur;
}

}  // namespace

void descend_block(const FlatNode* nodes, std::uint32_t root, const double* x,
                   std::size_t stride, std::size_t m, std::uint32_t* leaves) {
  // One branch-free level step for one lane; a lane already at its leaf
  // (feature < 0) re-selects the leaf via conditional moves.
  const auto step = [nodes](std::uint32_t c, std::int32_t f, const double* row) {
    const FlatNode& nd = nodes[c];
    const std::size_t i = f < 0 ? 0 : static_cast<std::size_t>(f);
    const std::uint32_t next = nd.kid[!(row[i] <= nd.threshold)];
    return f < 0 ? c : next;
  };
  // Four lanes in flight: their dependent node loads overlap instead of
  // serializing, and the group exits once all four reached a leaf (max of
  // four path lengths, not tree depth).
  std::size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    std::uint32_t c0 = root, c1 = root, c2 = root, c3 = root;
    const double* x0 = x + r * stride;
    const double* x1 = x0 + stride;
    const double* x2 = x1 + stride;
    const double* x3 = x2 + stride;
    while (true) {
      const std::int32_t f0 = nodes[c0].feature;
      const std::int32_t f1 = nodes[c1].feature;
      const std::int32_t f2 = nodes[c2].feature;
      const std::int32_t f3 = nodes[c3].feature;
      if ((f0 & f1 & f2 & f3) < 0) break;  // all four at leaves
      c0 = step(c0, f0, x0);
      c1 = step(c1, f1, x1);
      c2 = step(c2, f2, x2);
      c3 = step(c3, f3, x3);
    }
    leaves[r] = c0;
    leaves[r + 1] = c1;
    leaves[r + 2] = c2;
    leaves[r + 3] = c3;
  }
  for (; r < m; ++r) leaves[r] = descend_one(nodes, root, x + r * stride);
}

// ------------------------------------------------- leaf-agreement counts

void leaf_match_block_scalar(const std::uint32_t* train, std::size_t n_train,
                             std::size_t trees, const std::uint32_t* query, int* counts) {
  for (std::size_t i = 0; i < n_train; ++i) {
    const std::uint32_t* row = train + i * trees;
    int c = 0;
    for (std::size_t t = 0; t < trees; ++t) c += static_cast<int>(row[t] == query[t]);
    counts[i] = c;
  }
}

#if STOB_KERNELS_AVX2

__attribute__((target("avx2"))) void leaf_match_block_avx2(const std::uint32_t* train,
                                                           std::size_t n_train,
                                                           std::size_t trees,
                                                           const std::uint32_t* query,
                                                           int* counts) {
  for (std::size_t i = 0; i < n_train; ++i) {
    const std::uint32_t* row = train + i * trees;
    __m256i acc = _mm256_setzero_si256();
    std::size_t t = 0;
    for (; t + 8 <= trees; t += 8) {
      const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + t));
      const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + t));
      // cmpeq lanes are -1 on match; subtracting adds 1 per match.
      acc = _mm256_sub_epi32(acc, _mm256_cmpeq_epi32(a, b));
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    int c = _mm_cvtsi128_si32(s);
    for (; t < trees; ++t) c += static_cast<int>(row[t] == query[t]);
    counts[i] = c;
  }
}

#endif

#if STOB_KERNELS_NEON

void leaf_match_block_neon(const std::uint32_t* train, std::size_t n_train, std::size_t trees,
                           const std::uint32_t* query, int* counts) {
  for (std::size_t i = 0; i < n_train; ++i) {
    const std::uint32_t* row = train + i * trees;
    uint32x4_t acc = vdupq_n_u32(0);
    std::size_t t = 0;
    for (; t + 4 <= trees; t += 4) {
      acc = vsubq_u32(acc, vceqq_u32(vld1q_u32(row + t), vld1q_u32(query + t)));
    }
    int c = static_cast<int>(vaddvq_u32(acc));
    for (; t < trees; ++t) c += static_cast<int>(row[t] == query[t]);
    counts[i] = c;
  }
}

#endif

void leaf_match_block(const std::uint32_t* train, std::size_t n_train, std::size_t trees,
                      const std::uint32_t* query, int* counts) {
#if STOB_KERNELS_AVX2
  if (simd::active_level() == simd::Level::Avx2) {
    leaf_match_block_avx2(train, n_train, trees, query, counts);
    return;
  }
#endif
#if STOB_KERNELS_NEON
  if (simd::active_level() == simd::Level::Neon) {
    leaf_match_block_neon(train, n_train, trees, query, counts);
    return;
  }
#endif
  leaf_match_block_scalar(train, n_train, trees, query, counts);
}

// ------------------------------------------------- feature-scan kernels

void pair_diffs_scalar(const double* xs, std::size_t n, double* out) {
  for (std::size_t i = 1; i < n; ++i) out[i - 1] = xs[i] - xs[i - 1];
}

std::size_t count_gt_scalar(const double* xs, std::size_t n, double thr) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += xs[i] > thr;
  return c;
}

double sum_ints_scalar(const double* xs, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += xs[i];
  return s;
}

void band_counts_scalar(const double* xs, std::size_t n, double lo, double hi, double* below,
                        double* mid, double* above) {
  double b = 0, m = 0, a = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i] < lo) {
      b += 1;
    } else if (xs[i] < hi) {
      m += 1;
    } else {
      a += 1;
    }
  }
  *below = b;
  *mid = m;
  *above = a;
}

#if STOB_KERNELS_AVX2

__attribute__((target("avx2"))) void pair_diffs_avx2(const double* xs, std::size_t n,
                                                     double* out) {
  if (n < 2) return;
  const std::size_t diffs = n - 1;
  std::size_t i = 0;
  for (; i + 4 <= diffs; i += 4) {
    const __m256d hi = _mm256_loadu_pd(xs + i + 1);
    const __m256d lo = _mm256_loadu_pd(xs + i);
    _mm256_storeu_pd(out + i, _mm256_sub_pd(hi, lo));
  }
  for (; i < diffs; ++i) out[i] = xs[i + 1] - xs[i];
}

__attribute__((target("avx2"))) std::size_t count_gt_avx2(const double* xs, std::size_t n,
                                                          double thr) {
  const __m256d t = _mm256_set1_pd(thr);
  std::size_t c = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gt = _mm256_cmp_pd(_mm256_loadu_pd(xs + i), t, _CMP_GT_OQ);
    c += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(gt))));
  }
  for (; i < n; ++i) c += xs[i] > thr;
  return c;
}

// Exact only because the inputs are integer-valued (0/1 indicators, packet
// counts): integer sums below 2^53 do not round, so lane order is free.
__attribute__((target("avx2"))) double sum_ints_avx2(const double* xs, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(xs + i));
  const __m128d half = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  double s = _mm_cvtsd_f64(_mm_add_sd(half, _mm_unpackhi_pd(half, half)));
  for (; i < n; ++i) s += xs[i];
  return s;
}

__attribute__((target("avx2"))) void band_counts_avx2(const double* xs, std::size_t n,
                                                      double lo, double hi, double* below,
                                                      double* mid, double* above) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  std::size_t lt_lo = 0, lt_hi = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(xs + i);
    lt_lo += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(v, vlo, _CMP_LT_OQ)))));
    lt_hi += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(v, vhi, _CMP_LT_OQ)))));
  }
  for (; i < n; ++i) {
    lt_lo += xs[i] < lo;
    lt_hi += xs[i] < hi;
  }
  *below = static_cast<double>(lt_lo);
  *mid = static_cast<double>(lt_hi - lt_lo);
  *above = static_cast<double>(n - lt_hi);
}

#endif  // STOB_KERNELS_AVX2

#if STOB_KERNELS_NEON

void pair_diffs_neon(const double* xs, std::size_t n, double* out) {
  if (n < 2) return;
  const std::size_t diffs = n - 1;
  std::size_t i = 0;
  for (; i + 2 <= diffs; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(xs + i + 1), vld1q_f64(xs + i)));
  }
  for (; i < diffs; ++i) out[i] = xs[i + 1] - xs[i];
}

std::size_t count_gt_neon(const double* xs, std::size_t n, double thr) {
  const float64x2_t t = vdupq_n_f64(thr);
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vsubq_u64(acc, vcgtq_f64(vld1q_f64(xs + i), t));
  std::size_t c = static_cast<std::size_t>(vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1));
  for (; i < n; ++i) c += xs[i] > thr;
  return c;
}

double sum_ints_neon(const double* xs, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vaddq_f64(acc, vld1q_f64(xs + i));
  double s = vaddvq_f64(acc);
  for (; i < n; ++i) s += xs[i];
  return s;
}

void band_counts_neon(const double* xs, std::size_t n, double lo, double hi, double* below,
                      double* mid, double* above) {
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  uint64x2_t acc_lo = vdupq_n_u64(0), acc_hi = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(xs + i);
    acc_lo = vsubq_u64(acc_lo, vcltq_f64(v, vlo));
    acc_hi = vsubq_u64(acc_hi, vcltq_f64(v, vhi));
  }
  std::size_t lt_lo =
      static_cast<std::size_t>(vgetq_lane_u64(acc_lo, 0) + vgetq_lane_u64(acc_lo, 1));
  std::size_t lt_hi =
      static_cast<std::size_t>(vgetq_lane_u64(acc_hi, 0) + vgetq_lane_u64(acc_hi, 1));
  for (; i < n; ++i) {
    lt_lo += xs[i] < lo;
    lt_hi += xs[i] < hi;
  }
  *below = static_cast<double>(lt_lo);
  *mid = static_cast<double>(lt_hi - lt_lo);
  *above = static_cast<double>(n - lt_hi);
}

#endif  // STOB_KERNELS_NEON

void pair_diffs(const double* xs, std::size_t n, double* out) {
#if STOB_KERNELS_AVX2
  if (simd::active_level() == simd::Level::Avx2) return pair_diffs_avx2(xs, n, out);
#endif
#if STOB_KERNELS_NEON
  if (simd::active_level() == simd::Level::Neon) return pair_diffs_neon(xs, n, out);
#endif
  pair_diffs_scalar(xs, n, out);
}

std::size_t count_gt(const double* xs, std::size_t n, double thr) {
#if STOB_KERNELS_AVX2
  if (simd::active_level() == simd::Level::Avx2) return count_gt_avx2(xs, n, thr);
#endif
#if STOB_KERNELS_NEON
  if (simd::active_level() == simd::Level::Neon) return count_gt_neon(xs, n, thr);
#endif
  return count_gt_scalar(xs, n, thr);
}

double sum_ints(const double* xs, std::size_t n) {
#if STOB_KERNELS_AVX2
  if (simd::active_level() == simd::Level::Avx2) return sum_ints_avx2(xs, n);
#endif
#if STOB_KERNELS_NEON
  if (simd::active_level() == simd::Level::Neon) return sum_ints_neon(xs, n);
#endif
  return sum_ints_scalar(xs, n);
}

void band_counts(const double* xs, std::size_t n, double lo, double hi, double* below,
                 double* mid, double* above) {
#if STOB_KERNELS_AVX2
  if (simd::active_level() == simd::Level::Avx2) {
    return band_counts_avx2(xs, n, lo, hi, below, mid, above);
  }
#endif
#if STOB_KERNELS_NEON
  if (simd::active_level() == simd::Level::Neon) {
    return band_counts_neon(xs, n, lo, hi, below, mid, above);
  }
#endif
  band_counts_scalar(xs, n, lo, hi, below, mid, above);
}

}  // namespace stob::wf::kernels
