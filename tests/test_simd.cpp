// Scalar vs dispatched kernel parity for the WF attack engine.
//
// Every SIMD kernel in wf/simd_kernels.hpp is exact by construction
// (compares, integer counting, independent subtractions, integer-valued
// sums), so this suite asserts EXPECT_EQ — bit-identical outputs, never
// EXPECT_NEAR. On an AVX2 machine these tests pit the vector paths against
// the scalar reference; on the forced-scalar CI leg (-DSTOB_SIMD=OFF or
// STOB_SIMD=off) both sides resolve to the scalar path and the suite
// degenerates to a self-consistency check, which is the intended behavior.
//
// The forest descent has no SIMD variant; its blocked 4-lane kernel is
// checked against a naive recursive walk instead. Also pins the
// FeatureMatrix alignment contract the vector kernels depend on: 64-byte
// row starts and an 8-double-multiple stride.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"
#include "wf/feature_matrix.hpp"
#include "wf/forest_layout.hpp"
#include "wf/simd_kernels.hpp"

namespace {

using namespace stob;
using namespace stob::wf;

// ------------------------------------------------------------ test forest

/// Append a random complete tree of `depth` to `pool`, returning its root
/// index. Kid indices are absolute (pool-wide), matching the real flattened
/// forest layout.
std::uint32_t build_tree(std::vector<FlatNode>& pool, Rng& rng, int depth, int features) {
  const auto idx = static_cast<std::uint32_t>(pool.size());
  pool.push_back({});
  if (depth == 0) {
    pool[idx].feature = -1;
    pool[idx].kid[0] = idx;      // distribution offset (unused by descent)
    pool[idx].kid[1] = idx % 7;  // majority class (unused by descent)
    return idx;
  }
  pool[idx].feature = static_cast<std::int32_t>(rng.next() % features);
  pool[idx].threshold = rng.normal(0.0, 1.0);
  const std::uint32_t left = build_tree(pool, rng, depth - 1, features);
  const std::uint32_t right = build_tree(pool, rng, depth - 1, features);
  pool[idx].kid[0] = left;
  pool[idx].kid[1] = right;
  return idx;
}

/// Naive recursive descent: the reference the blocked kernel must match.
/// `x <= thr` is false for a NaN feature, which therefore goes to kid[1].
std::uint32_t descend_reference(const std::vector<FlatNode>& pool, std::uint32_t node,
                                const double* row) {
  const FlatNode& nd = pool[node];
  if (nd.feature < 0) return node;
  return descend_reference(pool, row[nd.feature] <= nd.threshold ? nd.kid[0] : nd.kid[1], row);
}

TEST(SimdDispatch, LevelIsStableAndNamed) {
  const simd::Level first = simd::active_level();
  EXPECT_EQ(first, simd::active_level());
  EXPECT_NE(simd::level_name(first), nullptr);
}

TEST(SimdKernels, DescendBlockMatchesRecursiveWalk) {
  Rng rng(0xDE5CEull);
  const int features = 17;
  std::vector<FlatNode> pool;
  std::vector<std::uint32_t> roots;
  for (int depth : {0, 1, 3, 6}) roots.push_back(build_tree(pool, rng, depth, features));

  // Block sizes around the 4-lane width, including ragged tails.
  for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{16}, std::size_t{23}}) {
    const std::size_t stride = 24;  // padded: stride > features
    std::vector<double> x(m * stride, 0.0);
    for (double& v : x) v = rng.normal(0.0, 1.0);
    // NaN features must descend identically (to kid[1]) in both walks.
    if (m > 2) x[1 * stride + 3] = std::numeric_limits<double>::quiet_NaN();
    for (std::uint32_t root : roots) {
      std::vector<std::uint32_t> got(m, 1);
      kernels::descend_block(pool.data(), root, x.data(), stride, m, got.data());
      for (std::size_t r = 0; r < m; ++r) {
        const std::uint32_t ref = descend_reference(pool, root, x.data() + r * stride);
        EXPECT_EQ(ref, got[r]) << "m=" << m << " root=" << root << " row=" << r;
        EXPECT_EQ(pool[ref].feature, -1) << "descent must end on a leaf";
      }
    }
  }
}

TEST(SimdKernels, DescendThresholdTieMatchesRecursiveWalk) {
  // x == threshold exactly: both walks must take the `<=` branch.
  std::vector<FlatNode> pool(3);
  pool[0].feature = 0;
  pool[0].threshold = 1.25;  // exactly representable
  pool[0].kid[0] = 1;
  pool[0].kid[1] = 2;
  pool[1].feature = -1;
  pool[2].feature = -1;
  const double xs[] = {1.25, std::nextafter(1.25, 2.0), std::nextafter(1.25, 0.0)};
  for (double v : xs) {
    std::uint32_t got = 7;
    kernels::descend_block(pool.data(), 0, &v, 1, 1, &got);
    EXPECT_EQ(descend_reference(pool, 0, &v), got) << "x=" << v;
  }
}

TEST(SimdKernels, LeafMatchBlockParity) {
  Rng rng(0x1EAFull);
  for (std::size_t trees : {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{31},
                            std::size_t{32}, std::size_t{100}}) {
    for (std::size_t n_train : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      std::vector<std::uint32_t> train(n_train * trees);
      std::vector<std::uint32_t> query(trees);
      // Small id range so matches actually occur.
      for (auto& v : train) v = static_cast<std::uint32_t>(rng.next() % 4);
      for (auto& v : query) v = static_cast<std::uint32_t>(rng.next() % 4);
      std::vector<int> ref(n_train, -1), got(n_train, -2);
      kernels::leaf_match_block_scalar(train.data(), n_train, trees, query.data(), ref.data());
      kernels::leaf_match_block(train.data(), n_train, trees, query.data(), got.data());
      EXPECT_EQ(ref, got) << "trees=" << trees << " n_train=" << n_train;
    }
  }
}

TEST(SimdKernels, FeatureScanParity) {
  Rng rng(0xFEA75ull);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{33},
                        std::size_t{1000}}) {
    std::vector<double> xs(n);
    for (double& v : xs) v = std::floor(rng.normal(600.0, 500.0));
    // Plant exact boundary values: count_gt is strict, band edges half-open.
    if (n > 4) {
      xs[0] = 5.0;
      xs[1] = 600.0;
      xs[2] = 1400.0;
      xs[3] = -0.0;
    }

    std::vector<double> dref(n > 0 ? n - 1 : 0, -1.0), dgot(n > 0 ? n - 1 : 0, -2.0);
    kernels::pair_diffs_scalar(xs.data(), n, dref.data());
    kernels::pair_diffs(xs.data(), n, dgot.data());
    EXPECT_EQ(dref, dgot) << "pair_diffs n=" << n;

    for (double thr : {5.0, 600.0, -1.0}) {
      EXPECT_EQ(kernels::count_gt_scalar(xs.data(), n, thr), kernels::count_gt(xs.data(), n, thr))
          << "count_gt n=" << n << " thr=" << thr;
    }

    EXPECT_EQ(kernels::sum_ints_scalar(xs.data(), n), kernels::sum_ints(xs.data(), n))
        << "sum_ints n=" << n;

    double b0 = -1, m0 = -1, a0 = -1, b1 = -2, m1 = -2, a1 = -2;
    kernels::band_counts_scalar(xs.data(), n, 600.0, 1400.0, &b0, &m0, &a0);
    kernels::band_counts(xs.data(), n, 600.0, 1400.0, &b1, &m1, &a1);
    EXPECT_EQ(b0, b1) << "band below n=" << n;
    EXPECT_EQ(m0, m1) << "band mid n=" << n;
    EXPECT_EQ(a0, a1) << "band above n=" << n;
    EXPECT_EQ(b0 + m0 + a0, static_cast<double>(n));
  }
}

// ------------------------------------------------ FeatureMatrix alignment

TEST(FeatureMatrixAlignment, RowsStartOnCacheLines) {
  for (std::size_t cols : {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{150},
                           std::size_t{175}}) {
    FeatureMatrix x(5, cols);
    EXPECT_EQ(x.row_stride() % 8, 0u) << "stride must be a whole AVX-512 vector of doubles";
    EXPECT_GE(x.row_stride(), cols);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const auto addr = reinterpret_cast<std::uintptr_t>(x.row(r).data());
      EXPECT_EQ(addr % FeatureMatrix::kRowAlign, 0u) << "cols=" << cols << " row=" << r;
    }
    // Padding lanes stay zero so raw-storage hashing is deterministic.
    if (x.row_stride() > cols) {
      const double* raw = x.data();
      for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = cols; c < x.row_stride(); ++c) {
          EXPECT_EQ(raw[r * x.row_stride() + c], 0.0);
        }
      }
    }
  }
}

TEST(FeatureMatrixAlignment, AppendGrowsKeepAlignment) {
  FeatureMatrix x;
  std::vector<double> row(11, 1.5);
  for (int i = 0; i < 100; ++i) x.append_row(row);
  EXPECT_EQ(x.rows(), 100u);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(x.row(r).data()) % FeatureMatrix::kRowAlign, 0u);
  }
}

}  // namespace
