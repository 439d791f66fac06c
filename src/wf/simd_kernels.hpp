// Dispatched hot-loop kernels of the WF attack engine: blocked forest
// descent, leaf-agreement counting, and the vectorizable pieces of k-FP
// feature extraction.
//
// Every vector kernel has a `_scalar` variant (the reference path, always
// compiled, byte-for-byte the pre-SIMD engine) and an undecorated entry
// point that dispatches on simd::active_level(); the forest descent is
// scalar only. All SIMD variants are *exact*: they vectorize only
// comparisons, integer-valued accumulation (counts and 0/1 sums, exact in
// any order below 2^53) and independent subtractions, so scalar and
// dispatched results are bit-identical — the parity suite asserts
// equality, never closeness. Float reductions whose
// rounding depends on accumulation order (feature means/stddevs) stay
// scalar in the original order; see the kernel table in DESIGN.md §17.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wf/forest_layout.hpp"

namespace stob::wf::kernels {

// ------------------------------------------------------- forest descent
//
// Walk one tree (rooted at nodes[root]) for m samples stored row-major at
// x + r*stride, leaving the absolute leaf index of sample r in leaves[r].
// Scalar on every level, with 4 lanes in flight so dependent node loads
// overlap; a NaN feature descends to kid[1] (`!(x <= thr)`). It has no SIMD
// variant: an 8-lane AVX2 gather descent measured slower than these 4
// scalar lanes (gathers are microcoded), so it was deleted.

void descend_block(const FlatNode* nodes, std::uint32_t root, const double* x,
                   std::size_t stride, std::size_t m, std::uint32_t* leaves);

// ------------------------------------------------- leaf-agreement counts
//
// counts[i] = #positions where query and train row i hold the same leaf id
// (k-FP's tree-agreement similarity). The AVX2 variant compares 8 uint32 a
// cycle and accumulates match masks (cmpeq yields -1 per match, so
// subtracting the mask counts); NEON accumulates vceqq_u32 masks the same
// way. Integer counting: exact at every level.

void leaf_match_block_scalar(const std::uint32_t* train, std::size_t n_train,
                             std::size_t trees, const std::uint32_t* query, int* counts);

void leaf_match_block(const std::uint32_t* train, std::size_t n_train, std::size_t trees,
                      const std::uint32_t* query, int* counts);

// ------------------------------------------------- feature-scan kernels
//
// The exact-by-construction pieces of k-FP extraction (features.cpp).

/// out[i] = xs[i+1] - xs[i] for i in [0, n-1); no-op when n < 2.
/// Independent subtractions — identical to the scalar gap loop.
void pair_diffs_scalar(const double* xs, std::size_t n, double* out);
void pair_diffs(const double* xs, std::size_t n, double* out);

/// Number of entries strictly greater than thr (burst-length thresholds).
std::size_t count_gt_scalar(const double* xs, std::size_t n, double thr);
std::size_t count_gt(const double* xs, std::size_t n, double thr);

/// Sum of integer-valued doubles (0/1 direction indicators, packet counts
/// per chunk). Exact in any accumulation order while the running sum stays
/// below 2^53, which a packet count always does.
double sum_ints_scalar(const double* xs, std::size_t n);
double sum_ints(const double* xs, std::size_t n);

/// Histogram of xs into (-inf, lo), [lo, hi), [hi, inf) — the incoming
/// packet-size bands. Counts returned as doubles (they feed features).
void band_counts_scalar(const double* xs, std::size_t n, double lo, double hi,
                        double* below, double* mid, double* above);
void band_counts(const double* xs, std::size_t n, double lo, double hi, double* below,
                 double* mid, double* above);

}  // namespace stob::wf::kernels
