// Runtime SIMD dispatch for the WF attack kernels and the SHA-256 block
// function (util/sha256.cpp).
//
// Policy (DESIGN.md §17): the build compiles at baseline codegen flags;
// vector kernels live in functions carrying a per-function target
// attribute, and every call site picks an implementation through
// active_level(), decided once per process:
//
//   * compile-time kill switch — a -DSTOB_SIMD=off CMake configure defines
//     STOB_SIMD_DISABLED and active_level() is constant Scalar (the CI
//     forced-scalar leg);
//   * runtime override — STOB_SIMD=off|scalar|0 in the environment forces
//     Scalar without a rebuild (CI byte-identity checks run one binary in
//     both modes);
//   * CPUID — on x86-64, AVX2 when __builtin_cpu_supports says so; on
//     AArch64, NEON (architecturally guaranteed); otherwise Scalar.
//
// Every kernel keeps an always-available scalar implementation, and all
// shipped SIMD paths are *exact* (compares, integer counting, independent
// subtractions, integer-valued sums), so the level never changes results —
// only wall clock. Tests pin that: scalar vs dispatched outputs are
// compared with EXPECT_EQ, never NEAR.
#pragma once

namespace stob::simd {

enum class Level {
  Scalar = 0,
  Avx2 = 1,
  Neon = 2,
};

/// The instruction-set level every dispatched kernel uses in this process.
/// Decided on first call (environment + CPUID) and constant afterwards.
Level active_level();

/// True when scalar code is forced for every dispatched kernel: the
/// -DSTOB_SIMD=OFF build, or STOB_SIMD=off|scalar|0 in the environment.
/// Decided on first call and constant afterwards.
bool scalar_forced();

/// Human-readable name ("scalar", "avx2", "neon") for logs and manifests.
/// Never printed on stdout paths under the byte-identity contract.
const char* level_name(Level level);

}  // namespace stob::simd
