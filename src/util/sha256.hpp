// SHA-256 (FIPS 180-4): the integrity check behind every on-disk artifact.
//
// Every result-cache entry (exp/result_cache), the repo's only on-disk
// store, is verified against its SHA-256 on every load, and the
// golden-trace regression corpus (tests/golden/) pins one digest per
// canonical simulation instead of megabytes of JSONL. Not a security
// boundary — a stable fingerprint that catches torn writes, bit rot and
// behavioural drift.
//
// Because the warm-cache read path hashes every payload it serves, the
// block function is chosen once per process by CPUID (DESIGN.md §17): an
// x86 SHA-extensions kernel (sha256rnds2/msg1/msg2) when the CPU reports
// SHA, the portable scalar rounds otherwise. The scalar rounds are the
// reference both kernels are tested against, and they compute the same
// function, so digests never depend on the machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace stob::util {

class Sha256 {
 public:
  Sha256();

  /// Absorb `len` bytes. May be called repeatedly (streaming); whole
  /// 64-byte blocks are hashed straight from `data`.
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Finalise and return the digest as 64 lowercase hex characters. The
  /// object must not be updated after this.
  std::string hex_digest();
  /// The same digest written to out[0..63] (no terminator, no allocation).
  void hex_digest(char* out);

 private:
  std::uint32_t state_[8];
  std::uint64_t bit_count_ = 0;
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
};

/// One-shot convenience: SHA-256 of `s` as lowercase hex.
std::string sha256_hex(std::string_view s);

namespace detail {

/// A block function: folds `blocks` consecutive 64-byte blocks at `data`
/// into `state` (the eight working words, H0..H7).
using Sha256Blocks = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks);

/// The portable rounds, always compiled.
void sha256_blocks_scalar(std::uint32_t state[8], const std::uint8_t* data,
                          std::size_t blocks);

/// The SHA-extensions kernel, or nullptr when this build or CPU lacks it.
Sha256Blocks sha256_blocks_hw();

}  // namespace detail

}  // namespace stob::util
