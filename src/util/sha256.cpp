#include "util/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "util/simd.hpp"

#if !defined(STOB_SIMD_DISABLED) && (defined(__x86_64__) || defined(__i386__))
#define STOB_SHA256_HW 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace stob::util {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void process_block(std::uint32_t state[8], const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t(block[i * 4]) << 24) | (std::uint32_t(block[i * 4 + 1]) << 16) |
           (std::uint32_t(block[i * 4 + 2]) << 8) | std::uint32_t(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  state[0] += a; state[1] += b; state[2] += c; state[3] += d;
  state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

#if defined(STOB_SHA256_HW)

#define STOB_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Four rounds: `w` holds message words W[4g..4g+3], `k` the matching
// constants. sha256rnds2 does two rounds on the (ABEF, CDGH) halves and
// takes its two W+K words from the low half of its third operand.
STOB_SHA_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                                    const std::uint32_t* k) {
  const __m128i wk = _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Message schedule: W[4g..4g+3] from the four previous quads
// (w0 = W[4g-16..], w3 = W[4g-4..]). msg1 adds sigma0 of W[i-15], the
// alignr supplies W[i-7], msg2 adds sigma1 of W[i-2].
STOB_SHA_TARGET inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

// Four big-endian message words: byte-reverse each 32-bit lane.
STOB_SHA_TARGET inline __m128i load_be(const std::uint8_t* p) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

STOB_SHA_TARGET void blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                                  std::size_t blocks) {
  // state[0..3] = ABCD, state[4..7] = EFGH; the instructions want the
  // halves ABEF and CDGH (named high lane to low, as in Intel's manual).
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_be(data);
    rounds4(abef, cdgh, w0, kK);
    __m128i w1 = load_be(data + 16);
    rounds4(abef, cdgh, w1, kK + 4);
    __m128i w2 = load_be(data + 32);
    rounds4(abef, cdgh, w2, kK + 8);
    __m128i w3 = load_be(data + 48);
    rounds4(abef, cdgh, w3, kK + 12);
    for (int g = 16; g < 64; g += 16) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, kK + g);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, kK + g + 4);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, kK + g + 8);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, kK + g + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // Back to ABCD / EFGH word order.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#undef STOB_SHA_TARGET

bool cpu_has_sha() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool shuffles = (c & bit_SSSE3) != 0 && (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return shuffles && (b & bit_SHA) != 0;
}

#endif  // STOB_SHA256_HW

/// The block function every Sha256 uses, chosen once per process.
detail::Sha256Blocks kernel() {
  static const detail::Sha256Blocks chosen = [] {
    const detail::Sha256Blocks hw = detail::sha256_blocks_hw();
    return hw != nullptr && !simd::scalar_forced() ? hw : &detail::sha256_blocks_scalar;
  }();
  return chosen;
}

}  // namespace

namespace detail {

void sha256_blocks_scalar(std::uint32_t state[8], const std::uint8_t* data,
                          std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) process_block(state, data);
}

Sha256Blocks sha256_blocks_hw() {
#if defined(STOB_SHA256_HW)
  static const bool supported = cpu_has_sha();
  return supported ? &blocks_shani : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::update(const void* data, std::size_t len) {
  if (len == 0) return;
  const auto* p = static_cast<const std::uint8_t*>(data);
  bit_count_ += static_cast<std::uint64_t>(len) * 8;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(len, sizeof(buf_) - buf_len_);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ < sizeof(buf_)) return;
    kernel()(state_, buf_, 1);
    buf_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer; only the tail is copied.
  const std::size_t whole = len / sizeof(buf_);
  if (whole > 0) {
    kernel()(state_, p, whole);
    p += whole * sizeof(buf_);
    len -= whole * sizeof(buf_);
  }
  if (len > 0) {
    std::memcpy(buf_, p, len);
    buf_len_ = len;
  }
}

std::string Sha256::hex_digest() {
  std::string out(64, '\0');
  hex_digest(out.data());
  return out;
}

void Sha256::hex_digest(char* out) {
  // Padding: 0x80, zeros up to byte 56 of a block, the bit count big-endian.
  const std::uint64_t bits = bit_count_;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, sizeof(buf_) - buf_len_);
    kernel()(state_, buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) buf_[56 + i] = static_cast<std::uint8_t>(bits >> (56 - i * 8));
  kernel()(state_, buf_, 1);
  buf_len_ = 0;

  static const char* hex = "0123456789abcdef";
  for (std::uint32_t word : state_) {
    for (int shift = 28; shift >= 0; shift -= 4) *out++ = hex[(word >> shift) & 0xF];
  }
}

std::string sha256_hex(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.hex_digest();
}

}  // namespace stob::util
