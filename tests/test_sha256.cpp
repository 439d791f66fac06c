// SHA-256 conformance: the FIPS 180-4 example vectors, streaming at every
// split point, and parity of the two block kernels (portable scalar rounds
// and the x86 SHA-extensions kernel). Digests guard every cache entry and
// corpus payload, so an entry hashed under one kernel must verify under the
// other; the parity test pins that at the level of the state words.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace stob::util {
namespace {

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next() & 0xFF);
  return out;
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(sha256_hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // 448 bits: the padding spills into a second block.
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256_hex(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, MillionAsStreamedInOddChunks) {
  Sha256 h;
  const std::string chunk(997, 'a');  // prime: block boundaries fall everywhere
  std::size_t left = 1'000'000;
  while (left > 0) {
    const std::size_t n = std::min(left, chunk.size());
    h.update(chunk.data(), n);
    left -= n;
  }
  EXPECT_EQ(h.hex_digest(), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, EverySplitPointGivesTheOneShotDigest) {
  Rng rng(0x5A256ull);
  const std::string input = random_bytes(rng, 300);
  for (std::size_t n = 0; n <= input.size(); ++n) {
    const std::string_view msg(input.data(), n);
    const std::string want = sha256_hex(msg);
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 h;
      h.update(msg.substr(0, split));
      h.update(msg.substr(split));
      ASSERT_EQ(h.hex_digest(), want) << "n=" << n << " split=" << split;
    }
    Sha256 bytewise;
    for (char c : msg) bytewise.update(&c, 1);
    ASSERT_EQ(bytewise.hex_digest(), want) << "n=" << n << " byte at a time";
  }
}

TEST(Sha256, EmptyUpdatesAreNoOps) {
  Sha256 h;
  h.update(nullptr, 0);
  h.update("ab");
  h.update(nullptr, 0);
  h.update("c");
  EXPECT_EQ(h.hex_digest(), sha256_hex("abc"));
}

TEST(Sha256, HardwareKernelMatchesScalarStateWords) {
  const detail::Sha256Blocks hw = detail::sha256_blocks_hw();
  if (hw == nullptr) GTEST_SKIP() << "no SHA-extensions kernel in this build or CPU";
  Rng rng(0x5A2C0DEull);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    const std::string data = random_bytes(rng, len);
    std::uint32_t scalar[8];
    for (std::uint32_t& w : scalar) w = static_cast<std::uint32_t>(rng.next());
    std::uint32_t hard[8];
    std::memcpy(hard, scalar, sizeof scalar);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
    // Unaligned starts too: the cache hashes payloads at any offset.
    const std::size_t skew = len == 0 ? 0 : static_cast<std::size_t>(iter) % 8 % (len + 1);
    const std::size_t blocks = (len - skew) / 64;
    detail::sha256_blocks_scalar(scalar, bytes + skew, blocks);
    hw(hard, bytes + skew, blocks);
    for (int w = 0; w < 8; ++w) {
      ASSERT_EQ(hard[w], scalar[w]) << "iter " << iter << " len " << len << " word " << w;
    }
  }
}

}  // namespace
}  // namespace stob::util
