#include "crypto/stream_cipher.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {
namespace {

StreamCipher::Key test_key(std::uint8_t fill) {
  StreamCipher::Key k;
  k.fill(fill);
  return k;
}

TEST(StreamCipher, EncryptDecryptRoundTrip) {
  const util::Bytes plain{1, 2, 3, 4, 5, 200, 0, 42};
  StreamCipher enc(test_key(7), 1);
  const auto ct = enc.transform(plain);
  StreamCipher dec(test_key(7), 1);
  EXPECT_EQ(dec.transform(ct), plain);
}

TEST(StreamCipher, CiphertextDiffersFromPlaintext) {
  const util::Bytes plain(64, 0);
  StreamCipher enc(test_key(1));
  const auto ct = enc.transform(plain);
  EXPECT_NE(ct, plain);
}

TEST(StreamCipher, DifferentKeysDifferentStreams) {
  const util::Bytes plain(32, 0);
  StreamCipher a(test_key(1)), b(test_key(2));
  EXPECT_NE(a.transform(plain), b.transform(plain));
}

TEST(StreamCipher, DifferentNoncesDifferentStreams) {
  const util::Bytes plain(32, 0);
  StreamCipher a(test_key(1), 10), b(test_key(1), 11);
  EXPECT_NE(a.transform(plain), b.transform(plain));
}

TEST(StreamCipher, ChunkedApplicationMatchesWhole) {
  util::Rng rng(1);
  util::Bytes plain(200);
  for (auto& b : plain) b = static_cast<std::uint8_t>(rng());

  StreamCipher whole(test_key(5), 3);
  const auto expected = whole.transform(plain);

  StreamCipher chunked(test_key(5), 3);
  util::Bytes actual = plain;
  std::span<std::uint8_t> view(actual);
  chunked.apply(view.subspan(0, 13));
  chunked.apply(view.subspan(13, 100));
  chunked.apply(view.subspan(113));
  EXPECT_EQ(actual, expected);
}

TEST(StreamCipher, EmptyInputIsNoop) {
  StreamCipher c(test_key(9));
  EXPECT_TRUE(c.transform({}).empty());
}

// The keystream is HMAC-SHA256(key, u64le(nonce) || u64le(counter)) for
// counter = 0, 1, 2, ..., concatenated.  This pins the wire format the
// onion layers depend on, independent of the full-crypto goldens.
util::Bytes reference_keystream(const StreamCipher::Key& key, std::uint64_t nonce,
                                std::size_t len) {
  util::Bytes out;
  for (std::uint64_t counter = 0; out.size() < len; ++counter) {
    util::ByteWriter w;
    w.u64(nonce);
    w.u64(counter);
    const auto block = hmac_sha256(key, w.bytes());
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(len);
  return out;
}

TEST(StreamCipher, KeystreamKnownAnswer) {
  const auto key = test_key(0x5a);
  const std::uint64_t nonce = 0x0123456789abcdefULL;
  // First two blocks from an independent HMAC-SHA256 implementation.
  EXPECT_EQ(util::to_hex(reference_keystream(key, nonce, 64)),
            "18347b3fd331594dfef316ba40a4bde3a072a70f78701cb8b91b3faf0c7ca360"
            "08e7f3b5784c55798d1d35b0db07d62c4dbd00164d490248f9b3fda5e5c33f57");
  util::Rng rng(32);
  for (std::size_t len : {0u, 1u, 31u, 32u, 33u, 1000u}) {
    const util::Bytes expected = reference_keystream(key, nonce, len);

    StreamCipher whole(key, nonce);
    EXPECT_EQ(whole.transform(util::Bytes(len, 0)), expected) << "whole, len " << len;

    StreamCipher chunked(key, nonce);
    util::Bytes actual(len, 0);
    std::span<std::uint8_t> rest(actual);
    while (!rest.empty()) {
      const std::size_t n = std::min<std::size_t>(rest.size(), rng.below(70));
      chunked.apply(rest.first(n));
      rest = rest.subspan(n);
    }
    EXPECT_EQ(actual, expected) << "chunked, len " << len;
  }
}

TEST(StreamCipher, KeystreamLooksBalanced) {
  // XOR of zeros exposes the raw keystream; its bit density should be ~50%.
  const util::Bytes zeros(4096, 0);
  StreamCipher c(test_key(3), 99);
  const auto stream = c.transform(zeros);
  std::size_t ones = 0;
  for (auto byte : stream) ones += static_cast<std::size_t>(__builtin_popcount(byte));
  const double density = static_cast<double>(ones) / (4096.0 * 8.0);
  EXPECT_NEAR(density, 0.5, 0.02);
}

}  // namespace
}  // namespace hirep::crypto
