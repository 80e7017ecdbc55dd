#include <gtest/gtest.h>

#include <vector>

#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {
namespace {

std::string sha1_hex(const std::string& msg) {
  return util::to_hex(Sha1::hash(msg));
}

std::string sha256_hex(const std::string& msg) {
  return util::to_hex(Sha256::hash(msg));
}

// FIPS 180 / de-facto standard test vectors.
TEST(Sha1, StandardVectors) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(sha1_hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(util::to_hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, StreamingMatchesOneShot) {
  const std::string msg = "hello world, this is a streaming test message";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha1 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), Sha1::hash(msg)) << "split at " << split;
  }
}

TEST(Sha1, BlockBoundaryLengths) {
  // Lengths around the 64-byte block / 56-byte padding boundary.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha1 h;
    for (char c : msg) h.update(std::string(1, c));
    EXPECT_EQ(h.finish(), Sha1::hash(msg)) << "len " << len;
  }
}

TEST(Sha256, StandardVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) h.update(chunk);
  EXPECT_EQ(util::to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string msg(200, 'q');
  Sha256 h;
  h.update(msg.substr(0, 63));
  h.update(msg.substr(63, 64));
  h.update(msg.substr(127));
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

// An empty chunk (whose data() may be null) must be a no-op wherever it
// lands relative to the 64-byte block: start, mid-block, one byte short of
// a full block, and right on the boundary.
TEST(Sha256, EmptyChunksAtBlockOffsetsMatchOneShot) {
  util::Bytes msg(150);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 7);
  const std::span<const std::uint8_t> all(msg);
  for (std::size_t offset : {0u, 1u, 63u, 64u}) {
    Sha256 h;
    h.update(std::span<const std::uint8_t>{});
    h.update(all.first(offset));
    h.update(std::span<const std::uint8_t>{});
    h.update(all.subspan(offset));
    h.update(std::span<const std::uint8_t>{});
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "offset " << offset;
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash("a"), Sha256::hash("b"));
  EXPECT_NE(Sha256::hash(""), Sha256::hash(std::string(1, '\0')));
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  const util::Bytes key(20, 0x0b);
  const std::string msg = "Hi There";
  const auto mac = hmac_sha256(
      key, std::span(reinterpret_cast<const std::uint8_t*>(msg.data()),
                     msg.size()));
  EXPECT_EQ(util::to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = hmac_sha256(
      std::span(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span(reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(util::to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const util::Bytes key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = hmac_sha256(
      key, std::span(reinterpret_cast<const std::uint8_t*>(msg.data()),
                     msg.size()));
  EXPECT_EQ(util::to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, EmptyKeyAndMessage) {
  EXPECT_EQ(util::to_hex(hmac_sha256({}, {})),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
  EXPECT_EQ(util::to_hex(HmacSha256({}).mac({})),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

// One keyed HmacSha256 reused across many messages must equal the one-shot
// MAC every time: the midstates are copied per mac(), never consumed.
TEST(HmacSha256, ReusedKeyMatchesOneShot) {
  struct Case {
    util::Bytes key;
    std::string msg;
    std::string mac_hex;
  };
  const std::vector<Case> cases = {
      {util::Bytes(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {util::Bytes{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {util::Bytes(131, 0xaa), "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  util::Rng rng(4231);
  for (const Case& c : cases) {
    const HmacSha256 keyed(c.key);
    const std::span rfc_msg(reinterpret_cast<const std::uint8_t*>(c.msg.data()),
                            c.msg.size());
    for (int round = 0; round < 50; ++round) {
      util::Bytes other(rng.below(200));
      for (auto& b : other) b = static_cast<std::uint8_t>(rng());
      EXPECT_EQ(keyed.mac(other), hmac_sha256(c.key, other))
          << "round " << round << ", length " << other.size();
      EXPECT_EQ(util::to_hex(keyed.mac(rfc_msg)), c.mac_hex) << "round " << round;
    }
  }
}

TEST(HmacSha256, KeySensitivity) {
  const util::Bytes k1{1, 2, 3}, k2{1, 2, 4}, msg{9, 9, 9};
  EXPECT_NE(hmac_sha256(k1, msg), hmac_sha256(k2, msg));
}

}  // namespace
}  // namespace hirep::crypto
