// SHA-256 compression kernels (DESIGN.md §13.5): every kernel this CPU can
// run must agree with the portable one on random states and blocks, and
// the full hash built on each kernel must match Sha256::hash and the FIPS
// vectors.  The SHA-NI cases skip on CPUs without the extension; the
// portable kernel is checked on every machine.
#include "crypto/sha256_kernel.hpp"

#include <gtest/gtest.h>

#include <string>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace hirep::crypto {
namespace {

using sha256_kernel::Kernel;
using sha256_kernel::State;

constexpr State kInitialState = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                 0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                 0x1f83d9abu, 0x5be0cd19u};

const Kernel* find_kernel(const std::string& name) {
  for (const Kernel& k : sha256_kernel::available()) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

// FIPS 180-4 padding driven straight through one kernel, independent of
// Sha256's buffering.
std::string hash_with(const Kernel& kernel, std::span<const std::uint8_t> msg) {
  util::Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  State state = kInitialState;
  kernel.compress(state, padded.data(), padded.size() / 64);
  util::Bytes digest;
  for (const std::uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      digest.push_back(static_cast<std::uint8_t>(word >> shift));
    }
  }
  return util::to_hex(digest);
}

std::string hash_with(const Kernel& kernel, const std::string& msg) {
  return hash_with(kernel, std::span(reinterpret_cast<const std::uint8_t*>(msg.data()),
                                     msg.size()));
}

TEST(Sha256Kernel, PortableIsAlwaysAvailableAndActiveIsTheLast) {
  const auto kernels = sha256_kernel::available();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "portable");
  EXPECT_EQ(&sha256_kernel::active(), &kernels.back());
}

TEST(Sha256Kernel, FipsVectorsThroughEveryKernel) {
  const std::string million(1'000'000, 'a');
  for (const Kernel& k : sha256_kernel::available()) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(hash_with(k, ""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(hash_with(k, "abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(hash_with(k, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(hash_with(k, "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                           "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    EXPECT_EQ(hash_with(k, million),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256Kernel, HashAtEveryLengthMatchesEveryKernel) {
  util::Rng rng(0x5a256);
  util::Bytes msg;
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::string expected = util::to_hex(Sha256::hash(msg));
    for (const Kernel& k : sha256_kernel::available()) {
      ASSERT_EQ(hash_with(k, msg), expected) << k.name << ", length " << len;
    }
    msg.push_back(static_cast<std::uint8_t>(rng()));
  }
}

TEST(Sha256Kernel, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  const Kernel* shani = find_kernel("sha-ni");
  if (shani == nullptr) {
    GTEST_SKIP() << "this CPU (or this compiler target) has no SHA-NI; "
                    "only the portable kernel runs here";
  }
  util::Rng rng(20061);
  std::uint8_t blocks[64 * 4];
  for (int trial = 0; trial < 10'000; ++trial) {
    State state;
    for (auto& w : state) w = static_cast<std::uint32_t>(rng());
    for (auto& b : blocks) b = static_cast<std::uint8_t>(rng());
    // Mostly single blocks, with multi-block runs mixed in so the state
    // carried in registers across blocks is exercised too.
    const std::size_t n = (trial % 8 == 0) ? 1 + rng.below(4) : 1;
    State portable = state;
    State fast = state;
    sha256_kernel::compress_portable(portable, blocks, n);
    shani->compress(fast, blocks, n);
    ASSERT_EQ(fast, portable) << "trial " << trial << ", " << n << " block(s)";
  }
}

TEST(Sha256Kernel, ZeroBlocksLeavesTheStateAlone) {
  for (const Kernel& k : sha256_kernel::available()) {
    State state = kInitialState;
    k.compress(state, nullptr, 0);
    EXPECT_EQ(state, kInitialState) << k.name;
  }
}

}  // namespace
}  // namespace hirep::crypto
