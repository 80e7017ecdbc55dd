#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace hirep::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

// Known-answer test for the Xoshiro256** stream and the draws built on it.
// SameSeedSameSequence only compares two instances with each other; these
// pin the actual values, so a change to the generator, its seeding or any
// draw helper (including moving it between translation units) shows here
// before it shows as a drifted golden.
TEST(Rng, KnownAnswerStream) {
  constexpr std::uint64_t kSeed0[16] = {
      0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
      0x6aa594f1262d2d2cULL, 0xbba5ad4a1f842e59ULL, 0xffef8375d9ebcacaULL,
      0x6c160deed2f54c98ULL, 0x8920ad648fc30a3fULL, 0xdb032c0ba7539731ULL,
      0xeb3a475a3e749a3dULL, 0x1d42993fa43f2a54ULL, 0x11361bf526a14bb5ULL,
      0x1b4f07a5ab3d8e9cULL, 0xa7a3257f6986db7fULL, 0x7efdaa95605dfc9cULL,
      0x4bde97c0a78eaab8ULL};
  constexpr std::uint64_t kSeed42[16] = {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
      0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL, 0xc2e96e726e97647eULL,
      0x9556615f775fbc3dULL, 0xaeb53b340c103971ULL, 0x4a69db9873af8965ULL,
      0xcd0feda93006c6b6ULL, 0x52480865a4b42742ULL, 0xb60dec3bf2d887cdULL,
      0xe0b55a68b96677faULL};
  Rng a(0), b(42);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a(), kSeed0[i]) << "seed 0, draw " << i;
    EXPECT_EQ(b(), kSeed42[i]) << "seed 42, draw " << i;
  }
}

TEST(Rng, KnownAnswerDraws) {
  constexpr double kUniform[8] = {
      0x1.66b1f5ee9df2ep-1, 0x1.1d70f6593d20ap-2, 0x1.ade3a6932a58fp-1,
      0x1.f65270e63d00ep-1, 0x1.fb5209d8fca8p-1,  0x1.bedc39c76c431p-1,
      0x1.f1ae5852bd8bp-5,  0x1.abc4dcb546f6p-4};
  Rng u(7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(u.uniform(), kUniform[i]) << i;

  const std::string kChance = "00000100000010000010110000100010";
  Rng c(8);
  std::string chances;
  for (int i = 0; i < 32; ++i) chances += c.chance(0.3) ? '1' : '0';
  EXPECT_EQ(chances, kChance);

  const std::vector<std::uint64_t> kBelow = {2,   251, 132, 732, 920, 744,
                                             682, 503, 149, 453, 752, 989,
                                             171, 760, 932, 947};
  Rng w(9);
  std::vector<std::uint64_t> below;
  for (int i = 0; i < 16; ++i) below.push_back(w.below(1000));
  EXPECT_EQ(below, kBelow);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, SplitMix64KnownValues) {
  // Reference values for the SplitMix64 sequence from seed 0 (widely
  // published test vector).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454fULL);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInHalfOpenInterval) {
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

// chance_threshold is the integer form of chance(p) the churn loop draws
// with: for every p in (0, 1) and every draw, chance(p) must equal
// below_threshold(chance_threshold(p)).  The boundary cases check the
// comparison on the 53-bit values right around the threshold, where a
// rounding slip would show; the random cases check whole streams.
TEST(Rng, ChanceThresholdMatchesChance) {
  std::vector<double> ps = {
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1e-300,
      0x1.0p-60,
      0x1.0p-53,  // exactly 1 * 2^-53
      3 * 0x1.0p-53,
      0x1.0p-1,
      (0x1.0p52 + 1) * 0x1.0p-53,
      (0x1.0p53 - 1) * 0x1.0p-53,  // 1 - 2^-53, the largest p below 1
      0.0002,
      0.01,
      1.0 / 3.0,
  };
  for (const double k : {1.0, 3.0, 12345.0, 0x1.0p52, 0x1.0p53 - 2}) {
    const double exact = k * 0x1.0p-53;
    ps.push_back(std::nextafter(exact, 0.0));
    ps.push_back(std::nextafter(exact, 1.0));
  }
  Rng pick(99);
  for (int i = 0; i < 200; ++i) ps.push_back(pick.uniform());
  for (int i = 0; i < 50; ++i) ps.push_back(std::ldexp(pick.uniform(), -30));

  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  for (const double p : ps) {
    ASSERT_GT(p, 0.0);
    ASSERT_LT(p, 1.0);
    const std::uint64_t threshold = Rng::chance_threshold(p);
    SCOPED_TRACE(testing::Message() << "p = " << std::hexfloat << p);
    // uniform() is k * 2^-53 for the draw's top 53 bits k.
    for (std::uint64_t k = threshold < 2 ? 0 : threshold - 2;
         k <= threshold + 1 && k < kTop; ++k) {
      EXPECT_EQ(static_cast<double>(k) * 0x1.0p-53 < p, k < threshold)
          << "k = " << k;
    }
    Rng a(static_cast<std::uint64_t>(p * 1e9) + 1);
    Rng b = a;
    for (int draw = 0; draw < 2000; ++draw) {
      ASSERT_EQ(a.chance(p), b.below_threshold(threshold)) << draw;
    }
  }
  // Outside (0, 1) the verdict still agrees; chance() just skips the draw.
  EXPECT_EQ(Rng::chance_threshold(0.0), 0u);
  EXPECT_EQ(Rng::chance_threshold(-1.0), 0u);
  EXPECT_EQ(Rng::chance_threshold(std::nan("")), 0u);
  EXPECT_EQ(Rng::chance_threshold(1.0), kTop);
  EXPECT_EQ(Rng::chance_threshold(2.0), kTop);
}

TEST(Rng, ChanceFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalShifted) {
  Rng rng(31);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(37);
  double sum = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.exponential(2.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(43);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(47);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = rng.sample_indices(20, 7);
    ASSERT_EQ(s.size(), 7u);
    std::set<std::size_t> unique(s.begin(), s.end());
    EXPECT_EQ(unique.size(), 7u);
    for (auto idx : s) EXPECT_LT(idx, 20u);
  }
}

TEST(Rng, SampleIndicesClampedToN) {
  Rng rng(53);
  const auto s = rng.sample_indices(5, 100);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, SampleIndicesUniformCoverage) {
  Rng rng(59);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    for (auto idx : rng.sample_indices(10, 3)) ++counts[idx];
  }
  // Each index should be picked ~3000 times.
  for (int c : counts) EXPECT_NEAR(c, 3000, 300);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(61);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

// Property sweep: below() is unbiased enough across bounds that the
// empirical mean lands near (bound-1)/2.
class RngBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundSweep, BelowMeanNearCenter) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 2654435761ULL + 1);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.below(bound));
  const double expect = static_cast<double>(bound - 1) / 2.0;
  EXPECT_NEAR(sum / n, expect, std::max(1.0, expect * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(2, 3, 7, 10, 100, 1000, 65536));

}  // namespace
}  // namespace hirep::util
