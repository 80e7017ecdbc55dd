// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in the library draws from an explicitly-passed
// Rng so that a (seed, parameters) pair fully determines a run.  The
// generator is Xoshiro256** seeded through SplitMix64, following the
// reference constructions by Blackman & Vigna.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace hirep::util {

/// SplitMix64 step; used to expand a single 64-bit seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Xoshiro256** — fast, high-quality, 256-bit state PRNG.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be used
/// with <random> distributions, though the convenience members below are
/// preferred inside the library (they are reproducible across platforms,
/// unlike libstdc++ distribution implementations).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  // The hot draws are defined inline below the class: the engines draw
  // per node per tick, and a cross-TU call per draw costs more than the
  // draw itself.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound) using Lemire's unbiased multiply-shift.
  /// bound must be > 0.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// The integer form of chance(p) for 0 < p < 1: draw for draw,
  /// chance(p) == below_threshold(chance_threshold(p)).  uniform() is
  /// k * 2^-53 for the top 53 bits k of a draw, and p * 2^53 is exact, so
  /// uniform() < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53).  Outside
  /// (0, 1) the threshold is 0 or 2^53 (same verdict), but chance() then
  /// skips the draw, so a caller must too.
  static std::uint64_t chance_threshold(double p) noexcept;
  bool below_threshold(std::uint64_t threshold) noexcept {
    return ((*this)() >> 11) < threshold;
  }

  /// Standard normal via Marsaglia polar method.
  double normal() noexcept;

  /// Normal with given mean/stddev.
  double normal(double mean, double stddev) noexcept;

  /// Exponential with given rate lambda (> 0).
  double exponential(double lambda) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[below(i)]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Derive an independent child generator (for per-thread / per-run use).
  Rng fork() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

inline Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

inline std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's method: multiply-shift with rejection for exact uniformity.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

inline double Rng::uniform() noexcept {
  // 53 random bits into the mantissa: uniform on [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

inline bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

inline std::uint64_t Rng::chance_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;  // also NaN, which chance() never accepts
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

inline double Rng::exponential(double lambda) noexcept {
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -std::log(u) / lambda;
}

}  // namespace hirep::util
