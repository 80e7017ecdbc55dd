#include "util/rng.hpp"

#include <cmath>

namespace hirep::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  // Xoshiro state must not be all zero; SplitMix64 guarantees that with
  // overwhelming probability, and we re-seed defensively if it happens.
  do {
    std::uint64_t s = seed;
    for (auto& w : state_) w = splitmix64(s);
    ++seed;
  } while (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 &&
           state_[3] == 0);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

double Rng::normal() noexcept {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  // Partial Fisher-Yates over an index vector; O(n) setup, O(k) swaps.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  if (k > n) k = n;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + below(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::fork() noexcept {
  return Rng((*this)() ^ 0xa0761d6478bd642fULL);
}

}  // namespace hirep::util
