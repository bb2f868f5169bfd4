#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace nsc {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ULL;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  CHECK_GT(n, 0ULL);
  // Rejection to avoid modulo bias: a draw r is accepted iff
  // r >= (2^64 - n) mod n. That threshold is below n, so every r >= n is
  // accepted without computing it; the division is paid only for a draw
  // r < n, which is rare unless n is near 2^64. Same accepted values, same
  // number of draws.
  for (;;) {
    const uint64_t r = Next();
    if (r >= n || r >= (~n + 1) % n) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::Gumbel() {
  double u;
  do {
    u = Uniform();
  } while (u <= 1e-300);
  return -std::log(-std::log(u));
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CHECK_GE(w, 0.0);
    total += w;
  }
  CHECK_GT(total, 0.0);
  double x = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // Guard against floating-point drift.
}

Rng Rng::Split() { return Rng(Next() ^ 0xA5A5A5A5DEADBEEFULL); }

}  // namespace nsc
