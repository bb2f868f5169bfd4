// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component in the library takes an explicit Rng so that
// training runs, benchmarks, and tests are reproducible bit-for-bit for a
// given seed. The generator is xoshiro256**, seeded through splitmix64;
// `Split()` derives an independent stream, which is how per-thread RNGs are
// created for parallel evaluation.
#ifndef NSCACHING_UTIL_RNG_H_
#define NSCACHING_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nsc {

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  /// Seeds the state deterministically from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection to avoid
  /// modulo bias; one division per accepted draw.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached second variate).
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Standard Gumbel(0,1) variate: -log(-log(U)).
  double Gumbel();

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = UniformInt(static_cast<uint64_t>(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Samples an index in [0, weights.size()) proportional to `weights`.
  /// Weights must be non-negative with a positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// Derives an independent generator (e.g. one per worker thread).
  Rng Split();

  /// UniformRandomBitGenerator interface, so Rng works with <algorithm>.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return Next(); }

 private:
  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// splitmix64 step; exposed for seeding/hashing helpers.
uint64_t SplitMix64(uint64_t* state);

}  // namespace nsc

#endif  // NSCACHING_UTIL_RNG_H_
