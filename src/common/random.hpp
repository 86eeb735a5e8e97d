// Seeded, reproducible random number generation.
//
// Every experiment in the benchmark harness must be re-runnable bit-for-bit,
// so all randomness flows through this engine with explicit seeds; nothing
// in the library touches global RNG state.
#pragma once

#include <cstdint>

#include "src/common/types.hpp"

namespace wivi {

/// xoshiro256++ PRNG. Small, fast, and good enough statistical quality for
/// noise generation; satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached spare deviate).
  double gaussian();

  /// Normal with the given mean / standard deviation.
  double gaussian(double mean, double stddev);

  /// Circularly-symmetric complex Gaussian with E[|z|^2] = variance.
  cdouble complex_gaussian(double variance = 1.0);

  /// Derive an independent child generator (for per-trial streams).
  Rng fork();

 private:
  std::uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace wivi
