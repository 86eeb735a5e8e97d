#include "src/common/random.hpp"

#include <cmath>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"

namespace wivi {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// splitmix64: expands a single seed into well-distributed state words.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  WIVI_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  WIVI_REQUIRE(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is negligible for the small ranges used here, but rejection
  // sampling keeps per-trial streams exactly uniform.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  // Box-Muller; u1 in (0,1] so log() is finite.
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  spare_ = r * std::sin(kTwoPi * u2);
  has_spare_ = true;
  return r * std::cos(kTwoPi * u2);
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

cdouble Rng::complex_gaussian(double variance) {
  WIVI_REQUIRE(variance >= 0.0, "complex_gaussian variance must be >= 0");
  const double sigma = std::sqrt(variance / 2.0);
  return {gaussian() * sigma, gaussian() * sigma};
}

Rng Rng::fork() {
  // Two fresh words from this stream seed the child; children are
  // statistically independent of further draws from the parent.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(a ^ rotl(b, 32));
}

}  // namespace wivi
