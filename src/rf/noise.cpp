#include "src/rf/noise.hpp"

#include "src/common/error.hpp"

namespace wivi::rf {

void add_awgn(CVec& x, double noise_power, Rng& rng) {
  WIVI_REQUIRE(noise_power >= 0.0, "noise power must be >= 0");
  if (noise_power == 0.0) return;
  for (auto& v : x) v += rng.complex_gaussian(noise_power);
}

}  // namespace wivi::rf
