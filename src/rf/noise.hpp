// Receiver noise.
#pragma once

#include "src/common/random.hpp"
#include "src/common/types.hpp"

namespace wivi::rf {

/// Add circularly-symmetric AWGN of the given per-sample power in place.
void add_awgn(CVec& x, double noise_power, Rng& rng);

}  // namespace wivi::rf
