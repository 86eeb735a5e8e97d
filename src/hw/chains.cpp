#include "src/hw/chains.hpp"

#include <cmath>

#include "src/common/db.hpp"
#include "src/common/error.hpp"

namespace wivi::hw {
namespace {

/// Hard amplitude limiter preserving phase (PA deep compression model).
cdouble clip_amplitude(cdouble x, double max_amp, bool& clipped) noexcept {
  const double mag = std::abs(x);
  if (mag <= max_amp) return x;
  clipped = true;
  return x * (max_amp / mag);
}

}  // namespace

TxChain::TxChain(double gain_db, double max_linear_amplitude)
    : gain_db_(gain_db), max_amp_(max_linear_amplitude) {
  WIVI_REQUIRE(max_linear_amplitude > 0.0, "clip amplitude must be positive");
}

void TxChain::set_gain_db(double gain_db) { gain_db_ = gain_db; }

TxChain::Result TxChain::process(CSpan x) const {
  const double g = db_to_amp(gain_db_);
  Result r;
  r.samples.reserve(x.size());
  for (cdouble v : x) {
    bool clipped = false;
    r.samples.push_back(clip_amplitude(v * g, max_amp_, clipped));
    if (clipped) ++r.clipped_count;
  }
  return r;
}

RxChain::RxChain(double gain_db) : gain_db_(gain_db) {}

void RxChain::set_gain_db(double gain_db) { gain_db_ = gain_db; }

CVec RxChain::process(CSpan x) const {
  const double g = db_to_amp(gain_db_);
  CVec out(x.begin(), x.end());
  for (auto& v : out) v *= g;
  return out;
}

}  // namespace wivi::hw
