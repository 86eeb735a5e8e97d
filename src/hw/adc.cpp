#include "src/hw/adc.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace wivi::hw {

Adc::Adc(int bits, double full_scale) : bits_(bits), full_scale_(full_scale) {
  WIVI_REQUIRE(bits >= 2 && bits <= 24, "ADC bits must be in [2, 24]");
  WIVI_REQUIRE(full_scale > 0.0, "ADC full scale must be positive");
}

double Adc::lsb() const noexcept {
  // Signed range [-full_scale, +full_scale] over 2^bits levels.
  return 2.0 * full_scale_ / static_cast<double>(1LL << bits_);
}

double Adc::quantize_rail(double v, bool& clipped) const noexcept {
  if (v >= full_scale_) {
    clipped = true;
    return full_scale_;
  }
  if (v <= -full_scale_) {
    clipped = true;
    return -full_scale_;
  }
  const double step = lsb();
  return std::round(v / step) * step;
}

cdouble Adc::quantize(cdouble x) const noexcept {
  bool clipped = false;
  return {quantize_rail(x.real(), clipped), quantize_rail(x.imag(), clipped)};
}

Adc::Result Adc::convert(CSpan x) const {
  Result r;
  r.samples.reserve(x.size());
  for (cdouble v : x) {
    bool clipped = false;
    const double re = quantize_rail(v.real(), clipped);
    const double im = quantize_rail(v.imag(), clipped);
    if (clipped) ++r.saturated_count;
    r.samples.emplace_back(re, im);
  }
  return r;
}

}  // namespace wivi::hw
