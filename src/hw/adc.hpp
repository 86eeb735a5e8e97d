// Quantizing, saturating analog-to-digital converter.
//
// The flash effect (paper §1) is an ADC phenomenon: the wall reflection
// overwhelms the converter and the minute reflections from behind the wall
// disappear below the quantization floor or get clipped entirely. This
// model is therefore load-bearing: the nulling evaluation (Fig. 7-7) is
// only meaningful with quantization and saturation in the loop.
#pragma once

#include <cstddef>

#include "src/common/types.hpp"

namespace wivi::hw {

class Adc {
 public:
  /// `bits` per I/Q rail; `full_scale` is the amplitude at which each rail
  /// saturates.
  Adc(int bits, double full_scale);

  [[nodiscard]] int bits() const noexcept { return bits_; }
  [[nodiscard]] double full_scale() const noexcept { return full_scale_; }

  /// Quantization step per rail.
  [[nodiscard]] double lsb() const noexcept;

  /// Quantize one complex sample (round-to-nearest per rail, clamp at
  /// full scale).
  [[nodiscard]] cdouble quantize(cdouble x) const noexcept;

  /// Quantize a buffer; returns how many samples hit the rails.
  struct Result {
    CVec samples;
    std::size_t saturated_count = 0;
    [[nodiscard]] bool saturated() const noexcept { return saturated_count > 0; }
  };
  [[nodiscard]] Result convert(CSpan x) const;

 private:
  [[nodiscard]] double quantize_rail(double v, bool& clipped) const noexcept;

  int bits_;
  double full_scale_;
};

}  // namespace wivi::hw
