// Transmit and receive signal-conditioning chains.
//
// TxChain applies digital gain and then the PA's hard amplitude clip at the
// USRP linear range; RxChain applies LNA/ADC-driver gain. The simulated
// link (sim::SimulatedMimoLink) wires these around the RF channel model.
#pragma once

#include "src/common/types.hpp"

namespace wivi::hw {

class TxChain {
 public:
  /// `max_linear_amplitude` is the clip point (sqrt of the PA's linear
  /// power ceiling for a unit-impedance convention).
  TxChain(double gain_db, double max_linear_amplitude);

  [[nodiscard]] double gain_db() const noexcept { return gain_db_; }
  void set_gain_db(double gain_db);

  /// Amplify and clip one buffer; `clipped_count` reports PA compression.
  struct Result {
    CVec samples;
    std::size_t clipped_count = 0;
  };
  [[nodiscard]] Result process(CSpan x) const;

 private:
  double gain_db_;
  double max_amp_;
};

class RxChain {
 public:
  explicit RxChain(double gain_db);

  [[nodiscard]] double gain_db() const noexcept { return gain_db_; }
  void set_gain_db(double gain_db);

  [[nodiscard]] CVec process(CSpan x) const;

 private:
  double gain_db_;
};

}  // namespace wivi::hw
