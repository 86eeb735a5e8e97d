#include "src/common/db.hpp"

#include <algorithm>
#include <cmath>

namespace wivi {

double to_db(double power_ratio) noexcept {
  return 10.0 * std::log10(std::max(power_ratio, kDbFloorRatio));
}

double from_db(double db) noexcept { return std::pow(10.0, db / 10.0); }

double amp_to_db(double amplitude_ratio) noexcept {
  return 20.0 * std::log10(std::max(amplitude_ratio, kDbFloorRatio));
}

double db_to_amp(double db) noexcept { return std::pow(10.0, db / 20.0); }

}  // namespace wivi
