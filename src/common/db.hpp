// Decibel conversions.
//
// The paper reasons almost exclusively in dB (wall attenuation, nulling
// depth, gesture SNR), so these helpers are used everywhere. Power ratios
// use 10*log10, amplitude ratios 20*log10.
#pragma once

namespace wivi {

/// Smallest power ratio representable on our dB scale; keeps log10 finite.
inline constexpr double kDbFloorRatio = 1e-30;

/// Power ratio -> dB. Clamps at a -300 dB floor instead of returning -inf.
[[nodiscard]] double to_db(double power_ratio) noexcept;

/// dB -> power ratio.
[[nodiscard]] double from_db(double db) noexcept;

/// Amplitude ratio -> dB (20*log10).
[[nodiscard]] double amp_to_db(double amplitude_ratio) noexcept;

/// dB -> amplitude ratio.
[[nodiscard]] double db_to_amp(double db) noexcept;

}  // namespace wivi
