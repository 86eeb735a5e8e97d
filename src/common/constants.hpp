// Physical and system constants used throughout Wi-Vi.
#pragma once

#include <numbers>

namespace wivi {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Speed of light [m/s].
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// Wi-Vi operates in the 2.4 GHz ISM band (paper §3).
inline constexpr double kCarrierFrequencyHz = 2.4e9;

/// Carrier wavelength, ~12.5 cm (paper §2.3).
inline constexpr double kWavelength = kSpeedOfLight / kCarrierFrequencyHz;

/// Baseband bandwidth actually used by the USRP implementation (paper §7.1:
/// "we reduced the transmitted signal bandwidth to 5 MHz").
inline constexpr double kBasebandBandwidthHz = 5e6;

/// OFDM: 64 subcarriers including DC (paper §7.1).
inline constexpr int kNumSubcarriers = 64;

/// Emulated antenna array parameters (paper §7.1): samples over 0.32 s are
/// averaged into an array of size w = 100.
inline constexpr int kEmulatedArraySize = 100;
inline constexpr double kEmulatedArrayDurationSec = 0.32;

/// Channel-estimate sample rate implied by the two values above: 312.5 Hz.
inline constexpr double kChannelSampleRateHz =
    kEmulatedArraySize / kEmulatedArrayDurationSec;

/// Default assumed human walking speed for the ISAR array spacing
/// (paper §5.1, default v = 1 m/s).
inline constexpr double kAssumedHumanSpeed = 1.0;

}  // namespace wivi
