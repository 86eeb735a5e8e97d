/// @file
/// Inverse synthetic aperture radar: time samples as antenna arrays
/// (paper §5.1, Fig. 5-1, Eq. 5.1).
///
/// Consecutive channel estimates h[n]..h[n+w] are treated as one antenna
/// array whose element spacing is Delta = 2 v T (v = assumed human speed,
/// T = channel sample period; the factor 2 accounts for the round trip,
/// paper footnote 2 of §5.1). Beam steering over that array gives
///   A[theta, n] = sum_i h[n+i] * conj(a_i(theta)),
///   a_i(theta)  = exp(j 2 pi i Delta sin(theta) / lambda),
/// which peaks at sin(theta) = v_radial / v: a person walking straight at
/// the device (v_r = +1 m/s) shows at +90 degrees, walking away at -90.
#pragma once

#include <memory>

#include "src/common/constants.hpp"
#include "src/common/types.hpp"

namespace wivi::core {

/// Geometry of the emulated ISAR array.
struct IsarConfig {
  /// Carrier wavelength lambda (2.4 GHz ISM band).
  double wavelength_m = kWavelength;
  /// Assumed target speed v (paper default 1 m/s, §5.1).
  double assumed_speed_mps = kAssumedHumanSpeed;
  /// Channel-estimate sample period T (312.5 Hz stream, paper §7.1).
  double sample_period_sec = 1.0 / kChannelSampleRateHz;
  /// Emulated array size w (paper §7.1: 100).
  int window = kEmulatedArraySize;
};

/// Emulated element spacing Delta = 2 v T.
[[nodiscard]] double element_spacing_m(const IsarConfig& cfg) noexcept;

/// Steering vector a(theta) of length `m` for the emulated array.
[[nodiscard]] CVec steering_vector(const IsarConfig& cfg, double theta_deg,
                                   std::size_t m);

/// An immutable, read-only-after-build steering matrix for one canonical
/// geometry: row ai is a(angles[ai]) of length m, optionally unit-norm,
/// stored contiguously. Tables are owned by the shared plan registry
/// (wivi::plan) and handed out through acquire_steering() as shared
/// handles, so any number of sessions and threads with the same canonical
/// geometry read one table instead of each building ~100 KB of phase
/// ramps. The values are exactly what the pre-registry per-session build
/// produced (same expression order — bit-identical pseudospectra).
class SteeringTable {
 public:
  /// Build the table directly (acquire_steering() is the shared path; a
  /// direct build is for tests and one-off uses). `spacing_m` is the
  /// emulated element spacing Delta = 2 v T; every angle must lie in
  /// [-90, 90] degrees.
  SteeringTable(double spacing_m, double wavelength_m, RSpan angles_deg,
                std::size_t m, bool unit_norm);

  /// Contiguous steering row for angle index ai.
  [[nodiscard]] const cdouble* row(std::size_t ai) const noexcept {
    return data_.data() + ai * m_;
  }
  /// The angle grid the table was built on (degrees).
  [[nodiscard]] RSpan angles_deg() const noexcept { return angles_; }
  /// Number of angles in the grid.
  [[nodiscard]] std::size_t num_angles() const noexcept {
    return angles_.size();
  }
  /// Steering-vector length m.
  [[nodiscard]] std::size_t length() const noexcept { return m_; }
  /// Emulated element spacing Delta = 2 v T the table was built for.
  [[nodiscard]] double spacing_m() const noexcept { return spacing_m_; }
  /// Carrier wavelength the table was built for.
  [[nodiscard]] double wavelength_m() const noexcept { return wavelength_m_; }
  /// Whether each row is scaled to unit norm.
  [[nodiscard]] bool unit_norm() const noexcept { return unit_norm_; }
  /// Heap bytes the table keeps alive (grid + matrix storage).
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// True iff this table is exactly the one (spacing, wavelength, grid,
  /// m, unit_norm) describes — the comparison ensure() uses to skip
  /// re-acquisition; allocation-free.
  [[nodiscard]] bool matches(double spacing_m, double wavelength_m,
                             RSpan angles_deg, std::size_t m,
                             bool unit_norm) const noexcept;

 private:
  RVec angles_;
  CVec data_;  // num_angles x m, row-major
  std::size_t m_ = 0;
  double spacing_m_ = 0.0;
  double wavelength_m_ = 0.0;
  bool unit_norm_ = false;
};

/// Shared handle to the registry-owned steering table for (cfg geometry,
/// grid, m, unit_norm). The key is *canonical*: it carries the derived
/// element spacing Delta = 2 v T rather than v and T separately, so
/// configurations that differ only in that factoring (e.g. doubled speed,
/// halved sample period) collide on one shared table. Built once
/// process-wide; the handle pins the table past plan::Registry::clear().
[[nodiscard]] std::shared_ptr<const SteeringTable> acquire_steering(
    const IsarConfig& cfg, RSpan angles_deg, std::size_t m, bool unit_norm);

/// A client's view of one shared steering table: ensure() resolves the
/// requested geometry through the plan registry and keeps the handle;
/// row() reads the shared immutable data. DoA estimators evaluate the
/// full grid against every window position, so ensure() is called per
/// window — when the geometry is unchanged it is a field comparison
/// (allocation-free, no registry probe), and when it is a registry hit it
/// is a handle copy (allocation-free).
class SteeringMatrix {
 public:
  /// Make the handle match (cfg geometry, grid, m, unit_norm); no-op when
  /// already current, a registry acquire otherwise.
  void ensure(const IsarConfig& cfg, RSpan angles_deg, std::size_t m,
              bool unit_norm);

  /// Contiguous steering row for angle index ai (ensure() first).
  [[nodiscard]] const cdouble* row(std::size_t ai) const noexcept {
    return table_->row(ai);
  }
  /// Number of angles in the held table (0 before the first ensure()).
  [[nodiscard]] std::size_t num_angles() const noexcept {
    return table_ ? table_->num_angles() : 0;
  }
  /// Steering-vector length m of the held table (0 before ensure()).
  [[nodiscard]] std::size_t length() const noexcept {
    return table_ ? table_->length() : 0;
  }
  /// The shared table handle (null before the first ensure()).
  [[nodiscard]] const std::shared_ptr<const SteeringTable>& table()
      const noexcept {
    return table_;
  }

 private:
  std::shared_ptr<const SteeringTable> table_;
};

/// Uniform angle grid [-90, 90] with the given step (181 angles at 1 deg),
/// the grid all evaluation figures use.
[[nodiscard]] RVec angle_grid_deg(double step_deg = 1.0);

/// Shared handle to the registry-owned grid for `step_deg` — exactly
/// angle_grid_deg()'s values, built at most once process-wide while
/// resident (wivi::plan) and shared read-only across sessions.
[[nodiscard]] std::shared_ptr<const RVec> acquire_angle_grid(
    double step_deg = 1.0);

/// Eq. 5.1: beamformed power |A[theta, n]|^2 for one window of channel
/// samples, evaluated on the given angle grid. This is the conventional
/// (non-MUSIC) beamformer, kept both as the pedagogical baseline and for
/// the MUSIC-vs-beamforming ablation (paper §5.2 footnote 6).
[[nodiscard]] RVec beamform_power(CSpan window, const IsarConfig& cfg,
                                  RSpan angles_deg);

}  // namespace wivi::core
