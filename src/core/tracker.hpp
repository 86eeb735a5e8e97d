/// @file
/// Motion tracking pipeline: nulled channel-estimate stream to angle-time
/// image A'[theta, n] (the heat maps of Figs. 5-2, 5-3, 7-2).
#pragma once

#include <vector>

#include "src/core/music.hpp"
#include "src/core/peak_policy.hpp"

namespace wivi::core {

/// A'[theta, n] sampled on an angle grid at successive window positions.
/// Values are the raw (linear) MUSIC pseudospectrum; consumers convert to
/// dB with the normalisation that suits them.
struct AngleTimeImage {
  RVec angles_deg;                ///< row coordinates (degrees)
  RVec times_sec;                 ///< column coordinates (window centres)
  std::vector<RVec> columns;      ///< columns[t][a] = A'[angle a, time t]
  std::vector<int> model_orders;  ///< MUSIC model order per column

  /// Number of image columns (time positions).
  [[nodiscard]] std::size_t num_times() const noexcept { return columns.size(); }
  /// Number of image rows (angle grid points).
  [[nodiscard]] std::size_t num_angles() const noexcept { return angles_deg.size(); }

  /// Column t in dB relative to the column's minimum (all values >= 0),
  /// clamped at `cap_db`. This is the "20 log10 A'" scale of Eq. 5.4.
  [[nodiscard]] RVec column_db(std::size_t t, double cap_db = 60.0) const;

  /// Same, into a caller-owned buffer (no allocation on repeated calls of
  /// one shape) — the per-column hot path for counting and tracking.
  void column_db_into(std::size_t t, RVec& out, double cap_db = 60.0) const;

  /// Global minimum over all columns (linear).
  [[nodiscard]] double global_min() const;
  /// Global maximum over all columns (linear).
  [[nodiscard]] double global_max() const;
};

/// Runs smoothed MUSIC over a sliding window of the channel-estimate
/// stream to build the angle-time image, and reads the dominant mover
/// angle back out of it (the single-target readout; multi-target tracking
/// lives in track::MultiTargetTracker).
class MotionTracker {
 public:
  /// Imaging parameters.
  struct Config {
    /// MUSIC estimator configuration (ISAR geometry, smoothing, orders).
    MusicConfig music;
    /// Samples between successive window positions (image time resolution).
    int hop = 25;
    /// Angle grid step in degrees (paper sums theta over [-90, 90]).
    double angle_step_deg = 1.0;
    /// Worker threads for process(), which shards the image columns over
    /// a par::ParallelImageBuilder pool (0 = hardware concurrency; 1, the
    /// default, runs inline). Every column is a pure function of its
    /// window, so the image is bit-identical for every thread count and
    /// to rt::StreamingTracker (see DESIGN.md §7).
    int num_threads = 1;
  };

  MotionTracker();  ///< Build a tracker with the default Config.
  /// Build a tracker with the given configuration (validated).
  explicit MotionTracker(Config cfg);

  /// The tracker's configuration.
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Time step between image columns.
  [[nodiscard]] double column_period_sec() const noexcept;

  /// Run smoothed MUSIC over sliding windows of the channel stream.
  /// `t0` is the absolute time of h.front().
  [[nodiscard]] AngleTimeImage process(CSpan h, double t0 = 0.0) const;

  /// Dominant non-DC angle per column: the angle of the strongest
  /// pseudospectrum peak outside the policy's DC exclusion band, or NaN
  /// when that peak is less than `peaks.min_peak_db` above the column's
  /// median level (no confident mover). The default PeakPolicy is the
  /// shared §5.2 thresholds every image readout uses.
  [[nodiscard]] RVec dominant_angle_trace(const AngleTimeImage& img,
                                          const PeakPolicy& peaks = {}) const;

 private:
  Config cfg_;
};

/// Render an angle-time image as an ASCII heat map (examples and debug
/// output; the paper's Figs. 5-2/5-3/7-2 are exactly this, in colour).
[[nodiscard]] std::string render_ascii(const AngleTimeImage& img,
                                       std::size_t max_cols = 72,
                                       std::size_t max_rows = 31);

}  // namespace wivi::core
