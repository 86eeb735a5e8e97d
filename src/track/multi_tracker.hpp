/// @file
/// Multi-target tracking over the angle-time image.
///
/// The paper's headline evaluation is multi-person: up to three humans are
/// localised and counted behind a wall from the smoothed-MUSIC angle-time
/// image (Figs. 5-3, 7-2). This module closes the loop from image columns
/// to persistent target identities: each column is reduced to a set of
/// detections (ColumnDetector), detections are associated to live tracks
/// by gated nearest neighbour with a Hungarian fallback for ambiguous
/// frames (assignment.hpp), each track is smoothed by a per-target
/// constant-velocity Kalman filter (kalman.hpp), and a
/// tentative -> confirmed -> coasting -> dead lifecycle keeps identities
/// stable while targets cross, enter, leave, or momentarily fade below
/// the detection floor.
///
/// The tracker is strictly column-incremental — step() consumes one image
/// column and never revisits earlier ones — so the streaming wrapper
/// (rt::StreamingMultiTracker) is bit-for-bit identical to a batch pass by
/// construction.
#pragma once

#include <cstddef>
#include <vector>

#include "src/track/detect.hpp"
#include "src/track/kalman.hpp"

namespace wivi::track {

/// Lifecycle states of a track.
enum class TrackState {
  /// Newly born from an unassociated detection; not yet reported as a
  /// target. Dies quickly if not re-detected (clutter suppression).
  kTentative,
  /// Established target: detected in enough consecutive columns.
  kConfirmed,
  /// Confirmed target that missed its detection this column; the Kalman
  /// prediction carries it until re-acquisition or the coast budget runs
  /// out.
  kCoasting,
  /// Track terminated (coast budget exhausted or tentative starved);
  /// its identity is never reused.
  kDead,
};

/// Human-readable name of a TrackState ("tentative", "confirmed", ...).
[[nodiscard]] const char* to_string(TrackState s) noexcept;

/// Public view of one live track after a column update.
struct TrackSnapshot {
  /// Stable track identity (unique over the tracker's lifetime).
  int id = 0;
  /// Lifecycle state after this column.
  TrackState state = TrackState::kTentative;
  /// Kalman angle estimate in degrees.
  double angle_deg = 0.0;
  /// Kalman angular-velocity estimate in deg/s.
  double velocity_dps = 0.0;
  /// Time of the column this snapshot describes (image times_sec).
  double time_sec = 0.0;
  /// True when a detection was associated this column (false = coasted).
  bool updated = false;
  /// Strength of the associated detection in dB (0 when coasting).
  double strength_db = 0.0;
  /// Columns since birth (1 on the birth column).
  int age_columns = 0;
};

/// Full per-track history, kept for live and dead tracks alike: the
/// angle-vs-time curve a figure or an application consumes.
struct TrackHistory {
  /// Stable track identity.
  int id = 0;
  /// Column index of the birth detection.
  std::size_t birth_column = 0;
  /// Final lifecycle state (kDead once terminated).
  TrackState state = TrackState::kTentative;
  /// True if the track was ever confirmed (tentative clutter never is).
  bool confirmed_ever = false;
  /// Column times covered by this track, one entry per column alive.
  RVec times_sec;
  /// Kalman angle estimate per column alive (smoothed trajectory).
  RVec angles_deg;
  /// Per column alive: whether a detection was associated (false =
  /// coasted on prediction).
  std::vector<bool> updated;
};

/// Tracks every mover in an angle-time image, one column at a time.
/// Deterministic: the same column sequence always produces the same
/// tracks, ids and states. Not safe for concurrent use of one instance.
class MultiTargetTracker {
 public:
  /// Detection, smoothing, association and lifecycle parameters.
  struct Config {
    /// Per-column multi-peak detection thresholds.
    ColumnDetector::Config detector;
    /// Per-target constant-velocity smoother noise.
    KalmanConfig kalman;
    /// Association gate in degrees: a detection further than this from a
    /// track's predicted angle can never be associated with it.
    double gate_deg = 15.0;
    /// Consecutive detected columns before a tentative track is confirmed
    /// (the paper's image cadence is ~12.5 columns/s, so 3 is ~0.25 s).
    int confirm_columns = 3;
    /// Consecutive missed columns a confirmed track may coast before it
    /// dies (~2 s at the default cadence). Crossing targets merge into one
    /// detection for as long as they sit inside one MUSIC resolution cell —
    /// easily a second for slow movers — so the budget must outlast the
    /// merge; the price is that a departed person's track lingers this long.
    int max_coast_columns = 25;
    /// Consecutive missed columns before an unconfirmed (tentative) track
    /// dies; small, so clutter blips vanish quickly.
    int tentative_max_misses = 2;
    /// Coasted columns after which the track's velocity state starts to
    /// decay (see coast_velocity_damping). Short coasts — crossing merges,
    /// single dropped detections — keep the full constant-velocity
    /// extrapolation that re-acquires a moving target on the far side; only
    /// a coast longer than this looks like a stalled target whose stale
    /// velocity would drag the prediction away from the re-appearance
    /// point.
    int coast_damp_after = 8;
    /// Velocity damping factor applied each coasted column past
    /// coast_damp_after (1 = legacy undamped coasting). With the default,
    /// a long-stalled target's prediction parks within a gate-width of
    /// where it faded, so the target re-associates with its old identity
    /// when it starts moving again instead of being reborn under a new id.
    double coast_velocity_damping = 0.6;
    /// Occlusion forgiveness: a confirmed track that misses its detection
    /// while its prediction sits within the detector's min_separation_deg
    /// of a track that *was* updated this column is occluded — the
    /// detector cannot resolve two peaks that close, so the miss says
    /// nothing about the target having left. Occluded misses do not
    /// consume the coast budget; this cap on consecutive occluded columns
    /// is the safety valve that eventually retires a track permanently
    /// hidden behind another (0 disables forgiveness entirely — every
    /// miss consumes coast budget, the legacy lifecycle).
    int max_occluded_columns = 120;
  };

  MultiTargetTracker();  ///< Build a tracker with the default Config.
  /// Build a tracker (validates the configuration).
  explicit MultiTargetTracker(Config cfg);

  /// The tracker's configuration.
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Consume column `t` of `img`. Columns must be fed strictly in order:
  /// `t` must equal columns_processed() (enforced). Returns the snapshots
  /// of all live (non-dead) tracks after the update, ordered by track id.
  const std::vector<TrackSnapshot>& step(const core::AngleTimeImage& img,
                                         std::size_t t);

  /// Number of columns consumed so far.
  [[nodiscard]] std::size_t columns_processed() const noexcept {
    return cols_seen_;
  }

  /// Snapshots of all live tracks after the most recent step(), ordered by
  /// track id (empty before the first step).
  [[nodiscard]] const std::vector<TrackSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }

  /// Histories of every track ever created — live and dead, confirmed and
  /// clutter — ordered by id. Filter on `confirmed_ever` for targets.
  [[nodiscard]] std::vector<TrackHistory> histories() const;

  /// Number of currently live confirmed-or-coasting targets.
  [[nodiscard]] std::size_t num_confirmed() const noexcept;

  /// Drop all tracks and start over (ids keep counting up).
  void reset();

 private:
  struct Track {
    int id;
    TrackState state;
    AngleKalman kalman;
    std::size_t birth_column;
    int age_columns = 1;
    int consecutive_hits = 1;
    int consecutive_misses = 0;
    double last_strength_db = 0.0;
    TrackHistory history;
    int occluded_columns = 0;  // consecutive occluded (forgiven) misses
  };

  void kill(Track& tr);
  [[nodiscard]] bool occluded(std::size_t i,
                              const std::vector<std::size_t>& match) const;

  Config cfg_;
  ColumnDetector detector_;
  std::vector<Track> live_;           // id order (insertion order)
  std::vector<TrackHistory> dead_;    // retired tracks, id order
  std::vector<TrackSnapshot> snapshots_;
  std::vector<Detection> detections_;  // per-column scratch
  std::size_t cols_seen_ = 0;
  double last_time_sec_ = 0.0;
  int next_id_ = 1;
};

/// Convenience batch entry point: run a fresh MultiTargetTracker over every
/// column of `img` and return the final histories (the batch counterpart
/// the streaming path is pinned against).
/// @param img  a complete angle-time image.
/// @param cfg  tracker configuration.
/// @return histories of all tracks, ordered by id.
[[nodiscard]] std::vector<TrackHistory> track_image(
    const core::AngleTimeImage& img, const MultiTargetTracker::Config& cfg = {});

}  // namespace wivi::track
