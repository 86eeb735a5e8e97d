// Human bodies as moving scatterer clusters, and the motion models that
// drive them.
//
// The paper treats a moving human as a dominant reflector whose different
// body parts move "in a loosely coupled way" (§5.2) — that loose coupling
// is what makes multi-person images fuzzy (§7.3). We model a body as a
// torso point plus limb points that oscillate around it while the body is
// in motion.
#pragma once

#include <vector>

#include "src/common/random.hpp"
#include "src/core/gesture.hpp"
#include "src/rf/channel.hpp"
#include "src/rf/geometry.hpp"

namespace wivi::sim {

/// Per-subject physical parameters; the paper's experiments use 8 subjects
/// "of different heights and builds" (§7.2).
struct SubjectParams {
  double torso_rcs = 0.45;
  double limb_rcs = 0.015;
  int num_limbs = 4;
  double limb_swing_amplitude_m = 0.12;  // at full walking speed
  double limb_swing_hz = 1.8;            // arm/leg cadence
  double walk_speed_mps = 1.0;           // comfortable walking speed
  double step_length_m = 0.48;           // gesture step (§7.5)
  double step_duration_sec = 0.95;       // peak step speed ~1 m/s
};

/// Deterministic pool of the paper's 8 subjects (3 women, 5 men, varying
/// height/build); subject(i) always returns the same parameters.
[[nodiscard]] SubjectParams subject(int index);
inline constexpr int kNumSubjects = 8;

class HumanBody final : public rf::MovingBody {
 public:
  /// `seed` fixes the limb phases/directions for reproducibility.
  HumanBody(SubjectParams params, rf::Trajectory trajectory, std::uint64_t seed);

  [[nodiscard]] const SubjectParams& params() const noexcept { return params_; }
  [[nodiscard]] const rf::Trajectory& trajectory() const noexcept {
    return trajectory_;
  }

  /// rf::MovingBody: torso + swinging limbs at time t.
  [[nodiscard]] std::vector<rf::ScatterPoint> scatter_points(
      double t) const override;

 private:
  struct Limb {
    rf::Vec2 base_offset;   // resting position relative to torso
    rf::Vec2 swing_dir;     // unit oscillation direction
    double phase;           // radians
    double rate_scale;      // per-limb cadence variation
  };

  SubjectParams params_;
  rf::Trajectory trajectory_;
  std::vector<Limb> limbs_;
};

/// Axis-aligned rectangle (room interiors, walk areas).
struct Rect {
  double xmin = 0.0, xmax = 1.0, ymin = 0.0, ymax = 1.0;
  [[nodiscard]] bool contains(rf::Vec2 p) const noexcept {
    return p.x >= xmin && p.x <= xmax && p.y >= ymin && p.y <= ymax;
  }
  [[nodiscard]] double width() const noexcept { return xmax - xmin; }
  [[nodiscard]] double height() const noexcept { return ymax - ymin; }
};

/// Random-waypoint walk inside `area`: pick a waypoint, walk toward it at
/// roughly `speed`, occasionally pause — the "enter the room, close the
/// door, and move at will" workload of §7.2/§7.3.
[[nodiscard]] rf::Trajectory random_walk(const Rect& area, double duration_sec,
                                         double dt, double speed_mps, Rng& rng);

/// Gesture trajectory: the subject stands at `start` and performs the timed
/// step sequence along `facing` (unit vector, normally toward the device —
/// or slanted, Fig. 6-2(c)). Each step follows a raised-cosine speed profile
/// covering `profile.step_length_m` in `profile.step_duration_sec`.
[[nodiscard]] rf::Trajectory gesture_trajectory(
    rf::Vec2 start, rf::Vec2 facing, std::span<const core::GestureStep> steps,
    const core::GestureProfile& profile, double duration_sec, double dt);

}  // namespace wivi::sim
