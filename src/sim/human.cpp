#include "src/sim/human.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"

namespace wivi::sim {

SubjectParams subject(int index) {
  WIVI_REQUIRE(index >= 0 && index < kNumSubjects, "subject index out of range");
  // Height/build scaling factors for the 8 volunteers (3 women, 5 men).
  static constexpr double kBuild[kNumSubjects] = {0.80, 0.90, 0.85, 1.00,
                                                  1.10, 1.05, 1.20, 0.95};
  static constexpr double kPace[kNumSubjects] = {1.05, 0.95, 1.00, 1.00,
                                                 0.90, 1.10, 0.95, 1.05};
  SubjectParams p;
  p.torso_rcs *= kBuild[index];
  p.limb_rcs *= kBuild[index];
  p.walk_speed_mps *= kPace[index];
  p.step_length_m *= 0.8 + 0.4 * kBuild[index] / 1.2;
  p.step_duration_sec /= kPace[index];
  return p;
}

HumanBody::HumanBody(SubjectParams params, rf::Trajectory trajectory,
                     std::uint64_t seed)
    : params_(params), trajectory_(std::move(trajectory)) {
  Rng rng(seed);
  limbs_.reserve(static_cast<std::size_t>(params_.num_limbs));
  for (int i = 0; i < params_.num_limbs; ++i) {
    Limb limb;
    const double ang = rng.uniform(0.0, kTwoPi);
    limb.base_offset = {0.20 * std::cos(ang), 0.20 * std::sin(ang)};
    const double swing_ang = rng.uniform(0.0, kTwoPi);
    limb.swing_dir = {std::cos(swing_ang), std::sin(swing_ang)};
    limb.phase = rng.uniform(0.0, kTwoPi);
    limb.rate_scale = rng.uniform(0.85, 1.15);
    limbs_.push_back(limb);
  }
}

std::vector<rf::ScatterPoint> HumanBody::scatter_points(double t) const {
  const rf::Vec2 torso = trajectory_.position(t);
  const double speed = trajectory_.velocity(t).norm();
  // Limbs swing hard while walking, barely while standing.
  const double activity = std::clamp(speed / params_.walk_speed_mps, 0.07, 1.0);

  std::vector<rf::ScatterPoint> pts;
  pts.reserve(limbs_.size() + 1);
  pts.push_back({torso, params_.torso_rcs});
  for (const Limb& limb : limbs_) {
    const double osc =
        std::sin(kTwoPi * params_.limb_swing_hz * limb.rate_scale * t +
                 limb.phase) *
        params_.limb_swing_amplitude_m * activity;
    const rf::Vec2 pos = torso + limb.base_offset + limb.swing_dir * osc;
    pts.push_back({pos, params_.limb_rcs});
  }
  return pts;
}

rf::Trajectory random_walk(const Rect& area, double duration_sec, double dt,
                           double speed_mps, Rng& rng) {
  WIVI_REQUIRE(duration_sec > 0.0 && dt > 0.0, "duration and dt must be positive");
  WIVI_REQUIRE(speed_mps > 0.0, "walk speed must be positive");
  const auto n = static_cast<std::size_t>(std::ceil(duration_sec / dt)) + 1;

  // Waypoints are biased toward the front (door/table) half of the room:
  // people "moving at will" in a conference room spend most of their time
  // around the furniture, not pacing the far corners.
  auto pick_waypoint = [&]() -> rf::Vec2 {
    const double front_ymax = area.ymin + 0.55 * area.height();
    if (rng.uniform() < 0.7)
      return {rng.uniform(area.xmin, area.xmax), rng.uniform(area.ymin, front_ymax)};
    return {rng.uniform(area.xmin, area.xmax), rng.uniform(area.ymin, area.ymax)};
  };

  std::vector<rf::Vec2> samples;
  samples.reserve(n);
  rf::Vec2 pos = pick_waypoint();
  rf::Vec2 waypoint = pick_waypoint();
  double pause_left = 0.0;
  double speed = speed_mps;

  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(pos);
    if (pause_left > 0.0) {
      pause_left -= dt;
      continue;
    }
    const rf::Vec2 to_wp = waypoint - pos;
    const double dist = to_wp.norm();
    if (dist < 0.15) {
      // Arrived: maybe pause, then pick a fresh waypoint and speed.
      if (rng.uniform() < 0.35) pause_left = rng.uniform(0.4, 1.5);
      waypoint = pick_waypoint();
      speed = std::max(0.3, speed_mps * rng.uniform(0.75, 1.25));
      continue;
    }
    pos = pos + to_wp.normalized() * std::min(speed * dt, dist);
  }
  return rf::Trajectory(std::move(samples), dt);
}

rf::Trajectory gesture_trajectory(rf::Vec2 start, rf::Vec2 facing,
                                  std::span<const core::GestureStep> steps,
                                  const core::GestureProfile& profile,
                                  double duration_sec, double dt) {
  WIVI_REQUIRE(duration_sec > 0.0 && dt > 0.0, "duration and dt must be positive");
  const rf::Vec2 dir = facing.normalized();
  WIVI_REQUIRE(dir.norm() > 0.0, "facing direction must be nonzero");

  const auto n = static_cast<std::size_t>(std::ceil(duration_sec / dt)) + 1;
  std::vector<rf::Vec2> samples;
  samples.reserve(n);

  const double T = profile.step_duration_sec;
  const double L = profile.step_length_m;

  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * dt;
    // Displacement along `dir` = sum of completed/ongoing step profiles.
    double disp = 0.0;
    for (const core::GestureStep& s : steps) {
      if (t <= s.start_sec) continue;
      const double tau = std::min(t - s.start_sec, T);
      // Raised-cosine speed: v(tau) = Vpk/2 (1 - cos(2 pi tau / T));
      // integrated displacement below, reaching L at tau = T.
      const double frac =
          (tau - T / kTwoPi * std::sin(kTwoPi * tau / T)) / T;  // 0..1
      const double length = s.forward ? L : L * profile.backward_step_scale;
      disp += (s.forward ? +length : -length) * frac;
    }
    samples.push_back(start + dir * disp);
  }
  return rf::Trajectory(std::move(samples), dt);
}

}  // namespace wivi::sim
