// 2-D geometry: positions, directions and time-parameterised trajectories.
//
// Wi-Vi's tracking math is purely planar (device and humans on one floor),
// so 2-D is the faithful model; the paper's figures are all top-view.
#pragma once

#include <vector>

#include "src/common/types.hpp"

namespace wivi::rf {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2 operator+(Vec2 o) const noexcept { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const noexcept { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const noexcept { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const noexcept { return {x / s, y / s}; }

  [[nodiscard]] double norm() const noexcept;
  [[nodiscard]] constexpr double dot(Vec2 o) const noexcept {
    return x * o.x + y * o.y;
  }
  /// Unit vector in this direction; returns {0,0} for the zero vector.
  [[nodiscard]] Vec2 normalized() const noexcept;
};

[[nodiscard]] double distance(Vec2 a, Vec2 b) noexcept;

/// True iff segments [a1,a2] and [b1,b2] intersect (inclusive of endpoints).
[[nodiscard]] bool segments_intersect(Vec2 a1, Vec2 a2, Vec2 b1, Vec2 b2) noexcept;

/// Piecewise-linear trajectory: uniformly sampled positions starting at t=0.
/// position(t) interpolates; velocity(t) is the central finite difference.
class Trajectory {
 public:
  Trajectory() = default;
  Trajectory(std::vector<Vec2> samples, double dt);

  /// A body that never moves.
  [[nodiscard]] static Trajectory stationary(Vec2 pos, double duration, double dt);

  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double duration() const noexcept;
  [[nodiscard]] double dt() const noexcept { return dt_; }
  [[nodiscard]] const std::vector<Vec2>& samples() const noexcept {
    return samples_;
  }

  /// Clamped to [0, duration].
  [[nodiscard]] Vec2 position(double t) const;
  [[nodiscard]] Vec2 velocity(double t) const;

 private:
  std::vector<Vec2> samples_;
  double dt_ = 0.0;
};

}  // namespace wivi::rf
