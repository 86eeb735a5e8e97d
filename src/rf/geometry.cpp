#include "src/rf/geometry.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace wivi::rf {

double Vec2::norm() const noexcept { return std::hypot(x, y); }

Vec2 Vec2::normalized() const noexcept {
  const double n = norm();
  if (n == 0.0) return {0.0, 0.0};
  return {x / n, y / n};
}

double distance(Vec2 a, Vec2 b) noexcept { return (a - b).norm(); }

namespace {
double cross(Vec2 o, Vec2 a, Vec2 b) noexcept {
  return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
}
bool on_segment(Vec2 p, Vec2 q, Vec2 r) noexcept {
  return std::min(p.x, r.x) <= q.x && q.x <= std::max(p.x, r.x) &&
         std::min(p.y, r.y) <= q.y && q.y <= std::max(p.y, r.y);
}
}  // namespace

bool segments_intersect(Vec2 a1, Vec2 a2, Vec2 b1, Vec2 b2) noexcept {
  const double d1 = cross(b1, b2, a1);
  const double d2 = cross(b1, b2, a2);
  const double d3 = cross(a1, a2, b1);
  const double d4 = cross(a1, a2, b2);
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)))
    return true;
  if (d1 == 0.0 && on_segment(b1, a1, b2)) return true;
  if (d2 == 0.0 && on_segment(b1, a2, b2)) return true;
  if (d3 == 0.0 && on_segment(a1, b1, a2)) return true;
  if (d4 == 0.0 && on_segment(a1, b2, a2)) return true;
  return false;
}

Trajectory::Trajectory(std::vector<Vec2> samples, double dt)
    : samples_(std::move(samples)), dt_(dt) {
  WIVI_REQUIRE(!samples_.empty(), "trajectory needs at least one sample");
  WIVI_REQUIRE(dt_ > 0.0, "trajectory dt must be positive");
}

Trajectory Trajectory::stationary(Vec2 pos, double duration, double dt) {
  const auto n = static_cast<std::size_t>(std::ceil(duration / dt)) + 1;
  return Trajectory(std::vector<Vec2>(n, pos), dt);
}

double Trajectory::duration() const noexcept {
  return samples_.empty() ? 0.0
                          : static_cast<double>(samples_.size() - 1) * dt_;
}

Vec2 Trajectory::position(double t) const {
  WIVI_REQUIRE(!samples_.empty(), "position() on empty trajectory");
  if (samples_.size() == 1) return samples_.front();
  const double clamped = std::clamp(t, 0.0, duration());
  const double pos = clamped / dt_;
  const auto lo = std::min(static_cast<std::size_t>(pos), samples_.size() - 2);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

Vec2 Trajectory::velocity(double t) const {
  WIVI_REQUIRE(!samples_.empty(), "velocity() on empty trajectory");
  if (samples_.size() == 1) return {0.0, 0.0};
  const double h = dt_;
  const double lo = std::max(t - h, 0.0);
  const double hi = std::min(t + h, duration());
  if (hi <= lo) return {0.0, 0.0};
  return (position(hi) - position(lo)) / (hi - lo);
}

}  // namespace wivi::rf
