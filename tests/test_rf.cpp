// Unit tests for wivi::rf - geometry, materials (paper Table 4.1),
// antennas, propagation, channel model, noise.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/constants.hpp"
#include "src/common/db.hpp"
#include "src/common/error.hpp"
#include "src/rf/antenna.hpp"
#include "src/rf/channel.hpp"
#include "src/rf/geometry.hpp"
#include "src/rf/materials.hpp"
#include "src/rf/noise.hpp"
#include "src/rf/propagation.hpp"

namespace wivi::rf {
namespace {

// ------------------------------------------------------------ Geometry ---

TEST(Geometry, VectorBasics) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.normalized().norm(), 1.0);
  EXPECT_DOUBLE_EQ(a.dot({1.0, 0.0}), 3.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, a), 5.0);
}

TEST(Geometry, ZeroVectorNormalizesToZero) {
  EXPECT_DOUBLE_EQ(Vec2{}.normalized().norm(), 0.0);
}

TEST(Geometry, SegmentsIntersectCross) {
  EXPECT_TRUE(segments_intersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
  EXPECT_FALSE(segments_intersect({0, 0}, {1, 0}, {0, 1}, {1, 1}));
}

TEST(Geometry, SegmentsTouchingEndpointIntersect) {
  EXPECT_TRUE(segments_intersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
}

TEST(Geometry, TrajectoryInterpolatesLinearly) {
  const Trajectory t({{0, 0}, {1, 0}, {1, 1}}, 1.0);
  EXPECT_DOUBLE_EQ(t.duration(), 2.0);
  EXPECT_DOUBLE_EQ(t.position(0.5).x, 0.5);
  EXPECT_DOUBLE_EQ(t.position(1.5).y, 0.5);
  // Clamped outside [0, duration].
  EXPECT_DOUBLE_EQ(t.position(-1.0).x, 0.0);
  EXPECT_DOUBLE_EQ(t.position(99.0).y, 1.0);
}

TEST(Geometry, TrajectoryVelocityMagnitude) {
  // Constant 2 m/s along +x sampled at 10 Hz.
  std::vector<Vec2> pts;
  for (int i = 0; i <= 20; ++i) pts.push_back({0.2 * i, 0.0});
  const Trajectory t(pts, 0.1);
  EXPECT_NEAR(t.velocity(1.0).x, 2.0, 1e-9);
  EXPECT_NEAR(t.velocity(1.0).y, 0.0, 1e-12);
}

TEST(Geometry, StationaryTrajectoryHasZeroVelocity) {
  const Trajectory t = Trajectory::stationary({1, 2}, 5.0, 0.01);
  EXPECT_DOUBLE_EQ(t.velocity(2.5).norm(), 0.0);
  EXPECT_DOUBLE_EQ(t.position(3.0).x, 1.0);
}

// ----------------------------------------------------------- Materials ---

TEST(Materials, Table41ValuesAreVerbatim) {
  // Paper Table 4.1: one-way attenuation at 2.4 GHz.
  EXPECT_DOUBLE_EQ(one_way_attenuation_db(Material::kGlass), 3.0);
  EXPECT_DOUBLE_EQ(one_way_attenuation_db(Material::kSolidWoodDoor), 6.0);
  EXPECT_DOUBLE_EQ(one_way_attenuation_db(Material::kHollowWall), 9.0);
  EXPECT_DOUBLE_EQ(one_way_attenuation_db(Material::kConcrete18in), 18.0);
  EXPECT_DOUBLE_EQ(one_way_attenuation_db(Material::kReinforcedConcrete), 40.0);
  EXPECT_DOUBLE_EQ(one_way_attenuation_db(Material::kFreeSpace), 0.0);
}

TEST(Materials, TwoWayDoublesOneWay) {
  // "through-wall systems require traversing the obstacle twice" (§4).
  for (const auto& row : material_table())
    EXPECT_DOUBLE_EQ(two_way_attenuation_db(row.material),
                     2.0 * row.one_way_attenuation_db);
}

TEST(Materials, OrderingMatchesDensity) {
  EXPECT_LT(one_way_attenuation_db(Material::kGlass),
            one_way_attenuation_db(Material::kSolidWoodDoor));
  EXPECT_LT(one_way_attenuation_db(Material::kSolidWoodDoor),
            one_way_attenuation_db(Material::kHollowWall));
  EXPECT_LT(one_way_attenuation_db(Material::kHollowWall),
            one_way_attenuation_db(Material::kConcrete8in));
  EXPECT_LT(one_way_attenuation_db(Material::kConcrete8in),
            one_way_attenuation_db(Material::kConcrete18in));
  EXPECT_LT(one_way_attenuation_db(Material::kConcrete18in),
            one_way_attenuation_db(Material::kReinforcedConcrete));
}

// ------------------------------------------------------------- Antenna ---

TEST(Antenna, IsotropicGainIsZeroDbiEverywhere) {
  const Antenna a = Antenna::isotropic({0, 0});
  EXPECT_DOUBLE_EQ(a.gain_dbi_toward({1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(a.gain_dbi_toward({-3, 7}), 0.0);
}

TEST(Antenna, DirectionalBoresightGain) {
  const Antenna a = Antenna::directional({0, 0}, {0, 1}, 6.0);
  EXPECT_NEAR(a.gain_dbi_toward({0, 5}), 6.0, 1e-9);
}

TEST(Antenna, DirectionalPatternRollsOff) {
  const Antenna a = Antenna::directional({0, 0}, {0, 1}, 6.0);
  const double boresight = a.gain_dbi_toward({0, 5});
  const double at45 = a.gain_dbi_toward({5, 5});
  const double at90 = a.gain_dbi_toward({5, 0});
  EXPECT_LT(at45, boresight);
  EXPECT_LT(at90, at45);
}

TEST(Antenna, BackLobeIsFloored) {
  const Antenna a =
      Antenna::directional({0, 0}, {0, 1}, 6.0, 4.0, /*back_lobe_db=*/-20.0);
  EXPECT_NEAR(a.gain_dbi_toward({0, -5}), 6.0 - 20.0, 1e-9);
}

TEST(Antenna, AmplitudeGainIsSqrtOfPowerGain) {
  const Antenna a = Antenna::directional({0, 0}, {0, 1}, 6.0);
  const double g_db = a.gain_dbi_toward({1, 3});
  EXPECT_NEAR(a.amplitude_gain_toward({1, 3}), db_to_amp(g_db), 1e-12);
}

// --------------------------------------------------------- Propagation ---

TEST(Propagation, FriisInverseWithDistance) {
  const double a1 = friis_amplitude(1.0, kWavelength);
  const double a2 = friis_amplitude(2.0, kWavelength);
  EXPECT_NEAR(a1 / a2, 2.0, 1e-12);  // amplitude ~ 1/d
}

TEST(Propagation, RadarEquationFourthPowerLaw) {
  // Round-trip reflected POWER falls as 1/d^4 for co-located TX/RX.
  const double p1 = std::pow(reflection_amplitude(1.0, 1.0, 1.0, kWavelength), 2);
  const double p2 = std::pow(reflection_amplitude(2.0, 2.0, 1.0, kWavelength), 2);
  EXPECT_NEAR(p1 / p2, 16.0, 1e-9);
}

TEST(Propagation, ReflectionScalesWithSqrtRcs) {
  const double a1 = reflection_amplitude(3.0, 3.0, 1.0, kWavelength);
  const double a4 = reflection_amplitude(3.0, 3.0, 4.0, kWavelength);
  EXPECT_NEAR(a4 / a1, 2.0, 1e-12);
}

TEST(Propagation, PhaseRotatesOneTurnPerWavelength) {
  const cdouble p0 = phase_factor(0.0, kCarrierFrequencyHz);
  const cdouble p1 = phase_factor(kWavelength, kCarrierFrequencyHz);
  EXPECT_NEAR(std::abs(p1 - p0), 0.0, 1e-9);
  const cdouble ph = phase_factor(kWavelength / 2.0, kCarrierFrequencyHz);
  EXPECT_NEAR(std::abs(ph + p0), 0.0, 1e-9);  // half wavelength = 180 deg
}

TEST(Propagation, WallTraversalCountsCrossings) {
  const Wall wall{{-5, 1}, {5, 1}, Material::kHollowWall};
  EXPECT_EQ(wall.traversals({0, 0}, {0, 2}), 1);
  EXPECT_EQ(wall.traversals({0, 0}, {1, 0.5}), 0);
  EXPECT_EQ(wall.traversals({-6, 2}, {-6, 0}), 0);  // passes beside the wall
}

TEST(Propagation, WallAttenuationAppliesPerCrossing) {
  const Wall wall{{-5, 1}, {5, 1}, Material::kHollowWall};
  EXPECT_NEAR(wall.traversal_amplitude({0, 0}, {0, 2}), db_to_amp(-9.0), 1e-12);
  EXPECT_DOUBLE_EQ(wall.traversal_amplitude({0, 0}, {1, 0.5}), 1.0);
}

// -------------------------------------------------------------- Channel ---

class FixedBody final : public MovingBody {
 public:
  explicit FixedBody(ScatterPoint p) : p_(p) {}
  std::vector<ScatterPoint> scatter_points(double) const override { return {p_}; }

 private:
  ScatterPoint p_;
};

ChannelModel make_test_channel() {
  const Vec2 boresight{0.0, 1.0};
  return ChannelModel(Antenna::directional({-0.5, 0}, boresight, 6.0),
                      Antenna::directional({+0.5, 0}, boresight, 6.0),
                      Antenna::directional({0, 0}, boresight, 6.0));
}

TEST(Channel, StaticResponseIsTimeInvariant) {
  ChannelModel ch = make_test_channel();
  ch.add_static_scatterer({{0.0, 3.0}, 5.0});
  EXPECT_EQ(ch.static_response(0), ch.static_response(0));
  // And equals the full response when nothing moves.
  EXPECT_EQ(ch.response(0, 0.0), ch.response(0, 123.0));
}

TEST(Channel, SuperpositionIsLinear) {
  // response = static + moving, the linearity nulling relies on (§1.1).
  ChannelModel ch = make_test_channel();
  ch.add_static_scatterer({{0.0, 3.0}, 5.0});
  const FixedBody body({{1.0, 4.0}, 1.0});
  ch.add_moving_body(&body);
  const cdouble total = ch.response(0, 0.0);
  const cdouble stat = ch.static_response(0);
  const cdouble mov = ch.moving_response(0, 0.0);
  EXPECT_NEAR(std::abs(total - (stat + mov)), 0.0, 1e-15);
}

TEST(Channel, WallAttenuatesScattererBehindIt) {
  ChannelModel with_wall = make_test_channel();
  ChannelModel without_wall = make_test_channel();
  with_wall.add_wall({{-10, 1}, {10, 1}, Material::kHollowWall});
  const ScatterPoint target{{0.0, 4.0}, 1.0};
  with_wall.add_static_scatterer(target);
  without_wall.add_static_scatterer(target);
  // Direct coupling is the same; subtract it to isolate the echo.
  ChannelModel bare_with = make_test_channel();
  bare_with.add_wall({{-10, 1}, {10, 1}, Material::kHollowWall});
  ChannelModel bare_without = make_test_channel();
  const cdouble echo_walled =
      with_wall.static_response(0) - bare_with.static_response(0);
  const cdouble echo_free =
      without_wall.static_response(0) - bare_without.static_response(0);
  // Two-way traversal of a 9 dB wall: 18 dB weaker (paper §4).
  EXPECT_NEAR(to_db(norm2(echo_free) / norm2(echo_walled)), 18.0, 0.5);
}

TEST(Channel, CloserScattererReflectsMorePower) {
  ChannelModel near_ch = make_test_channel();
  ChannelModel far_ch = make_test_channel();
  near_ch.add_static_scatterer({{0.0, 2.0}, 1.0});
  far_ch.add_static_scatterer({{0.0, 6.0}, 1.0});
  ChannelModel bare = make_test_channel();
  const double p_near =
      norm2(near_ch.static_response(0) - bare.static_response(0));
  const double p_far = norm2(far_ch.static_response(0) - bare.static_response(0));
  EXPECT_GT(p_near, p_far);
}

TEST(Channel, MovingScattererChangesPhaseOverDistance) {
  ChannelModel ch = make_test_channel();
  // Two bodies half a wavelength apart in round-trip distance produce
  // opposite-phase echoes.
  const FixedBody b1({{0.0, 3.0}, 1.0});
  const FixedBody b2({{0.0, 3.0 + kWavelength / 4.0}, 1.0});
  ch.add_moving_body(&b1);
  ChannelModel ch2 = make_test_channel();
  ch2.add_moving_body(&b2);
  const cdouble e1 = ch.moving_response(0, 0.0);
  const cdouble e2 = ch2.moving_response(0, 0.0);
  const double phase_diff =
      std::abs(std::arg(e1 / e2));
  EXPECT_NEAR(phase_diff, kPi, 0.05);  // half-wave round trip = pi
}

TEST(Channel, RejectsBadTxIndex) {
  const ChannelModel ch = make_test_channel();
  EXPECT_THROW((void)ch.response(2, 0.0), InvalidArgument);
  EXPECT_THROW((void)ch.response(-1, 0.0), InvalidArgument);
}

// ---------------------------------------------------------------- Noise ---

TEST(Noise, AddAwgnPowerIsCorrect) {
  Rng rng(21);
  CVec x(100000, cdouble{0.0, 0.0});
  add_awgn(x, 0.5, rng);
  EXPECT_NEAR(mean_power(x), 0.5, 0.01);
}

TEST(Noise, ZeroPowerIsNoOp) {
  Rng rng(21);
  CVec x(8, cdouble{1.0, 1.0});
  add_awgn(x, 0.0, rng);
  for (const auto& v : x) EXPECT_EQ(v, (cdouble{1.0, 1.0}));
}

}  // namespace
}  // namespace wivi::rf
