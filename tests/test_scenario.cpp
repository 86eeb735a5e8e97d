// Unit tests for the scenario factory (src/sim/scenario.hpp): pure seeded
// generation, the validate() rejection matrix, truth consistency with the
// compiled physics, and streaming==batch parity on generated traces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "src/api/session.hpp"
#include "src/common/error.hpp"
#include "src/sim/scenario.hpp"

namespace wivi::sim {
namespace {

ScenarioSpec walker_spec() {
  ScenarioSpec spec;
  spec.name = "walker";
  spec.duration_sec = 4.0;
  ScenarioMover m;
  m.mobility = MobilityModel::kRandomWalk;
  m.walk_speed_mps = 0.9;
  spec.movers.push_back(m);
  return spec;
}

ScenarioSpec ramp_spec(double start, double end) {
  ScenarioSpec spec;
  spec.name = "ramp";
  spec.duration_sec = 4.0;
  ScenarioMover m;
  m.mobility = MobilityModel::kSpeedRamp;
  m.start_speed_mps = start;
  m.end_speed_mps = end;
  spec.movers.push_back(m);
  return spec;
}

// ---------------------------------------------------------- Determinism ---

TEST(ScenarioGenerator, SameSpecAndSeedIsBitIdentical) {
  const ScenarioSpec spec = walker_spec();
  const GeneratedScenario a = generate_scenario(spec, 42);
  const GeneratedScenario b = generate_scenario(spec, 42);

  ASSERT_EQ(a.h.size(), b.h.size());
  ASSERT_FALSE(a.h.empty());
  for (std::size_t i = 0; i < a.h.size(); ++i) {
    ASSERT_EQ(a.h[i].real(), b.h[i].real()) << "sample " << i;
    ASSERT_EQ(a.h[i].imag(), b.h[i].imag()) << "sample " << i;
  }
  ASSERT_EQ(a.truth.movers.size(), b.truth.movers.size());
  for (std::size_t k = 0; k < a.truth.movers.size(); ++k) {
    const MoverTruth& ta = a.truth.movers[k];
    const MoverTruth& tb = b.truth.movers[k];
    EXPECT_EQ(ta.enter_sample, tb.enter_sample);
    EXPECT_EQ(ta.exit_sample, tb.exit_sample);
    ASSERT_EQ(ta.radial_speed_mps.size(), tb.radial_speed_mps.size());
    for (std::size_t i = 0; i < ta.radial_speed_mps.size(); ++i)
      ASSERT_EQ(ta.radial_speed_mps[i], tb.radial_speed_mps[i]);
  }
}

TEST(ScenarioGenerator, DifferentSeedsDiffer) {
  const ScenarioSpec spec = walker_spec();
  const GeneratedScenario a = generate_scenario(spec, 1);
  const GeneratedScenario b = generate_scenario(spec, 2);
  ASSERT_EQ(a.h.size(), b.h.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.h.size(); ++i) differing += a.h[i] != b.h[i];
  EXPECT_GT(differing, a.h.size() / 2);  // a reseeded walk diverges at once
}

TEST(ScenarioGenerator, SubStreamsAreSeedIsolated) {
  // Adding a clutter source must not reshuffle the walker's random-walk
  // draws: sub-streams are salted SplitMix64 derivations, not shared
  // generator state.
  const ScenarioSpec bare = walker_spec();
  ScenarioSpec cluttered = bare;
  ClutterSpec fan;
  fan.kind = ClutterKind::kFan;
  fan.pos = {1.5, 2.5};
  cluttered.clutter.push_back(fan);

  const GeneratedScenario a = generate_scenario(bare, 7);
  const GeneratedScenario b = generate_scenario(cluttered, 7);
  ASSERT_EQ(a.truth.movers.size(), b.truth.movers.size());
  const RVec& va = a.truth.movers[0].radial_speed_mps;
  const RVec& vb = b.truth.movers[0].radial_speed_mps;
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) ASSERT_EQ(va[i], vb[i]);
}

TEST(ScenarioGenerator, TraceCoversDuration) {
  const GeneratedScenario sc = generate_scenario(walker_spec(), 3);
  EXPECT_GT(sc.sample_rate_hz, 0.0);
  EXPECT_EQ(sc.h.size(),
            static_cast<std::size_t>(
                std::llround(4.0 * sc.sample_rate_hz)));
  EXPECT_EQ(sc.truth.sample_rate_hz, sc.sample_rate_hz);
  EXPECT_EQ(sc.seed, 3u);
}

// ----------------------------------------------------- Rejection matrix ---

TEST(ScenarioValidate, AcceptsTheDefaultWalker) {
  EXPECT_NO_THROW(walker_spec().validate());
}

TEST(ScenarioValidate, RejectsBadRooms) {
  ScenarioSpec spec = walker_spec();
  spec.room.width_m = 0.0;
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.room.width_m = -3.0;
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.room.width_m = 0.5;  // positive, but no walkable interior remains
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

TEST(ScenarioValidate, RejectsBadDurations) {
  ScenarioSpec spec = walker_spec();
  spec.duration_sec = 0.0;
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.duration_sec = -1.0;
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.duration_sec = 0.2;  // shorter than one ISAR window (100 samples)
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

TEST(ScenarioValidate, RejectsZeroSignalSources) {
  ScenarioSpec spec;
  spec.duration_sec = 4.0;  // no movers, no clutter
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.interferer = InterfererSpec{};  // an interferer is not a source
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

TEST(ScenarioValidate, RejectsBadPresenceWindows) {
  ScenarioSpec spec = walker_spec();
  spec.movers[0].amplitude = 0.0;
  EXPECT_THROW(spec.validate(), InvalidArgument);

  spec = walker_spec();
  spec.movers[0].enter_sec = -0.5;
  EXPECT_THROW(spec.validate(), InvalidArgument);

  spec = walker_spec();
  spec.movers[0].enter_sec = 2.0;
  spec.movers[0].exit_sec = 2.0;  // exit must come after enter
  EXPECT_THROW(spec.validate(), InvalidArgument);

  spec = walker_spec();
  spec.movers[0].enter_sec = 5.0;  // enters after the 4 s trace ends
  EXPECT_THROW(spec.validate(), InvalidArgument);

  spec = walker_spec();
  spec.movers[0].enter_sec = 1.0;
  spec.movers[0].exit_sec = 1.05;  // present for less than 0.1 s
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

TEST(ScenarioValidate, RejectsBadWaypointPaths) {
  ScenarioSpec spec = walker_spec();
  spec.movers[0].mobility = MobilityModel::kWaypoint;
  EXPECT_THROW(spec.validate(), InvalidArgument);  // no waypoints

  spec.movers[0].waypoints.push_back({{1.0, 3.0}, 1.0, 0.0});
  EXPECT_NO_THROW(spec.validate());

  ScenarioSpec bad = spec;
  bad.movers[0].waypoints[0].pos = {100.0, 3.0};  // outside the interior
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = spec;
  bad.movers[0].start = {0.0, 0.0};  // in front of the wall
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = spec;
  bad.movers[0].waypoints[0].speed_mps = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = spec;
  bad.movers[0].waypoints[0].pause_sec = -1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(ScenarioValidate, RejectsBadSpeeds) {
  ScenarioSpec spec = walker_spec();
  spec.movers[0].walk_speed_mps = 0.0;
  EXPECT_THROW(spec.validate(), InvalidArgument);

  // Ramp speeds beyond the assumed ISAR speed would alias past +-90 deg.
  EXPECT_THROW(ramp_spec(1.2, 0.5).validate(), InvalidArgument);
  EXPECT_THROW(ramp_spec(0.5, -1.2).validate(), InvalidArgument);
  EXPECT_NO_THROW(ramp_spec(-1.0, 1.0).validate());
}

TEST(ScenarioValidate, RejectsBadClutter) {
  ScenarioSpec spec = walker_spec();
  ClutterSpec c;
  c.pos = {1.5, 2.5};

  c.amplitude = 0.0;
  spec.clutter.assign(1, c);
  EXPECT_THROW(spec.validate(), InvalidArgument);

  c.amplitude = 0.15;
  c.extent_m = 0.0;
  spec.clutter.assign(1, c);
  EXPECT_THROW(spec.validate(), InvalidArgument);

  c.extent_m = 0.05;
  c.rate_hz = 0.0;  // a fan must oscillate
  spec.clutter.assign(1, c);
  EXPECT_THROW(spec.validate(), InvalidArgument);

  c.rate_hz = 3.0;
  c.pos = {0.0, -5.0};  // outside the interior
  spec.clutter.assign(1, c);
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

TEST(ScenarioValidate, RejectsBadInterfererAndProtocol) {
  ScenarioSpec spec = walker_spec();
  spec.interferer = InterfererSpec{};
  spec.interferer->burst_prob = 1.5;
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.interferer->burst_prob = 0.3;
  spec.interferer->burst_sec = 0.0;
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.interferer->burst_sec = 0.5;
  spec.interferer->power = 0.0;
  EXPECT_THROW(spec.validate(), InvalidArgument);

  spec = walker_spec();
  spec.protocol.num_pilot_bins = 0;
  EXPECT_THROW(spec.validate(), InvalidArgument);
  spec.protocol.num_pilot_bins = 1 << 20;  // more than used subcarriers
  EXPECT_THROW(spec.validate(), InvalidArgument);
}

TEST(ScenarioValidate, GenerateValidatesFirst) {
  ScenarioSpec spec;  // no signal sources
  spec.duration_sec = 4.0;
  EXPECT_THROW((void)generate_scenario(spec, 1), InvalidArgument);
}

// ----------------------------------------------------- Truth consistency ---

TEST(ScenarioTruth, AngleConventionMatchesIsar) {
  EXPECT_DOUBLE_EQ(truth_angle_deg(0.0), 0.0);
  EXPECT_DOUBLE_EQ(truth_angle_deg(1.0), 90.0);
  EXPECT_DOUBLE_EQ(truth_angle_deg(-1.0), -90.0);
  EXPECT_DOUBLE_EQ(truth_angle_deg(2.0), 90.0);  // clamped, not NaN
  EXPECT_NEAR(truth_angle_deg(0.5), 30.0, 1e-12);
}

TEST(ScenarioTruth, SpeedRampTruthTracksTheRamp) {
  const GeneratedScenario sc = generate_scenario(ramp_spec(0.2, 0.8), 11);
  ASSERT_EQ(sc.truth.movers.size(), 1u);
  const RVec& v = sc.truth.movers[0].radial_speed_mps;
  ASSERT_GT(v.size(), 100u);
  EXPECT_NEAR(v.front(), 0.2, 0.01);
  EXPECT_NEAR(v.back(), 0.8, 0.01);
  // Monotone non-decreasing ramp (up to one-sample discretisation).
  for (std::size_t i = 2; i < v.size(); ++i) EXPECT_GE(v[i] + 1e-9, v[i - 1]);
}

TEST(ScenarioTruth, PresenceWindowsDriveCounts) {
  ScenarioSpec spec = ramp_spec(0.6, 0.6);
  ScenarioMover late;
  late.mobility = MobilityModel::kSpeedRamp;
  late.start_speed_mps = -0.5;
  late.end_speed_mps = -0.5;
  late.enter_sec = 1.5;
  late.exit_sec = 3.0;
  spec.movers.push_back(late);

  const GeneratedScenario sc = generate_scenario(spec, 5);
  EXPECT_TRUE(sc.truth.present(0, 0.5));
  EXPECT_FALSE(sc.truth.present(1, 0.5));
  EXPECT_TRUE(sc.truth.present(1, 2.0));
  EXPECT_FALSE(sc.truth.present(1, 3.5));
  EXPECT_EQ(sc.truth.max_concurrent(), 2);
  EXPECT_DOUBLE_EQ(sc.truth.radial_speed_mps_at(1, 3.5), 0.0);  // absent
  EXPECT_DOUBLE_EQ(sc.truth.angle_deg_at(1, 3.5), 0.0);
  EXPECT_NEAR(sc.truth.angle_deg_at(0, 0.5), truth_angle_deg(0.6), 0.5);
}

TEST(ScenarioTruth, WaypointPauseFadesIntoDC) {
  // A mover that walks, dwells, and walks again: its truth radial speed
  // must be ~0 during the dwell (the count-hysteresis stress physics).
  ScenarioSpec spec;
  spec.duration_sec = 6.0;
  ScenarioMover m;
  m.mobility = MobilityModel::kWaypoint;
  m.start = {-1.5, 2.0};
  m.waypoints.push_back({{1.0, 3.0}, 1.0, 2.0});
  m.waypoints.push_back({{-1.0, 4.0}, 1.0, 0.0});
  spec.movers.push_back(m);

  const GeneratedScenario sc = generate_scenario(spec, 9);
  const RVec& v = sc.truth.movers[0].radial_speed_mps;
  // Leg 1 is ~2.7 m at 1 m/s; the dwell covers roughly t in [3.0, 4.7].
  const auto at = [&](double t) {
    return v[static_cast<std::size_t>(t * sc.sample_rate_hz)];
  };
  EXPECT_GT(std::abs(at(1.0)), 0.05);   // walking
  EXPECT_NEAR(at(3.8), 0.0, 1e-9);      // parked mid-dwell
  EXPECT_GT(std::abs(at(5.5)), 0.05);   // walking again
}

// --------------------------------------------- Streaming==batch parity ---

TEST(ScenarioPipeline, StreamingEqualsBatchOnGeneratedTrace) {
  ScenarioSpec spec = ramp_spec(0.25, 0.85);
  ScenarioMover second;
  second.mobility = MobilityModel::kSpeedRamp;
  second.start_speed_mps = -0.8;
  second.end_speed_mps = -0.4;
  second.phase_rad = 2.1;
  spec.movers.push_back(second);
  const GeneratedScenario sc = generate_scenario(spec, 21);

  api::PipelineSpec ps;
  ps.image.emit_columns = false;
  ps.count = api::CountStage{};

  api::Session batch{ps};
  batch.run(sc.h);

  api::Session streamed{ps};
  const CSpan h(sc.h);
  const std::size_t chunk = 171;  // deliberately hop-misaligned
  for (std::size_t i = 0; i < h.size(); i += chunk)
    streamed.push(h.subspan(i, std::min(chunk, h.size() - i)));
  streamed.finish();

  const core::AngleTimeImage& a = batch.image();
  const core::AngleTimeImage& b = streamed.image();
  ASSERT_EQ(a.num_times(), b.num_times());
  ASSERT_EQ(a.num_angles(), b.num_angles());
  ASSERT_GT(a.num_times(), 10u);
  for (std::size_t t = 0; t < a.num_times(); ++t) {
    ASSERT_EQ(a.times_sec[t], b.times_sec[t]);
    for (std::size_t r = 0; r < a.num_angles(); ++r)
      ASSERT_EQ(a.columns[t][r], b.columns[t][r])
          << "column " << t << " row " << r;
  }
  EXPECT_EQ(batch.spatial_variance(), streamed.spatial_variance());
}

// ----------------------------------------------------------------- Misc ---

TEST(ScenarioNames, ToStringCoversEveryEnumerator) {
  EXPECT_STREQ(to_string(MobilityModel::kWaypoint), "waypoint");
  EXPECT_STREQ(to_string(MobilityModel::kRandomWalk), "random-walk");
  EXPECT_STREQ(to_string(MobilityModel::kSpeedRamp), "speed-ramp");
  EXPECT_STREQ(to_string(ClutterKind::kFan), "fan");
  EXPECT_STREQ(to_string(ClutterKind::kPet), "pet");
}

}  // namespace
}  // namespace wivi::sim
