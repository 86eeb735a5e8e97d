// Golden-scenario regression suite: ~10 named generated worlds with pinned
// accuracy scores, plus reduced regressions for the two tracker edge cases
// the first full sweep surfaced (stalled-mover coast drift, near-parallel
// crossing id churn).
//
// The pins are tolerance bands, not exact values: one binary reproduces its
// own scores bit-identically (that is what scripts/check_accuracy.py gates),
// but this suite also runs under the ASan/UBSan CI build, whose codegen may
// round the MUSIC eigendecomposition differently. The bands are tight
// enough to catch any real behavioural regression (a lost track, a new
// ghost, an id churn relapse) and wide enough to absorb build-flag jitter.
//
// To regenerate the pinned values after an intentional pipeline change,
// run: ./test_scenario_regression --gtest_also_run_disabled_tests
//        --gtest_filter='*PrintGolden*'
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/api/session.hpp"
#include "src/common/error.hpp"
#include "src/core/tracker.hpp"
#include "src/sim/evaluate.hpp"
#include "src/sim/scenario.hpp"
#include "src/track/kalman.hpp"
#include "src/track/multi_tracker.hpp"

namespace wivi::sim {
namespace {

using track::MultiTargetTracker;
using track::TrackState;

// ------------------------------------------------------- Golden catalog ---

ScenarioMover ramp(double start, double end, double amp = 1.0,
                   double phase = 0.0) {
  ScenarioMover m;
  m.mobility = MobilityModel::kSpeedRamp;
  m.start_speed_mps = start;
  m.end_speed_mps = end;
  m.amplitude = amp;
  m.phase_rad = phase;
  return m;
}

/// One golden world: a named spec, its seed, and the pinned scores.
struct Golden {
  ScenarioSpec spec;
  std::uint64_t seed = 0;
  std::optional<fault::FaultSpec> faults;

  double ospa_deg = 0.0;
  double continuity = 0.0;
  double purity = 0.0;
  int id_switches = 0;
  int ghost_tracks = 0;
  double count_accuracy = 0.0;
};

Golden golden_walker() {
  Golden g;
  g.spec.name = "golden-walker";
  g.spec.duration_sec = 8.0;
  ScenarioMover m;
  m.mobility = MobilityModel::kRandomWalk;
  m.walk_speed_mps = 0.9;
  g.spec.movers.push_back(m);
  g.seed = 7;
  g.ospa_deg = 13.738;
  g.continuity = 0.864;
  g.purity = 1.000;
  g.id_switches = 3;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.247;
  return g;
}

Golden golden_crossing_pair() {
  Golden g;
  g.spec.name = "golden-crossing-pair";
  g.spec.duration_sec = 8.0;
  g.spec.movers.push_back(ramp(0.20, 0.88));
  g.spec.movers.push_back(ramp(0.90, 0.22, 0.85, 2.1));
  g.seed = 1001;
  g.ospa_deg = 0.867;
  g.continuity = 0.974;
  g.purity = 0.979;
  g.id_switches = 4;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.969;
  return g;
}

Golden golden_near_parallel() {
  // The id-churn stress case: both movers sweep upward through almost the
  // same angles, merging into one MUSIC peak for ~3.5 s mid-trace.
  Golden g;
  g.spec.name = "golden-near-parallel";
  g.spec.duration_sec = 8.0;
  g.spec.movers.push_back(ramp(0.26, 0.88));
  g.spec.movers.push_back(ramp(0.36, 0.78, 0.85, 2.1));
  g.seed = 42;
  g.ospa_deg = 1.341;
  g.continuity = 0.979;
  g.purity = 0.568;
  g.id_switches = 2;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.979;
  return g;
}

Golden golden_near_dc() {
  // A slow mover that starts inside the DC-exclusion band (invisible by
  // physics) and emerges from it mid-trace.
  Golden g;
  g.spec.name = "golden-near-dc";
  g.spec.duration_sec = 8.0;
  g.spec.movers.push_back(ramp(0.05, 0.50));
  g.seed = 13;
  g.ospa_deg = 1.089;
  g.continuity = 0.952;
  g.purity = 1.000;
  g.id_switches = 0;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.969;
  return g;
}

Golden golden_clutter_only() {
  // No truth targets at all: every confirmed track is a ghost.
  Golden g;
  g.spec.name = "golden-clutter-only";
  g.spec.duration_sec = 8.0;
  ClutterSpec fan;
  fan.kind = ClutterKind::kFan;
  fan.pos = {1.8, 2.2};
  fan.amplitude = 0.18;
  fan.rate_hz = 2.5;
  g.spec.clutter.push_back(fan);
  ClutterSpec pet;
  pet.kind = ClutterKind::kPet;
  pet.pos = {-1.5, 3.0};
  pet.amplitude = 0.12;
  pet.extent_m = 0.4;
  g.spec.clutter.push_back(pet);
  g.seed = 99;
  g.ospa_deg = 20.000;
  g.continuity = 1.000;
  g.purity = 1.000;
  g.id_switches = 0;
  g.ghost_tracks = 2;
  g.count_accuracy = 0.021;
  return g;
}

Golden golden_high_count() {
  Golden g;
  g.spec.name = "golden-high-count";
  g.spec.duration_sec = 8.0;
  g.spec.movers.push_back(ramp(0.75, 0.75, 1.0, 0.0));
  g.spec.movers.push_back(ramp(-0.60, -0.60, 0.9, 1.3));
  g.spec.movers.push_back(ramp(0.45, 0.45, 0.8, 2.6));
  g.spec.movers.push_back(ramp(-0.82, -0.82, 0.7, 3.9));
  g.seed = 17;
  g.ospa_deg = 0.628;
  g.continuity = 0.979;
  g.purity = 1.000;
  g.id_switches = 0;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.979;
  return g;
}

Golden golden_staggered() {
  Golden g;
  g.spec.name = "golden-staggered";
  g.spec.duration_sec = 8.0;
  ScenarioMover a = ramp(0.70, 0.70);
  a.exit_sec = 5.0;
  ScenarioMover b = ramp(-0.65, -0.65, 0.9, 1.3);
  b.enter_sec = 1.5;
  ScenarioMover c = ramp(0.50, 0.50, 0.8, 2.6);
  c.enter_sec = 3.0;
  c.exit_sec = 7.0;
  g.spec.movers.push_back(a);
  g.spec.movers.push_back(b);
  g.spec.movers.push_back(c);
  g.seed = 23;
  g.ospa_deg = 4.230;
  g.continuity = 0.974;
  g.purity = 1.000;
  g.id_switches = 0;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.577;
  return g;
}

Golden golden_stall() {
  // The count-hysteresis stress case: a waypoint mover walks in, pauses
  // 2.5 s (fades into the DC band), then walks on.
  Golden g;
  g.spec.name = "golden-stall";
  g.spec.duration_sec = 8.0;
  ScenarioMover m;
  m.mobility = MobilityModel::kWaypoint;
  m.start = {-2.0, 2.0};
  m.waypoints.push_back({{1.5, 3.2}, 1.0, 2.5});
  m.waypoints.push_back({{-1.0, 4.2}, 1.0, 0.0});
  m.amplitude = 0.9;
  m.phase_rad = 5.1;
  g.spec.movers.push_back(m);
  g.seed = 99;
  g.ospa_deg = 12.080;
  g.continuity = 0.875;
  g.purity = 1.000;
  g.id_switches = 1;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.546;
  return g;
}

Golden golden_interferer_burst() {
  Golden g;
  g.spec.name = "golden-interferer-burst";
  g.spec.duration_sec = 8.0;
  g.spec.movers.push_back(ramp(0.25, 0.85));
  InterfererSpec intf;
  intf.burst_prob = 0.35;
  intf.burst_sec = 0.4;
  intf.power = 4e-3;
  g.spec.interferer = intf;
  g.seed = 31;
  g.ospa_deg = 0.613;
  g.continuity = 0.979;
  g.purity = 1.000;
  g.id_switches = 0;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.979;
  return g;
}

Golden golden_faulted_walker() {
  Golden g;
  g.spec.name = "golden-faulted-walker";
  g.spec.duration_sec = 8.0;
  ScenarioMover m;
  m.mobility = MobilityModel::kRandomWalk;
  m.walk_speed_mps = 0.85;
  g.spec.movers.push_back(m);
  g.seed = 57;
  fault::FaultSpec f;
  f.seed = 0xFA17;
  f.drop_prob = 0.05;
  f.duplicate_prob = 0.03;
  f.reorder_prob = 0.02;
  f.gap_prob = 0.03;
  f.corrupt_prob = 0.04;
  f.corrupt_burst = 4;
  f.silence_chunks = 3;
  g.faults = f;
  g.ospa_deg = 16.064;
  g.continuity = 0.732;
  g.purity = 1.000;
  g.id_switches = 3;
  g.ghost_tracks = 0;
  g.count_accuracy = 0.356;
  return g;
}

std::vector<Golden> golden_catalog() {
  return {golden_walker(),          golden_crossing_pair(),
          golden_near_parallel(),   golden_near_dc(),
          golden_clutter_only(),    golden_high_count(),
          golden_staggered(),       golden_stall(),
          golden_interferer_burst(), golden_faulted_walker()};
}

ScenarioScores score_of(const Golden& g) {
  EvaluatorConfig cfg;
  cfg.faults = g.faults;
  return Evaluator(cfg).score(g.spec, g.seed);
}

// Tolerance bands (see the file comment): behavioural, not bit-exact.
void expect_pinned(const Golden& g) {
  const ScenarioScores s = score_of(g);
  SCOPED_TRACE(g.spec.name);
  EXPECT_NEAR(s.ospa_deg, g.ospa_deg, 1.0);
  EXPECT_NEAR(s.continuity, g.continuity, 0.08);
  EXPECT_NEAR(s.purity, g.purity, 0.08);
  EXPECT_LE(std::abs(s.id_switches - g.id_switches), 2);
  EXPECT_LE(std::abs(s.ghost_tracks - g.ghost_tracks), 1);
  EXPECT_NEAR(s.count_accuracy, g.count_accuracy, 0.10);
}

}  // namespace
}  // namespace wivi::sim

namespace wivi::sim {
namespace {

TEST(GoldenScenario, Walker) { expect_pinned(golden_walker()); }
TEST(GoldenScenario, CrossingPair) { expect_pinned(golden_crossing_pair()); }
TEST(GoldenScenario, NearParallel) { expect_pinned(golden_near_parallel()); }
TEST(GoldenScenario, NearDc) { expect_pinned(golden_near_dc()); }
TEST(GoldenScenario, ClutterOnly) { expect_pinned(golden_clutter_only()); }
TEST(GoldenScenario, HighCount) { expect_pinned(golden_high_count()); }
TEST(GoldenScenario, Staggered) { expect_pinned(golden_staggered()); }
TEST(GoldenScenario, Stall) { expect_pinned(golden_stall()); }
TEST(GoldenScenario, InterfererBurst) {
  expect_pinned(golden_interferer_burst());
}
TEST(GoldenScenario, FaultedWalker) {
  const Golden g = golden_faulted_walker();
  expect_pinned(g);
  // Accuracy under faults is only honest if corruption surfaced as typed
  // rejections, never as silently wrong samples.
  const ScenarioScores s = score_of(g);
  EXPECT_TRUE(s.faulted);
  EXPECT_GE(s.chunks_rejected, 1);
}

// --------------------------------------- Tracker edge-case regressions ---
//
// Reduced reproductions of the two pathologies the first full sweep
// surfaced, pinned against the legacy configuration that exhibited them.

/// Scripted angle-time image: column c holds dB bumps at scripted[c] over
/// a unit floor, 0.1 s per column (test_track_lifecycle's helper).
core::AngleTimeImage scripted_image(
    const std::vector<std::vector<std::pair<double, double>>>& scripted) {
  core::AngleTimeImage img;
  img.angles_deg = core::angle_grid_deg(1.0);
  for (std::size_t c = 0; c < scripted.size(); ++c) {
    RVec col(img.angles_deg.size(), 1.0);
    for (const auto& [angle, db] : scripted[c]) {
      const auto idx = static_cast<std::size_t>(std::lround(angle + 90.0));
      col[idx] = std::pow(10.0, db / 10.0);
    }
    img.columns.push_back(std::move(col));
    img.model_orders.push_back(1);
    img.times_sec.push_back(0.1 * static_cast<double>(c));
  }
  return img;
}

TEST(TrackerEdgeCase, DampVelocityScalesVelocityStateOnly) {
  track::AngleKalman k(track::KalmanConfig{}, 10.0);
  k.predict(0.1);
  k.update(14.0);  // pulls the velocity state away from zero
  ASSERT_NE(k.velocity_dps(), 0.0);
  const double angle = k.angle_deg();
  const double vel = k.velocity_dps();
  k.damp_velocity(0.5);
  EXPECT_DOUBLE_EQ(k.angle_deg(), angle);
  EXPECT_DOUBLE_EQ(k.velocity_dps(), vel * 0.5);
  EXPECT_THROW(k.damp_velocity(0.0), InvalidArgument);
  EXPECT_THROW(k.damp_velocity(1.5), InvalidArgument);
}

TEST(TrackerEdgeCase, CoastDampingParksStalledPrediction) {
  // A target sweeps 20 -> 58 deg at 20 deg/s, then vanishes (stalls into
  // the DC band) for 30 columns. Legacy undamped coasting extrapolates the
  // stale 20 deg/s the whole way; the damped default decays the velocity
  // after coast_damp_after columns so the prediction parks.
  std::vector<std::vector<std::pair<double, double>>> script;
  for (int c = 0; c < 20; ++c)
    script.push_back({{20.0 + 2.0 * c, 15.0}});
  for (int c = 0; c < 30; ++c) script.push_back({});
  const core::AngleTimeImage img = scripted_image(script);

  MultiTargetTracker::Config damped;
  damped.max_coast_columns = 40;  // outlast the scripted fade
  MultiTargetTracker::Config legacy = damped;
  legacy.coast_velocity_damping = 1.0;  // the pre-fix lifecycle
  legacy.coast_damp_after = 0;

  const auto final_state = [&](const MultiTargetTracker::Config& cfg) {
    MultiTargetTracker tracker(cfg);
    for (std::size_t t = 0; t < img.num_times(); ++t) tracker.step(img, t);
    const auto& snaps = tracker.snapshots();
    EXPECT_EQ(snaps.size(), 1u);
    return snaps.empty() ? track::TrackSnapshot{} : snaps.front();
  };

  const track::TrackSnapshot d = final_state(damped);
  const track::TrackSnapshot l = final_state(legacy);
  // Legacy runs away: ~58 + 20 deg/s * 3 s of coasting.
  EXPECT_GT(l.angle_deg, 95.0);
  EXPECT_GT(l.velocity_dps, 15.0);
  // Damped parks: the velocity decays to ~0 and the prediction stays
  // within about a gate-width of the fade point.
  EXPECT_LT(d.angle_deg, 80.0);
  EXPECT_NEAR(d.velocity_dps, 0.0, 0.5);
  EXPECT_EQ(d.state, TrackState::kCoasting);
}

TEST(TrackerEdgeCase, OcclusionForgivenessSurvivesNearParallelMerge) {
  // The golden-near-parallel world: two movers merge into one MUSIC peak
  // for ~45 columns mid-trace. With occlusion forgiveness the hidden
  // track coasts through the merge and re-acquires its mover on the far
  // side; the legacy lifecycle exhausts its coast budget mid-merge, kills
  // the track, and re-births the mover under a fresh id.
  const Golden g = golden_near_parallel();
  const GeneratedScenario sc = generate_scenario(g.spec, g.seed);
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.track = api::TrackStage{};
  api::Session session(std::move(spec));
  session.run(sc.h);

  const auto confirmed_count = [](const std::vector<track::TrackHistory>& hs) {
    int n = 0;
    for (const track::TrackHistory& h : hs) n += h.confirmed_ever;
    return n;
  };

  // Default (occlusion-aware): one track per mover, nothing reborn.
  EXPECT_EQ(confirmed_count(session.multi_tracker().histories()), 2);

  MultiTargetTracker::Config legacy;
  legacy.max_occluded_columns = 0;  // every miss consumes coast budget
  legacy.coast_velocity_damping = 1.0;
  const auto legacy_histories = track::track_image(session.image(), legacy);
  EXPECT_GE(confirmed_count(legacy_histories), 3);
}

TEST(GoldenScenario, DISABLED_PrintGoldenScores) {
  // Regeneration aid, not a test: prints the current scores of every
  // golden world in the catalog order.
  for (const Golden& g : golden_catalog()) {
    const ScenarioScores s = score_of(g);
    std::printf(
        "%-24s ospa=%.3f cont=%.3f pur=%.3f sw=%d gh=%d cacc=%.3f "
        "cmae=%.3f rej=%d\n",
        s.name.c_str(), s.ospa_deg, s.continuity, s.purity, s.id_switches,
        s.ghost_tracks, s.count_accuracy, s.count_mae, s.chunks_rejected);
  }
}

}  // namespace
}  // namespace wivi::sim
