// Tests for the Doppler spectrogram processor and the sim bodies (robot,
// multipath ghosts).
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/core/doppler.hpp"
#include "src/core/isar.hpp"
#include "src/dsp/peaks.hpp"
#include "src/sim/multipath.hpp"
#include "src/sim/robot.hpp"

namespace wivi {
namespace {

CVec mover(double vr, std::size_t n, const core::IsarConfig& cfg,
           double noise, Rng& rng) {
  CVec h(n);
  const double step = kTwoPi * 2.0 * vr * cfg.sample_period_sec / cfg.wavelength_m;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = step * static_cast<double>(i);
    h[i] = cdouble{std::cos(p), std::sin(p)} + rng.complex_gaussian(noise);
  }
  return h;
}

// ------------------------------------------------------------- Doppler ---

TEST(Doppler, ToneLandsAtTheRadialDopplerFrequency) {
  Rng rng(9);
  core::IsarConfig isar;
  const double vr = 0.8;  // -> 2 v / lambda = 12.8 Hz
  const CVec h = mover(vr, 512, isar, 1e-6, rng);
  const core::DopplerProcessor proc;
  const core::DopplerSpectrogram spec = proc.process(h);
  ASSERT_GT(spec.num_times(), 0u);
  // Strongest bin across the whole spectrogram.
  double best = -1.0;
  double best_freq = 0.0;
  for (const RVec& col : spec.columns) {
    const std::size_t f = dsp::argmax(col);
    if (col[f] > best) {
      best = col[f];
      best_freq = spec.freqs_hz[f];
    }
  }
  EXPECT_NEAR(best_freq, 2.0 * vr / isar.wavelength_m, 3.0);
  EXPECT_NEAR(spec.mean_radial_speed_mps(12.0), vr, 0.15);
}

TEST(Doppler, StaticSceneHasLowMotionEnergy) {
  Rng rng(10);
  CVec h(512, cdouble{0.5, -0.2});  // pure DC
  for (auto& v : h) v += rng.complex_gaussian(1e-8);
  // Without DC removal the energy concentrates at 0 Hz -> tiny ratio.
  core::DopplerProcessor::Config keep_dc;
  keep_dc.remove_dc = false;
  EXPECT_LT(core::DopplerProcessor(keep_dc).process(h).motion_energy_ratio(12.0),
            0.05);
  // With DC removal only flat noise remains -> the CFAR statistic stays
  // near its noise-only level, far below the detection threshold.
  const core::DopplerProcessor proc;
  EXPECT_LT(proc.process(h).peak_over_floor(12.0),
            core::NarrowbandMotionDetector::Config{}.threshold_peak_over_floor);
}

TEST(Doppler, DetectorSeparatesMotionFromStatic) {
  Rng rng(11);
  core::IsarConfig isar;
  const core::NarrowbandMotionDetector detector;
  CVec moving = mover(0.7, 512, isar, 1e-6, rng);
  for (auto& v : moving) v += cdouble{0.5, 0.1};  // DC on top
  CVec still(512, cdouble{0.5, 0.1});
  for (auto& v : still) v += rng.complex_gaussian(1e-6);
  EXPECT_TRUE(detector.detect(moving).motion);
  EXPECT_FALSE(detector.detect(still).motion);
}

TEST(Doppler, ConfigValidation) {
  core::DopplerProcessor::Config bad;
  bad.fft_size = 48;
  EXPECT_THROW(core::DopplerProcessor{bad}, InvalidArgument);
  core::NarrowbandMotionDetector::Config bad_thr;
  bad_thr.threshold_peak_over_floor = 0.5;
  EXPECT_THROW(core::NarrowbandMotionDetector{bad_thr}, InvalidArgument);
}

// ---------------------------------------------------- Robot and ghosts ---

TEST(Robot, SingleRigidScatterPoint) {
  const sim::Robot robot(sim::patrol({0, 2}, {0, 4}, 0.5, 10.0, 0.01));
  const auto pts = robot.scatter_points(1.0);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_GT(pts[0].rcs_m2, 0.0);
}

TEST(Robot, PatrolBouncesBetweenEndpoints) {
  const rf::Trajectory t = sim::patrol({0, 2}, {0, 4}, 1.0, 10.0, 0.01);
  EXPECT_NEAR(t.position(0.0).y, 2.0, 1e-9);
  EXPECT_NEAR(t.position(2.0).y, 4.0, 0.02);   // one leg = 2 s
  EXPECT_NEAR(t.position(4.0).y, 2.0, 0.02);   // and back
  // Speed is constant at 1 m/s away from the turnarounds.
  EXPECT_NEAR(t.velocity(1.0).norm(), 1.0, 0.05);
}

TEST(Ghost, MirrorsAcrossSideWall) {
  const sim::Robot robot(sim::patrol({1.0, 2.0}, {1.0, 4.0}, 0.5, 10.0, 0.01));
  const sim::GhostReflection ghost(&robot, /*mirror_x=*/3.5, /*rcs_scale=*/0.1);
  const auto src = robot.scatter_points(0.0);
  const auto img = ghost.scatter_points(0.0);
  ASSERT_EQ(img.size(), src.size());
  EXPECT_NEAR(img[0].pos.x, 2.0 * 3.5 - src[0].pos.x, 1e-12);
  EXPECT_NEAR(img[0].pos.y, src[0].pos.y, 1e-12);
  EXPECT_NEAR(img[0].rcs_m2, src[0].rcs_m2 * 0.1, 1e-12);
}

TEST(Ghost, ValidatesArguments) {
  EXPECT_THROW(sim::GhostReflection(nullptr, 0.0), InvalidArgument);
  const sim::Robot robot(sim::patrol({0, 2}, {0, 4}, 0.5, 5.0, 0.01));
  EXPECT_THROW(sim::GhostReflection(&robot, 0.0, 1.5), InvalidArgument);
}

}  // namespace
}  // namespace wivi
