// Tests for the ISAR emulated array (Eq. 5.1) and smoothed MUSIC (Eq. 5.3)
// on synthetic channel streams with known ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/core/tracker.hpp"
#include "src/dsp/peaks.hpp"
#include "src/sim/evaluate.hpp"
#include "src/sim/scenario.hpp"

namespace wivi::core {
namespace {

/// Channel stream of a point target approaching the device at radial speed
/// vr (m/s): h[n] = amp * exp(+j 2 pi * 2 vr T n / lambda) (round trip
/// phase advance as the range closes).
CVec synthetic_mover(double vr, std::size_t n, const IsarConfig& cfg,
                     double amp = 1.0, double phase0 = 0.3) {
  CVec h(n);
  const double step = kTwoPi * 2.0 * vr * cfg.sample_period_sec / cfg.wavelength_m;
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = phase0 + step * static_cast<double>(i);
    h[i] = amp * cdouble{std::cos(phi), std::sin(phi)};
  }
  return h;
}

double expected_angle_deg(double vr, const IsarConfig& cfg) {
  return std::asin(vr / cfg.assumed_speed_mps) * 180.0 / kPi;
}

// ---------------------------------------------------------------- ISAR ---

TEST(Isar, ElementSpacingIsRoundTripDistancePerSample) {
  IsarConfig cfg;
  // Delta = 2 v T (paper §5.1 footnote 2): 2 * 1 m/s * 3.2 ms = 6.4 mm.
  EXPECT_NEAR(element_spacing_m(cfg), 0.0064, 1e-9);
}

TEST(Isar, SteeringVectorUnitModulus) {
  const IsarConfig cfg;
  for (const auto& v : steering_vector(cfg, 37.0, 50))
    EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(Isar, SteeringVectorAtZeroAngleIsAllOnes) {
  const IsarConfig cfg;
  for (const auto& v : steering_vector(cfg, 0.0, 20))
    EXPECT_NEAR(std::abs(v - cdouble{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Isar, AngleGridSpansPlusMinus90) {
  const RVec grid = angle_grid_deg(1.0);
  EXPECT_EQ(grid.size(), 181u);
  EXPECT_DOUBLE_EQ(grid.front(), -90.0);
  EXPECT_NEAR(grid.back(), 90.0, 1e-9);
}

TEST(Isar, RejectsOutOfRangeAngle) {
  const IsarConfig cfg;
  EXPECT_THROW((void)steering_vector(cfg, 91.0, 8), InvalidArgument);
}

// Parameterized: a target at radial speed vr beamforms to asin(vr/v).
class IsarAngleSweep : public ::testing::TestWithParam<double> {};

TEST_P(IsarAngleSweep, BeamformPeakTracksRadialSpeed) {
  const double vr = GetParam();
  IsarConfig cfg;
  const CVec h = synthetic_mover(vr, 100, cfg);
  const RVec angles = angle_grid_deg(1.0);
  const RVec power = beamform_power(h, cfg, angles);
  const std::size_t peak = dsp::argmax(power);
  EXPECT_NEAR(angles[peak], expected_angle_deg(vr, cfg), 2.0)
      << "vr = " << vr;
}

INSTANTIATE_TEST_SUITE_P(RadialSpeeds, IsarAngleSweep,
                         ::testing::Values(-0.95, -0.7, -0.5, -0.25, 0.0, 0.25,
                                           0.5, 0.7, 0.95));

TEST(Isar, ApproachingTargetHasPositiveAngle) {
  // Sign semantics of §5.1: toward Wi-Vi = positive angle.
  IsarConfig cfg;
  const CVec h = synthetic_mover(+0.8, 100, cfg);
  const RVec angles = angle_grid_deg(1.0);
  const std::size_t peak = dsp::argmax(beamform_power(h, cfg, angles));
  EXPECT_GT(angles[peak], 0.0);
}

TEST(Isar, StaticResidualShowsAtZero) {
  IsarConfig cfg;
  const CVec h(100, cdouble{0.7, -0.2});  // pure DC (nulling residual)
  const RVec angles = angle_grid_deg(1.0);
  const std::size_t peak = dsp::argmax(beamform_power(h, cfg, angles));
  EXPECT_NEAR(angles[peak], 0.0, 1.0);
}

// --------------------------------------------------------------- MUSIC ---

TEST(Music, SmoothedCorrelationIsHermitianOfSubarraySize) {
  Rng rng(1);
  CVec h(100);
  for (auto& v : h) v = rng.complex_gaussian();
  MusicConfig cfg;
  cfg.subarray = 24;
  const SmoothedMusic music(cfg);
  const linalg::CMatrix r = music.smoothed_correlation(h);
  EXPECT_EQ(r.rows(), 24u);
  EXPECT_NEAR(r.hermitian_defect(), 0.0, 1e-10);
}

TEST(Music, ModelOrderSeparatesSignalFromNoiseFloor) {
  const SmoothedMusic music;
  // Two strong eigenvalues over a flat floor.
  RVec ev = {100.0, 40.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1};
  EXPECT_EQ(music.estimate_model_order(ev), 2);
  // All-noise: never returns 0 (the DC source always exists).
  RVec flat(8, 0.1);
  EXPECT_EQ(music.estimate_model_order(flat), 1);
}

TEST(Music, ModelOrderCappedByMaxSources) {
  MusicConfig cfg;
  cfg.max_sources = 3;
  const SmoothedMusic music(cfg);
  RVec ev = {100.0, 90.0, 80.0, 70.0, 60.0, 0.01, 0.01, 0.01};
  EXPECT_EQ(music.estimate_model_order(ev), 3);
}

TEST(Music, SingleMoverPeaksAtIsarAngle) {
  Rng rng(7);
  MusicConfig cfg;
  CVec h = synthetic_mover(0.5, 100, cfg.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-4);
  const SmoothedMusic music(cfg);
  const RVec angles = angle_grid_deg(1.0);
  const RVec spec = music.pseudospectrum(h, angles);
  EXPECT_NEAR(angles[dsp::argmax(spec)], 30.0, 3.0);
}

TEST(Music, ResolvesTwoCoherentMoversPlusDc) {
  // The §5.2 scenario: two humans (correlated reflections of the same
  // transmitted signal) plus the DC residual.
  Rng rng(11);
  MusicConfig cfg;
  const CVec m1 = synthetic_mover(+0.8, 100, cfg.isar, 1.0, 0.2);
  const CVec m2 = synthetic_mover(-0.45, 100, cfg.isar, 0.8, 1.9);
  CVec h(100);
  for (std::size_t i = 0; i < h.size(); ++i)
    h[i] = m1[i] + m2[i] + cdouble{0.6, 0.3} + rng.complex_gaussian(1e-4);

  int order = 0;
  const SmoothedMusic music(cfg);
  const RVec angles = angle_grid_deg(1.0);
  const RVec spec = music.pseudospectrum(h, angles, &order);
  EXPECT_GE(order, 3);  // two movers + DC

  // Find the three tallest, well-separated spectral peaks.
  RVec spec_db(spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) spec_db[i] = std::log10(spec[i]);
  const auto peaks = dsp::find_peaks(
      spec_db, {.min_height = -1e9, .min_distance = 8});
  ASSERT_GE(peaks.size(), 3u);
  // Collect peak angles sorted by spectral height.
  std::vector<std::pair<double, double>> by_height;  // (-value, angle)
  for (const auto& p : peaks) by_height.push_back({-p.value, angles[p.index]});
  std::sort(by_height.begin(), by_height.end());
  std::vector<double> top3 = {by_height[0].second, by_height[1].second,
                              by_height[2].second};
  std::sort(top3.begin(), top3.end());
  EXPECT_NEAR(top3[0], expected_angle_deg(-0.45, cfg.isar), 4.0);
  EXPECT_NEAR(top3[1], 0.0, 3.0);
  EXPECT_NEAR(top3[2], expected_angle_deg(0.8, cfg.isar), 4.0);
}

TEST(Music, SharperThanConventionalBeamforming) {
  // §5.2 footnote 6: MUSIC is a super-resolution technique; its peak is
  // narrower than the Eq. 5.1 beamformer's for the same data.
  Rng rng(5);
  MusicConfig cfg;
  CVec h = synthetic_mover(0.5, 100, cfg.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-5);
  const RVec angles = angle_grid_deg(1.0);
  const SmoothedMusic music(cfg);
  const RVec spec = music.pseudospectrum(h, angles);
  const RVec beam = beamform_power(h, cfg.isar, angles);

  auto half_power_width = [&](const RVec& s) {
    const std::size_t peak = dsp::argmax(s);
    const double half = s[peak] / 2.0;
    std::size_t lo = peak;
    std::size_t hi = peak;
    while (lo > 0 && s[lo] > half) --lo;
    while (hi + 1 < s.size() && s[hi] > half) ++hi;
    return hi - lo;
  };
  EXPECT_LT(half_power_width(spec), half_power_width(beam));
}

TEST(Music, RejectsWindowShorterThanSubarray) {
  MusicConfig cfg;
  cfg.subarray = 32;
  const SmoothedMusic music(cfg);
  EXPECT_THROW((void)music.smoothed_correlation(CVec(16)), InvalidArgument);
}

// ------------------------------------------------------------- Tracker ---

TEST(Tracker, ImageDimensionsFollowConfig) {
  Rng rng(3);
  MotionTracker::Config cfg;
  cfg.hop = 50;
  const MotionTracker tracker(cfg);
  CVec h = synthetic_mover(0.4, 1000, cfg.music.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-5);
  const AngleTimeImage img = tracker.process(h, 2.0);
  EXPECT_EQ(img.num_angles(), 181u);
  // Windows: floor((1000 - 100) / 50) + 1 = 19.
  EXPECT_EQ(img.num_times(), 19u);
  EXPECT_GT(img.times_sec.front(), 2.0);  // offset by half a window
}

TEST(Tracker, TracksChangingRadialSpeed) {
  // Speed ramps from +0.8 to -0.8 m/s; the dominant angle must swing from
  // positive to negative like the curved lines of Fig. 5-2(b).
  Rng rng(9);
  MotionTracker tracker;
  const IsarConfig isar;
  const std::size_t n = 2000;
  CVec h(n);
  double phase = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(n - 1);
    const double vr = 0.8 - 1.6 * frac;
    phase += kTwoPi * 2.0 * vr * isar.sample_period_sec / isar.wavelength_m;
    h[i] = cdouble{std::cos(phase), std::sin(phase)} + rng.complex_gaussian(1e-4);
  }
  const AngleTimeImage img = tracker.process(h);
  const RVec trace = tracker.dominant_angle_trace(img);
  ASSERT_GE(trace.size(), 10u);
  // Early columns positive (approaching), late columns negative (receding).
  EXPECT_GT(trace[1], 20.0);
  EXPECT_LT(trace[trace.size() - 2], -20.0);
}

TEST(Tracker, ColumnDbIsNonNegativeAndCapped) {
  Rng rng(13);
  MotionTracker tracker;
  CVec h = synthetic_mover(0.3, 300, tracker.config().music.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-5);
  const AngleTimeImage img = tracker.process(h);
  const RVec col = img.column_db(0, 60.0);
  for (double v : col) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 60.0);
  }
}

TEST(Tracker, RenderAsciiProducesGrid) {
  Rng rng(13);
  MotionTracker tracker;
  CVec h = synthetic_mover(0.3, 400, tracker.config().music.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-5);
  const AngleTimeImage img = tracker.process(h);
  const std::string art = render_ascii(img, 40, 21);
  EXPECT_GT(std::count(art.begin(), art.end(), '\n'), 20);
}

TEST(Tracker, RejectsTooShortStream) {
  const MotionTracker tracker;
  EXPECT_THROW((void)tracker.process(CVec(50)), InvalidArgument);
}

// ------------------------------------------- smoothed correlation oracle ---

using ldouble = long double;

/// Eq. 5.2 exactly as written: the direct O(S w'^2) sum over every
/// sub-array for every entry, in long double real arithmetic, sharing no
/// code with the production kernel. Row-major w' x w' (re, im) pairs.
std::vector<std::pair<ldouble, ldouble>> oracle_correlation(CSpan x,
                                                            std::size_t wp) {
  const std::size_t S = x.size() - wp + 1;
  std::vector<std::pair<ldouble, ldouble>> r(wp * wp);
  for (std::size_t i = 0; i < wp; ++i)
    for (std::size_t j = 0; j < wp; ++j) {
      ldouble re = 0.0L;
      ldouble im = 0.0L;
      for (std::size_t s = 0; s < S; ++s) {
        const ldouble ar = x[s + i].real();
        const ldouble ai = x[s + i].imag();
        const ldouble br = x[s + j].real();
        const ldouble bi = x[s + j].imag();
        re += ar * br + ai * bi;  // a * conj(b)
        im += ai * br - ar * bi;
      }
      r[i * wp + j] = {re / static_cast<ldouble>(S),
                       im / static_cast<ldouble>(S)};
    }
  return r;
}

/// The kernel's contracts on one window: within 1e-14 max|R| of the
/// oracle, an exactly real diagonal, and a lower triangle that is the
/// exact conjugate of the upper.
void expect_kernel_matches_oracle(CSpan x, std::size_t wp,
                                  const std::string& what) {
  linalg::CMatrix r;
  smoothed_correlation_into(x, wp, r);
  ASSERT_EQ(r.rows(), wp) << what;
  ASSERT_EQ(r.cols(), wp) << what;
  const auto ref = oracle_correlation(x, wp);
  ldouble max_abs = 0.0L;
  ldouble max_err = 0.0L;
  for (std::size_t i = 0; i < wp; ++i)
    for (std::size_t j = 0; j < wp; ++j) {
      const auto [re, im] = ref[i * wp + j];
      max_abs = std::max(max_abs, std::hypot(re, im));
      max_err = std::max(max_err, std::hypot(r(i, j).real() - re,
                                             r(i, j).imag() - im));
    }
  EXPECT_LE(max_err, 1e-14L * max_abs) << what;
  for (std::size_t i = 0; i < wp; ++i) {
    EXPECT_EQ(r(i, i).imag(), 0.0) << what << " diagonal " << i;
    for (std::size_t j = i + 1; j < wp; ++j) {
      EXPECT_EQ(r(j, i).real(), r(i, j).real()) << what << " " << i << "," << j;
      EXPECT_EQ(r(j, i).imag(), -r(i, j).imag()) << what << " " << i << "," << j;
    }
  }
}

TEST(SmoothedCorrelation, MatchesDirectOracleOnScenarioWorlds) {
  // Every column of the first three cases of each non-faulted scenario
  // family of base seed 1 (movers, crossings, occupancy, clutter,
  // interferers), at the default w = 100, w' = 32.
  const MotionTracker::Config cfg;
  const auto w = static_cast<std::size_t>(cfg.music.isar.window);
  const auto wp = static_cast<std::size_t>(cfg.music.subarray);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  constexpr std::size_t kCasesPerFamily = 3;
  std::size_t checked = 0;
  for (const sim::ScenarioFamily& fam : sim::scenario_families(1)) {
    if (fam.faults.has_value()) continue;
    for (std::size_t ci = 0; ci < std::min(kCasesPerFamily, fam.cases.size());
         ++ci) {
      const sim::ScenarioCase& sc = fam.cases[ci];
      const CVec h = sim::generate_scenario(sc.spec, sc.seed).h;
      for (std::size_t c = 0; c * hop + w <= h.size(); ++c) {
        expect_kernel_matches_oracle(
            CSpan(h).subspan(c * hop, w), wp,
            sc.spec.name + " column " + std::to_string(c));
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 1000u);
}

TEST(SmoothedCorrelation, MatchesDirectOracleOnHostileWindows) {
  constexpr std::size_t kW = 100;
  constexpr std::size_t kWp = 32;
  Rng rng(77);
  CVec noise(kW);
  for (auto& v : noise) v = rng.complex_gaussian();

  expect_kernel_matches_oracle(CVec(kW), kWp, "all zeros");
  expect_kernel_matches_oracle(CVec(kW, cdouble{0.7, -1.3}), kWp, "DC only");

  // 1e8 dynamic range: magnitudes log-uniform over [1e-4, 1e4], and a
  // single 1e4 spike at the first sample in an otherwise 1e-4 window (the
  // boundary term of every displacement step along row 0's diagonal).
  CVec wide(kW);
  for (std::size_t n = 0; n < kW; ++n)
    wide[n] = noise[n] * std::pow(10.0, rng.uniform(-4.0, 4.0));
  expect_kernel_matches_oracle(wide, kWp, "1e8 dynamic range");
  CVec spike(kW);
  for (std::size_t n = 0; n < kW; ++n) spike[n] = 1e-4 * noise[n];
  spike.front() = cdouble{1e4, -1e4};
  expect_kernel_matches_oracle(spike, kWp, "leading 1e4 spike");

  expect_kernel_matches_oracle(noise, 2, "w' = 2");
  expect_kernel_matches_oracle(noise, kW, "w' = w (S = 1)");
  expect_kernel_matches_oracle(CSpan(noise).first(5), 5, "w = w' = 5");
  expect_kernel_matches_oracle(CSpan(noise).first(1), 1, "w = w' = 1");
}

TEST(SmoothedCorrelation, RejectsAWindowShorterThanTheSubarray) {
  linalg::CMatrix r;
  EXPECT_THROW(smoothed_correlation_into(CVec(31), 32, r), InvalidArgument);
  EXPECT_THROW(smoothed_correlation_into(CVec(4), 0, r), InvalidArgument);
}

}  // namespace
}  // namespace wivi::core
