// Property-based sweeps and failure injection across the library.
//
// These encode the paper's *laws* rather than point values: angular
// resolution scales with aperture (§1.2: "to achieve a narrow beam, the
// human needs to move by about 4 wavelengths"), nulling depth degrades
// monotonically with noise and quantization, decoding survives every
// subject and orientation, bad inputs fail loudly instead of silently, and
// smoothed MUSIC obeys the metamorphic laws of its own math (scaling,
// phase rotation and conjugation of the stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "src/common/constants.hpp"
#include "src/common/db.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/core/nulling.hpp"
#include "src/core/tracker.hpp"
#include "src/dsp/peaks.hpp"
#include "src/phy/link.hpp"
#include "src/sim/evaluate.hpp"
#include "src/sim/protocols.hpp"
#include "src/sim/scenario.hpp"

namespace wivi {
namespace {

CVec mover_with_noise(double vr, std::size_t n, const core::IsarConfig& cfg,
                      double noise_power, Rng& rng) {
  CVec h(n);
  const double step =
      kTwoPi * 2.0 * vr * cfg.sample_period_sec / cfg.wavelength_m;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = step * static_cast<double>(i);
    h[i] = cdouble{std::cos(p), std::sin(p)} + rng.complex_gaussian(noise_power);
  }
  return h;
}

double beam_width_deg(RSpan spectrum, RSpan angles) {
  const std::size_t peak = dsp::argmax(spectrum);
  const double half = spectrum[peak] / 2.0;
  std::size_t lo = peak;
  std::size_t hi = peak;
  while (lo > 0 && spectrum[lo] > half) --lo;
  while (hi + 1 < spectrum.size() && spectrum[hi] > half) ++hi;
  return angles[hi] - angles[lo];
}

// ---------------------------------------------------- Aperture physics ---

TEST(ApertureLaw, BeamNarrowsWithTargetMotion) {
  // §1.2: ISAR resolution depends on how far the target moves. Windows
  // spanning larger apertures (more wavelengths of motion) must give
  // monotonically narrower beams.
  Rng rng(1);
  const core::IsarConfig cfg;
  const RVec angles = core::angle_grid_deg(0.5);
  double prev_width = 1e9;
  for (std::size_t w : {16u, 32u, 64u, 128u}) {
    const CVec h = mover_with_noise(0.5, w, cfg, 1e-6, rng);
    const RVec spec = core::beamform_power(h, cfg, angles);
    const double width = beam_width_deg(spec, angles);
    EXPECT_LT(width, prev_width) << "window " << w;
    prev_width = width;
  }
}

TEST(ApertureLaw, FourWavelengthsGiveNarrowBeam) {
  // The paper's rule of thumb: ~4 wavelengths (~50 cm) of motion gives a
  // usefully narrow beam. 4 lambda of aperture = w * Delta = 0.5 m ->
  // w = 78 samples at the default spacing.
  Rng rng(2);
  const core::IsarConfig cfg;
  const RVec angles = core::angle_grid_deg(0.5);
  const auto w = static_cast<std::size_t>(
      std::round(4.0 * cfg.wavelength_m / core::element_spacing_m(cfg)));
  const CVec h = mover_with_noise(0.4, w, cfg, 1e-6, rng);
  const RVec spec = core::beamform_power(h, cfg, angles);
  EXPECT_LT(beam_width_deg(spec, angles), 20.0);
}

// --------------------------------------------------- MUSIC SNR sweep ---

class MusicSnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(MusicSnrSweep, AngleEstimateStaysAccurate) {
  const double snr_db = GetParam();
  Rng rng(static_cast<std::uint64_t>(snr_db * 10.0) + 77);
  core::MusicConfig cfg;
  const CVec h =
      mover_with_noise(0.6, 100, cfg.isar, from_db(-snr_db), rng);
  const core::SmoothedMusic music(cfg);
  const RVec angles = core::angle_grid_deg(1.0);
  const RVec spec = music.pseudospectrum(h, angles);
  const double expected = std::asin(0.6) * 180.0 / kPi;
  EXPECT_NEAR(angles[dsp::argmax(spec)], expected, 4.0) << "SNR " << snr_db;
}

INSTANTIATE_TEST_SUITE_P(SnrLevels, MusicSnrSweep,
                         ::testing::Values(10.0, 15.0, 20.0, 30.0, 40.0));

// ----------------------------------------------- Nulling degradation ---

class NoisyLink final : public phy::SubcarrierLink {
 public:
  NoisyLink(double noise_power, std::uint64_t seed)
      : noise_power_(noise_power), rng_(seed) {}
  const phy::OfdmModem& modem() const override { return modem_; }
  CVec transceive(CSpan x0, CSpan x1) override {
    const auto n = static_cast<std::size_t>(modem_.num_subcarriers());
    const double g = db_to_amp(tx_) * db_to_amp(rx_);
    CVec y(n, cdouble{0.0, 0.0});
    for (int k : modem_.used_subcarriers()) {
      const auto i = static_cast<std::size_t>(k);
      y[i] = g * (h1_ * x0[i] + h2_ * x1[i]) + rng_.complex_gaussian(noise_power_);
    }
    now_ += modem_.symbol_duration_sec();
    return y;
  }
  bool last_rx_saturated() const override { return false; }
  void set_tx_gain_db(double v) override { tx_ = v; }
  double tx_gain_db() const override { return tx_; }
  void set_rx_gain_db(double v) override { rx_ = v; }
  double rx_gain_db() const override { return rx_; }
  double now() const override { return now_; }

 private:
  phy::OfdmModem modem_;
  cdouble h1_{0.02, -0.011};
  cdouble h2_{0.016, 0.008};
  double noise_power_;
  double tx_ = 0.0;
  double rx_ = 0.0;
  double now_ = 0.0;
  Rng rng_;
};

TEST(NullingLaw, DepthDegradesMonotonicallyWithNoise) {
  const core::Nuller nuller;
  double prev_depth = 1e9;
  for (double noise_db : {-140.0, -120.0, -100.0, -80.0}) {
    NoisyLink link(from_db(noise_db), 5);
    const auto r = nuller.run(link);
    EXPECT_LT(r.nulling_db, prev_depth + 3.0) << "noise " << noise_db;
    prev_depth = r.nulling_db;
  }
}

TEST(NullingLaw, SurvivesExtremeNoise) {
  // Failure injection: even with noise at the signal level the procedure
  // must terminate with finite results, not NaN or divide-by-zero.
  NoisyLink link(1e-3, 6);
  const core::Nuller nuller;
  const auto r = nuller.run(link);
  EXPECT_TRUE(std::isfinite(r.nulling_db));
  EXPECT_TRUE(std::isfinite(r.residual_power_db));
  EXPECT_GE(r.iterations_used, 0);
}

TEST(NullingLaw, MoreEstimationSymbolsNeverHurt) {
  RVec depths;
  for (int symbols : {1, 4, 16}) {
    core::Nuller::Config cfg;
    cfg.symbols_per_estimate = symbols;
    NoisyLink link(1e-9, 7);
    depths.push_back(core::Nuller(cfg).run(link).nulling_db);
  }
  // 16-symbol averaging must beat single-symbol estimation clearly.
  EXPECT_GT(depths[2], depths[0]);
}

// ------------------------------------------------- Gesture robustness ---

class GestureSubjectSweep : public ::testing::TestWithParam<int> {};

TEST_P(GestureSubjectSweep, EverySubjectDecodesAtThreeMeters) {
  sim::GestureTrial trial;
  trial.room = sim::stata_conference_a();
  trial.distance_m = 3.0;
  trial.subject_index = GetParam();
  trial.message = {core::Bit::kZero, core::Bit::kOne};
  trial.seed = 4200 + static_cast<std::uint64_t>(GetParam());
  const sim::GestureResult r = sim::run_gesture_trial(trial);
  EXPECT_EQ(r.flipped, 0);
  EXPECT_GE(r.correct, 1) << "subject " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSubjects, GestureSubjectSweep,
                         ::testing::Range(0, sim::kNumSubjects));

class GestureOrientationSweep : public ::testing::TestWithParam<double> {};

TEST_P(GestureOrientationSweep, SlantedOrientationNeverFlipsBits) {
  // Fig. 6-2(c): the subject need not face the device exactly; the angle
  // magnitude shrinks but the sign (and hence the bit) is preserved.
  sim::GestureTrial trial;
  trial.room = sim::stata_conference_a();
  trial.distance_m = 3.0;
  trial.subject_index = 2;
  trial.facing_offset_deg = GetParam();
  trial.message = {core::Bit::kZero, core::Bit::kOne};
  trial.seed = 4300 + static_cast<std::uint64_t>(GetParam() * 10.0);
  const sim::GestureResult r = sim::run_gesture_trial(trial);
  EXPECT_EQ(r.flipped, 0) << "offset " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Orientations, GestureOrientationSweep,
                         ::testing::Values(0.0, 15.0, 30.0, 45.0));

// ------------------------------------------------- Failure injection ---

TEST(FailureInjection, GestureTrialValidatesInput) {
  sim::GestureTrial empty;
  empty.room = sim::stata_conference_a();
  EXPECT_THROW((void)sim::run_gesture_trial(empty), InvalidArgument);

  sim::GestureTrial bad_dist;
  bad_dist.room = sim::stata_conference_a();
  bad_dist.message = {core::Bit::kZero};
  bad_dist.distance_m = -1.0;
  EXPECT_THROW((void)sim::run_gesture_trial(bad_dist), InvalidArgument);
}

TEST(FailureInjection, CountingTrialValidatesSubjects) {
  sim::CountingTrial t;
  t.room = sim::stata_conference_a();
  t.num_humans = 3;
  t.subjects = {0};  // too few
  EXPECT_THROW((void)sim::run_counting_trial(t), InvalidArgument);
}

TEST(FailureInjection, MusicConfigRejectsDegenerateSetups) {
  core::MusicConfig tiny;
  tiny.subarray = 1;
  EXPECT_THROW(core::SmoothedMusic{tiny}, InvalidArgument);
  core::MusicConfig crowded;
  crowded.max_sources = 40;
  crowded.subarray = 32;
  EXPECT_THROW(core::SmoothedMusic{crowded}, InvalidArgument);
}

TEST(FailureInjection, SteeringGridRejectsBadStep) {
  EXPECT_THROW((void)core::angle_grid_deg(0.0), InvalidArgument);
  EXPECT_THROW((void)core::angle_grid_deg(-1.0), InvalidArgument);
}

// ------------------------------------------------- metamorphic MUSIC laws ---
// Each law relates the outputs for a stream and a transformed copy of it,
// so it needs no reference implementation: it holds for any correct
// Eq. 5.2/5.3 and fails for a bug the code shares with its own pins.

/// The first three cases of every non-faulted scenario family of base
/// seed 1 (movers, crossings, occupancy, clutter, interferers).
std::vector<CVec> scenario_streams() {
  constexpr std::size_t kCasesPerFamily = 3;
  std::vector<CVec> out;
  for (const sim::ScenarioFamily& fam : sim::scenario_families(1)) {
    if (fam.faults.has_value()) continue;
    for (std::size_t ci = 0; ci < std::min(kCasesPerFamily, fam.cases.size());
         ++ci) {
      const sim::ScenarioCase& sc = fam.cases[ci];
      out.push_back(sim::generate_scenario(sc.spec, sc.seed).h);
    }
  }
  return out;
}

/// Runs fn(window of h, window of g) for every image column of the
/// default imaging configuration.
template <typename Fn>
std::size_t for_each_column(const CVec& h, const CVec& g, Fn&& fn) {
  const core::MotionTracker::Config cfg;
  const auto w = static_cast<std::size_t>(cfg.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  std::size_t cols = 0;
  for (std::size_t n = 0; n + w <= h.size(); n += hop, ++cols)
    fn(CSpan(h).subspan(n, w), CSpan(g).subspan(n, w));
  return cols;
}

TEST(MetamorphicMusic, PowerOfTwoScalingScalesRExactlyAndKeepsTheSpectrum) {
  // x -> 2^k x multiplies every product x x* by exactly 4^k, so R scales
  // exactly, and every later step is scale-free: the pseudospectrum and
  // model order do not change by a single bit.
  const core::SmoothedMusic music;
  const RVec angles = core::angle_grid_deg(1.0);
  linalg::CMatrix r, rs;
  RVec col, col_s;
  std::size_t cols = 0;
  for (const CVec& h : scenario_streams()) {
    for (const int k : {3, -2}) {
      CVec scaled(h);
      for (cdouble& v : scaled) v *= std::ldexp(1.0, k);
      cols += for_each_column(h, scaled, [&](CSpan x, CSpan xs) {
        music.smoothed_correlation_into(x, r);
        music.smoothed_correlation_into(xs, rs);
        for (std::size_t i = 0; i < r.rows(); ++i)
          for (std::size_t j = 0; j < r.cols(); ++j)
            ASSERT_EQ(rs(i, j), r(i, j) * std::ldexp(1.0, 2 * k));
        int order = 0;
        int order_s = 0;
        music.pseudospectrum_from_correlation_into(r, angles, col, &order);
        music.pseudospectrum_from_correlation_into(rs, angles, col_s, &order_s);
        ASSERT_EQ(order_s, order);
        ASSERT_EQ(col_s, col);
      });
    }
  }
  EXPECT_GE(cols, 2000u);
}

TEST(MetamorphicMusic, GlobalPhaseRotationLeavesTheSpectrumUnchanged) {
  // x -> e^{j phi} x cancels in every x x* product: R, and with it the
  // noise projection 1/A', moves by rounding only.
  const core::SmoothedMusic music;
  const RVec angles = core::angle_grid_deg(1.0);
  RVec col, col_r;
  std::size_t cols = 0;
  for (const CVec& h : scenario_streams()) {
    CVec rotated(h);
    for (cdouble& v : rotated) v *= std::polar(1.0, 2.1);
    cols += for_each_column(h, rotated, [&](CSpan x, CSpan xr) {
      int order = 0;
      int order_r = 0;
      music.pseudospectrum_into(x, angles, col, &order);
      music.pseudospectrum_into(xr, angles, col_r, &order_r);
      ASSERT_EQ(order_r, order);
      for (std::size_t a = 0; a < angles.size(); ++a)
        ASSERT_NEAR(1.0 / col_r[a], 1.0 / col[a], 1e-9) << "angle " << a;
    });
  }
  EXPECT_GE(cols, 1000u);
}

TEST(MetamorphicMusic, ConjugatingTheStreamMirrorsTheAngleAxis) {
  // x -> conj(x) gives R -> conj(R) (exactly: every rounding is mirrored),
  // whose eigenvectors are the conjugates; a(-theta) = conj(a(theta)), so
  // the pseudospectrum at -theta equals the original at theta.
  const core::SmoothedMusic music;
  const RVec angles = core::angle_grid_deg(1.0);
  const std::size_t na = angles.size();
  for (std::size_t a = 0; a < na; ++a)
    ASSERT_NEAR(angles[na - 1 - a], -angles[a], 1e-12);
  linalg::CMatrix r, rc;
  RVec col, col_c;
  std::size_t cols = 0;
  for (const CVec& h : scenario_streams()) {
    CVec conjugated(h);
    for (cdouble& v : conjugated) v = std::conj(v);
    cols += for_each_column(h, conjugated, [&](CSpan x, CSpan xc) {
      music.smoothed_correlation_into(x, r);
      music.smoothed_correlation_into(xc, rc);
      for (std::size_t i = 0; i < r.rows(); ++i)
        for (std::size_t j = 0; j < r.cols(); ++j)
          ASSERT_EQ(rc(i, j), std::conj(r(i, j)));
      int order = 0;
      int order_c = 0;
      music.pseudospectrum_from_correlation_into(r, angles, col, &order);
      music.pseudospectrum_from_correlation_into(rc, angles, col_c, &order_c);
      ASSERT_EQ(order_c, order);
      for (std::size_t a = 0; a < na; ++a)
        ASSERT_NEAR(1.0 / col_c[na - 1 - a], 1.0 / col[a], 1e-9)
            << "angle " << a;
    });
  }
  EXPECT_GE(cols, 1000u);
}

}  // namespace
}  // namespace wivi
