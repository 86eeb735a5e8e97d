// Property-based sweeps and failure injection across the library.
//
// These encode the paper's *laws* rather than point values: angular
// resolution scales with aperture (§1.2: "to achieve a narrow beam, the
// human needs to move by about 4 wavelengths"), nulling depth degrades
// monotonically with noise and quantization, decoding survives every
// subject and orientation, bad inputs fail loudly instead of silently, and
// smoothed MUSIC obeys the metamorphic laws of its own math (scaling,
// phase rotation, conjugation and Doppler shift of the stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <variant>
#include <vector>

#include "src/api/session.hpp"
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

TEST(MetamorphicMusic, DopplerShiftMovesTheSpectrumAlongSinTheta) {
  // x[n] -> x[n] e^{j 2 pi f n T} multiplies R(i, j) by e^{j 2 pi f (i-j) T}
  // (the sub-array's own start phase cancels in every x x* product), so
  // R' = D R D^H with D = diag(e^{j 2 pi f i T}): same eigenvalues, noise
  // subspace D E_n. Since D^H a(theta') = a(theta) when
  // sin theta' = sin theta + lambda f / (2 v), the shifted stream's
  // spectrum at theta' is the original's at theta, with the same order.
  constexpr double kShift = 0.25;  // lambda f / (2 v), in units of sin theta
  const core::SmoothedMusic music;
  const core::IsarConfig& isar = music.config().isar;
  const double phase_step =
      kTwoPi * kShift * core::element_spacing_m(isar) / isar.wavelength_m;
  RVec angles;
  RVec mapped;
  for (const double theta : core::angle_grid_deg(1.0)) {
    const double s = std::sin(theta * kPi / 180.0) + kShift;
    if (std::abs(s) > 1.0) continue;
    angles.push_back(theta);
    mapped.push_back(std::asin(s) * 180.0 / kPi);
  }
  ASSERT_GE(angles.size(), 100u);
  RVec col, col_d;
  std::size_t cols = 0;
  for (const CVec& h : scenario_streams()) {
    CVec shifted(h);
    for (std::size_t n = 0; n < shifted.size(); ++n)
      shifted[n] *= std::polar(1.0, phase_step * static_cast<double>(n));
    cols += for_each_column(h, shifted, [&](CSpan x, CSpan xd) {
      int order = 0;
      int order_d = 0;
      music.pseudospectrum_into(x, angles, col, &order);
      music.pseudospectrum_into(xd, mapped, col_d, &order_d);
      ASSERT_EQ(order_d, order);
      for (std::size_t a = 0; a < angles.size(); ++a)
        ASSERT_NEAR(1.0 / col_d[a], 1.0 / col[a], 1e-9)
            << "angle " << angles[a];
    });
  }
  EXPECT_GE(cols, 1000u);
}

// ------------------------------------------------ direction reversal ---
// Walking a scripted path backwards negates the mover's radial speed at
// every instant, and the §5.1 ISAR angle asin(v_radial / v) is odd in it.
// So the confirmed track angle a Session reports for the reversed world
// must be the mirror of the forward one: same magnitude, opposite sign.
// Same seed for both worlds: the static room, clutter and noise draws
// stay put and only the mover's direction changes.

/// Median angle over every confirmed, detection-updated track snapshot
/// a Session::run with a TrackStage emits for `spec` at `seed`.
double median_confirmed_angle_deg(const sim::ScenarioSpec& spec,
                                  std::uint64_t seed) {
  const sim::GeneratedScenario sc = sim::generate_scenario(spec, seed);
  api::PipelineSpec ps;
  ps.image.emit_columns = false;
  ps.track.emplace();
  api::Session session(ps);
  session.run(sc.h);
  std::vector<api::Event> events;
  (void)session.poll(events);
  RVec angles;
  for (const api::Event& e : events) {
    const auto* te = std::get_if<api::TracksEvent>(&e);
    if (te == nullptr) continue;
    for (const track::TrackSnapshot& t : te->tracks)
      if (t.state == track::TrackState::kConfirmed && t.updated)
        angles.push_back(t.angle_deg);
  }
  if (angles.empty()) return 0.0;
  const auto mid =
      angles.begin() + static_cast<std::ptrdiff_t>(angles.size() / 2);
  std::nth_element(angles.begin(), mid, angles.end());
  return *mid;
}

TEST(MetamorphicTracking, ReversingAMoversDirectionFlipsItsTrackAngle) {
  sim::ScenarioSpec spec;
  spec.name = "radial walk";
  spec.room = sim::stata_conference_a();
  const sim::Rect in = spec.interior();
  // A straight walk parallel to the device boresight, from near the
  // imaged wall to the back of the room.
  const rf::Vec2 near_end{0.3, in.ymin + 0.2};
  const rf::Vec2 far_end{0.3, in.ymax - 0.2};
  constexpr double kSpeed = 0.6;
  spec.duration_sec = std::abs(far_end.y - near_end.y) / kSpeed;
  sim::ScenarioMover walker;
  walker.mobility = sim::MobilityModel::kWaypoint;

  constexpr std::uint64_t kSeed = 3;
  sim::ScenarioSpec away = spec;
  walker.start = near_end;
  walker.waypoints = {sim::PathWaypoint{far_end, kSpeed, 0.0}};
  away.movers = {walker};
  sim::ScenarioSpec toward = spec;
  walker.start = far_end;
  walker.waypoints = {sim::PathWaypoint{near_end, kSpeed, 0.0}};
  toward.movers = {walker};

  const double a_away = median_confirmed_angle_deg(away, kSeed);
  const double a_toward = median_confirmed_angle_deg(toward, kSeed);
  // Both worlds confirm a track well off the DC band...
  EXPECT_GT(std::abs(a_away), 15.0);
  EXPECT_GT(std::abs(a_toward), 15.0);
  // ...on opposite sides of broadside, mirrored to within a grid step or
  // two.
  EXPECT_LT(a_away * a_toward, 0.0);
  EXPECT_NEAR(a_away, -a_toward, 2.0);
}

}  // namespace
}  // namespace wivi
