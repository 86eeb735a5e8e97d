// Numeric parity between the pre-plan ("legacy") signal-chain
// implementations and the planned/workspace-reusing fast paths.
//
// The legacy STFT and MUSIC algorithms are reproduced here verbatim (as
// they stood before the fast-path refactor) and compared against the
// production implementations. The legacy MUSIC path takes its eigenvectors
// from the independent long double Jacobi oracle (eig_reference.hpp) and
// sums the projection over the noise eigenvectors, so it shares neither
// the eigensolver nor the signal-subspace identity with the code under
// test. MUSIC comparisons are made on the noise
// projection proj(theta) = 1 / A'[theta]: proj is bounded by ||a||^2 = 1
// (unit-norm steering against orthonormal eigenvectors), so an absolute
// 1e-9 bound on it is meaningful everywhere, whereas the pseudospectrum
// itself amplifies rounding by 1/proj^2 exactly at its (sharp) peaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "eig_reference.hpp"
#include "src/common/db.hpp"
#include "src/common/random.hpp"
#include "src/core/doppler.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/core/tracker.hpp"
#include "src/dsp/fft.hpp"
#include "src/dsp/stats.hpp"
#include "src/dsp/window.hpp"
#include "src/sim/evaluate.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/synthetic.hpp"

namespace wivi {
namespace {

constexpr double kParityTol = 1e-9;

/// A trace with a slow mover, a static residual, and noise — the same
/// construction bench_perf uses for the §7.1 full-trace benchmark.
CVec make_trace(std::size_t n, double speed_mps = 0.6) {
  return sim::synthetic_mover_trace(n, 404, speed_mps);
}

// ------------------------------------------------- legacy STFT (pre-PR) ---

core::DopplerSpectrogram legacy_stft(CSpan h,
                                     const core::DopplerProcessor::Config& cfg,
                                     double t0 = 0.0) {
  const auto nfft = static_cast<std::size_t>(cfg.fft_size);
  // Periodic to match the production STFT's COLA-correct window choice;
  // this parity suite pins the buffer-reuse refactor, not the window
  // convention (which test_dsp pins separately).
  const RVec window =
      dsp::make_window(dsp::WindowType::kHann, nfft, /*periodic=*/true);
  core::DopplerSpectrogram out;
  out.freqs_hz.resize(nfft);
  for (std::size_t f = 0; f < nfft; ++f) {
    const auto signed_bin =
        static_cast<double>(f) - static_cast<double>(nfft) / 2.0;
    out.freqs_hz[f] = signed_bin * cfg.sample_rate_hz / static_cast<double>(nfft);
  }
  for (std::size_t n = 0; n + nfft <= h.size();
       n += static_cast<std::size_t>(cfg.hop)) {
    CVec win(h.begin() + static_cast<std::ptrdiff_t>(n),
             h.begin() + static_cast<std::ptrdiff_t>(n + nfft));
    if (cfg.remove_dc) {
      cdouble mean{0.0, 0.0};
      for (const cdouble& v : win) mean += v;
      mean /= static_cast<double>(nfft);
      for (cdouble& v : win) v -= mean;
    }
    dsp::apply_window(win, window);
    dsp::fft(win);
    const CVec shifted = dsp::fftshift(win);
    RVec power(nfft);
    for (std::size_t f = 0; f < nfft; ++f) power[f] = norm2(shifted[f]);
    out.columns.push_back(std::move(power));
    out.times_sec.push_back(
        t0 + (static_cast<double>(n) + static_cast<double>(nfft) / 2.0) /
                 cfg.sample_rate_hz);
  }
  return out;
}

// ------------------------------------------ legacy smoothed MUSIC (pre-PR) ---

linalg::CMatrix legacy_smoothed_correlation(CSpan window, int subarray) {
  const auto wp = static_cast<std::size_t>(subarray);
  const std::size_t num_subarrays = window.size() - wp + 1;
  linalg::CMatrix r(wp, wp);
  for (std::size_t s = 0; s < num_subarrays; ++s) {
    const CSpan sub = window.subspan(s, wp);
    for (std::size_t i = 0; i < wp; ++i)
      for (std::size_t j = 0; j < wp; ++j)
        r(i, j) += sub[i] * std::conj(sub[j]);
  }
  r *= cdouble{1.0 / static_cast<double>(num_subarrays), 0.0};
  return r;
}

int legacy_model_order(const core::MusicConfig& cfg, RSpan eigenvalues) {
  const std::size_t n = eigenvalues.size();
  const std::size_t half = n / 2;
  RVec tail(eigenvalues.begin() + static_cast<std::ptrdiff_t>(half),
            eigenvalues.end());
  std::sort(tail.begin(), tail.end());
  const double floor = std::max(tail[tail.size() / 2], 1e-300);
  const double threshold = floor * from_db(cfg.signal_threshold_db);
  int order = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (eigenvalues[i] > threshold)
      ++order;
    else
      break;
  }
  order = std::clamp(order, 1, cfg.max_sources);
  order = std::min(order, static_cast<int>(n) - 1);
  return order;
}

/// Eq. 5.3 on a given correlation: oracle eigendecomposition, model order
/// from its eigenvalues, projection onto its noise eigenvectors (long
/// double throughout).
RVec legacy_music_from_correlation(const core::MusicConfig& cfg,
                                   const linalg::CMatrix& r, RSpan angles_deg,
                                   int* model_order_out = nullptr) {
  const test::ReferenceEig eig = test::reference_eig(r);
  const std::size_t wp = r.rows();
  RVec values(wp);
  for (std::size_t j = 0; j < wp; ++j)
    values[j] = static_cast<double>(eig.values[j]);
  const int order = legacy_model_order(cfg, values);
  if (model_order_out != nullptr) *model_order_out = order;

  const test::ldouble inv_norm =
      1.0L / std::sqrt(static_cast<test::ldouble>(wp));
  RVec spectrum(angles_deg.size(), 0.0);
  for (std::size_t ai = 0; ai < angles_deg.size(); ++ai) {
    const CVec a = core::steering_vector(cfg.isar, angles_deg[ai], wp);
    test::ldouble proj = 0.0L;
    for (std::size_t j = static_cast<std::size_t>(order); j < wp; ++j) {
      test::cldouble dot = 0.0L;
      for (std::size_t i = 0; i < wp; ++i)
        dot += test::cldouble(a[i].real(), -a[i].imag()) * inv_norm *
               eig.vec(i, j);
      proj += std::norm(dot);
    }
    spectrum[ai] = 1.0 / std::max(static_cast<double>(proj), 1e-12);
  }
  return spectrum;
}

RVec legacy_pseudospectrum(const core::MusicConfig& cfg, CSpan window,
                           RSpan angles_deg, int* model_order_out = nullptr) {
  return legacy_music_from_correlation(
      cfg, legacy_smoothed_correlation(window, cfg.subarray), angles_deg,
      model_order_out);
}

// ------------------------------------------------------------- the tests ---

TEST(FastPathParity, StftMatchesLegacy) {
  const CVec h = make_trace(1200);
  const core::DopplerProcessor::Config cfg;
  const core::DopplerProcessor proc(cfg);
  const core::DopplerSpectrogram fast = proc.process(h, 0.25);
  const core::DopplerSpectrogram ref = legacy_stft(h, cfg, 0.25);

  ASSERT_EQ(fast.num_times(), ref.num_times());
  ASSERT_EQ(fast.num_freqs(), ref.num_freqs());
  for (std::size_t f = 0; f < ref.num_freqs(); ++f)
    ASSERT_DOUBLE_EQ(fast.freqs_hz[f], ref.freqs_hz[f]);
  for (std::size_t t = 0; t < ref.num_times(); ++t) {
    ASSERT_DOUBLE_EQ(fast.times_sec[t], ref.times_sec[t]);
    for (std::size_t f = 0; f < ref.num_freqs(); ++f) {
      const double scale = std::max(1.0, std::abs(ref.columns[t][f]));
      ASSERT_NEAR(fast.columns[t][f], ref.columns[t][f], kParityTol * scale)
          << "t=" << t << " f=" << f;
    }
  }
}

TEST(FastPathParity, StftWithoutDcRemovalMatchesLegacy) {
  const CVec h = make_trace(600);
  core::DopplerProcessor::Config cfg;
  cfg.remove_dc = false;
  cfg.hop = 7;  // non-divisor hop exercises the column-count arithmetic
  const core::DopplerSpectrogram fast = core::DopplerProcessor(cfg).process(h);
  const core::DopplerSpectrogram ref = legacy_stft(h, cfg);
  ASSERT_EQ(fast.num_times(), ref.num_times());
  for (std::size_t t = 0; t < ref.num_times(); ++t)
    for (std::size_t f = 0; f < ref.num_freqs(); ++f) {
      const double scale = std::max(1.0, std::abs(ref.columns[t][f]));
      ASSERT_NEAR(fast.columns[t][f], ref.columns[t][f], kParityTol * scale);
    }
}

TEST(FastPathParity, SmoothedCorrelationMatchesLegacy) {
  const CVec h = make_trace(100);
  const core::SmoothedMusic music;
  const linalg::CMatrix fast = music.smoothed_correlation(h);
  const linalg::CMatrix ref =
      legacy_smoothed_correlation(h, music.config().subarray);
  ASSERT_EQ(fast.rows(), ref.rows());
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_NEAR(std::abs(fast(i, j) - ref(i, j)), 0.0, kParityTol)
          << i << "," << j;
}

TEST(FastPathParity, PseudospectrumMatchesLegacy) {
  const CVec h = make_trace(100);
  const core::SmoothedMusic music;
  const RVec angles = core::angle_grid_deg(1.0);
  int fast_order = 0;
  int ref_order = 0;
  const RVec fast = music.pseudospectrum(h, angles, &fast_order);
  const RVec ref =
      legacy_pseudospectrum(music.config(), h, angles, &ref_order);
  EXPECT_EQ(fast_order, ref_order);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t ai = 0; ai < ref.size(); ++ai)
    ASSERT_NEAR(1.0 / fast[ai], 1.0 / ref[ai], kParityTol) << "angle " << ai;
}

TEST(FastPathParity, SlidingCorrelationMatchesDirectRebuild) {
  // One kernel behind both surfaces: bit for bit, not just close — also
  // when the reference window is a copy at a different address.
  const CVec h = make_trace(1000);
  const core::SmoothedMusic music;
  const int w = music.config().isar.window;
  core::SlidingCorrelation sliding(music.config().subarray, w);
  linalg::CMatrix r;
  for (std::size_t pos = 0; pos + static_cast<std::size_t>(w) <= h.size();
       pos += 25) {
    sliding.advance_to(h, pos);
    sliding.correlation_into(r);
    const CVec window(h.begin() + static_cast<std::ptrdiff_t>(pos),
                      h.begin() + static_cast<std::ptrdiff_t>(pos) + w);
    const linalg::CMatrix ref = music.smoothed_correlation(window);
    for (std::size_t i = 0; i < ref.rows(); ++i)
      for (std::size_t j = 0; j < ref.cols(); ++j)
        ASSERT_EQ(r(i, j), ref(i, j)) << "pos=" << pos << " " << i << "," << j;
  }
}

TEST(FastPathParity, TrackerStreamingMatchesPerWindowMusic) {
  // Every image column is a pure function of its window, so the whole-
  // trace image equals the per-window pseudospectrum bit for bit.
  const CVec h = make_trace(2000);
  const core::MotionTracker tracker;
  const core::AngleTimeImage img = tracker.process(h);

  const core::SmoothedMusic music(tracker.config().music);
  const auto w = static_cast<std::size_t>(tracker.config().music.isar.window);
  const RVec angles = core::angle_grid_deg(tracker.config().angle_step_deg);
  ASSERT_GT(img.num_times(), 10u);
  for (std::size_t c = 0; c < img.num_times(); ++c) {
    const std::size_t n = c * static_cast<std::size_t>(tracker.config().hop);
    int order = 0;
    const RVec direct =
        music.pseudospectrum(CSpan(h).subspan(n, w), angles, &order);
    EXPECT_EQ(img.model_orders[c], order) << "column " << c;
    for (std::size_t ai = 0; ai < angles.size(); ++ai)
      ASSERT_EQ(img.columns[c][ai], direct[ai])
          << "column " << c << " angle " << ai;
  }
}

TEST(FastPathParity, SlidCorrelationsOfScenarioWorldsMatchOracle) {
  // The production path as the streaming tracker runs it — per-window
  // smoothed correlations, two-phase eigensolve, signal-subspace scan —
  // against the oracle, on the first cases of every non-faulted scenario
  // family of base seed 1 (movers, crossings, occupancy, clutter,
  // interferers). Every 4th column is compared. The set is wide enough that the
  // cyclic Jacobi this kernel replaced (stopping at off(A) <= 1e-12 ||A||_F)
  // fails it: 1.75e-9 at column 76 of the third walker case.
  const core::MotionTracker::Config cfg;
  const core::SmoothedMusic music(cfg.music);
  const RVec angles = core::angle_grid_deg(cfg.angle_step_deg);
  const auto w = static_cast<std::size_t>(cfg.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  constexpr std::size_t kCasesPerFamily = 3;
  constexpr std::size_t kCompareEvery = 4;

  std::size_t compared = 0;
  for (const sim::ScenarioFamily& fam : sim::scenario_families(1)) {
    if (fam.faults.has_value()) continue;
    const std::size_t cases = std::min(kCasesPerFamily, fam.cases.size());
    for (std::size_t ci = 0; ci < cases; ++ci) {
      const sim::ScenarioCase& sc = fam.cases[ci];
      const sim::GeneratedScenario world =
          sim::generate_scenario(sc.spec, sc.seed);
      core::SlidingCorrelation slide(cfg.music.subarray, cfg.music.isar.window);
      linalg::CMatrix r;
      RVec fast;
      for (std::size_t c = 0; c * hop + w <= world.h.size(); ++c) {
        slide.advance_to(world.h, c * hop);
        if (c % kCompareEvery != 0) continue;
        slide.correlation_into(r);
        int fast_order = 0;
        int ref_order = 0;
        music.pseudospectrum_from_correlation_into(r, angles, fast, &fast_order);
        const RVec ref =
            legacy_music_from_correlation(cfg.music, r, angles, &ref_order);
        ASSERT_EQ(fast_order, ref_order) << sc.spec.name << " column " << c;
        for (std::size_t ai = 0; ai < angles.size(); ++ai)
          ASSERT_NEAR(1.0 / fast[ai], 1.0 / ref[ai], kParityTol)
              << sc.spec.name << " column " << c << " angle " << ai;
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 300u);
}

TEST(FastPathParity, MedianInplaceMatchesMedian) {
  Rng rng(11);
  for (const std::size_t n : {1ul, 2ul, 5ul, 8ul, 101ul, 256ul}) {
    RVec x(n);
    for (auto& v : x) v = rng.gaussian();
    const double expected = dsp::median(x);
    RVec scratch = x;
    EXPECT_DOUBLE_EQ(dsp::median_inplace(scratch), expected) << "n=" << n;
  }
}

TEST(FastPathParity, PeakOverFloorMatchesSortBasedMedian) {
  const CVec h = make_trace(1200, 0.9);
  const core::DopplerSpectrogram spec = core::DopplerProcessor().process(h);
  const double got = spec.peak_over_floor(12.0);

  // Recompute with the pre-PR copy-and-sort median.
  double acc = 0.0;
  for (const RVec& col : spec.columns) {
    RVec band;
    double peak = 0.0;
    for (std::size_t f = 0; f < col.size(); ++f) {
      if (std::abs(spec.freqs_hz[f]) <= 12.0) continue;
      band.push_back(col[f]);
      peak = std::max(peak, col[f]);
    }
    acc += peak / std::max(dsp::median(band), 1e-300);
  }
  EXPECT_DOUBLE_EQ(got, acc / static_cast<double>(spec.columns.size()));
}

}  // namespace
}  // namespace wivi
