// Unit tests for wivi::dsp - FFT, windows, matched filters, peaks,
// statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/dsp/fft.hpp"
#include "src/dsp/matched_filter.hpp"
#include "src/dsp/peaks.hpp"
#include "src/dsp/stats.hpp"
#include "src/dsp/window.hpp"

namespace wivi::dsp {
namespace {

// ---------------------------------------------------------------- FFT ---

TEST(Fft, DeltaTransformsToFlatSpectrum) {
  CVec x(8, cdouble{0.0, 0.0});
  x[0] = 1.0;
  fft(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - cdouble{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInTheRightBin) {
  const std::size_t n = 64;
  const int k0 = 5;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = kTwoPi * k0 * static_cast<double>(i) / static_cast<double>(n);
    x[i] = {std::cos(phi), std::sin(phi)};
  }
  fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = (k == k0) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expected, 1e-9) << "bin " << k;
  }
}

TEST(Fft, InverseRecoversInput) {
  Rng rng(3);
  CVec x(128);
  for (auto& v : x) v = rng.complex_gaussian();
  const CVec orig = x;
  fft(x);
  ifft(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-10);
}

TEST(Fft, ParsevalHolds) {
  Rng rng(4);
  CVec x(256);
  for (auto& v : x) v = rng.complex_gaussian();
  const double time_energy = mean_power(x) * static_cast<double>(x.size());
  CVec X = x;
  fft(X);
  double freq_energy = 0.0;
  for (const auto& v : X) freq_energy += norm2(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(x.size()), time_energy, 1e-6);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  CVec x(12);
  EXPECT_THROW(fft(x), InvalidArgument);
}

TEST(Fft, FftShiftCentersDc) {
  CVec x = {0, 1, 2, 3, 4, 5, 6, 7};
  const CVec s = fftshift(x);
  EXPECT_DOUBLE_EQ(s[4].real(), 0.0);  // DC moved to the middle
  EXPECT_DOUBLE_EQ(s[0].real(), 4.0);
}

TEST(Fft, FftShiftCentersDcForOddLength) {
  CVec x = {0, 1, 2, 3, 4};
  const CVec s = fftshift(x);
  // DC lands at floor(n/2) = 2: [3, 4, 0, 1, 2] (the MATLAB convention).
  EXPECT_DOUBLE_EQ(s[2].real(), 0.0);
  EXPECT_DOUBLE_EQ(s[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(s[4].real(), 2.0);
}

// ------------------------------------------------------------- Window ---

TEST(Window, HannEndsAtZeroAndPeaksAtCenter) {
  const RVec w = make_window(WindowType::kHann, 65);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Window, RectangularIsAllOnes) {
  for (double v : make_window(WindowType::kRectangular, 17))
    EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, AllTypesAreSymmetric) {
  for (auto type : {WindowType::kHann, WindowType::kHamming,
                    WindowType::kBlackman, WindowType::kTriangular}) {
    const RVec w = make_window(type, 33);
    for (std::size_t i = 0; i < w.size(); ++i)
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
  }
}

TEST(Window, PeriodicEqualsSymmetricOfOneMorePoint) {
  // The defining relation between the two conventions: the periodic
  // n-window is the first n points of the symmetric (n+1)-window.
  for (auto type : {WindowType::kHann, WindowType::kHamming,
                    WindowType::kBlackman, WindowType::kTriangular}) {
    for (const std::size_t n : {16ul, 33ul, 64ul}) {
      const RVec p = make_window(type, n, /*periodic=*/true);
      const RVec s = make_window(type, n + 1);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_DOUBLE_EQ(p[i], s[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Window, PeriodicHannIsColaAtStftHops) {
  // The DopplerProcessor STFT contract: periodic-Hann windows overlapped
  // at hop = n/4 (the default 64/16 shape) or n/2 sum to an exactly
  // constant level, so spectrogram energy cannot depend on where a window
  // seam falls. The symmetric form fails this — its endpoint seam
  // double-counts — which is exactly why the STFT must not use it.
  const std::size_t n = 64;
  for (const std::size_t hop : {n / 4, n / 2}) {
    const RVec w = make_window(WindowType::kHann, n, /*periodic=*/true);
    // Sum shifted copies over one hop-period of the steady-state overlap.
    for (std::size_t offset = 0; offset < hop; ++offset) {
      double acc = 0.0;
      for (std::size_t k = 0; k * hop + offset < n; ++k)
        acc += w[k * hop + offset];
      const double expected = 0.5 * static_cast<double>(n) /
                              static_cast<double>(hop);  // mean * n/hop
      EXPECT_NEAR(acc, expected, 1e-12) << "hop=" << hop << " off=" << offset;
    }
  }
  // Symmetric Hann violates COLA at the same hop: the overlap sum is not
  // flat (don't pin the exact dip, just that it moves).
  const RVec sym = make_window(WindowType::kHann, n);
  double first = 0.0;
  double worst_dev = 0.0;
  for (std::size_t offset = 0; offset < n / 4; ++offset) {
    double acc = 0.0;
    for (std::size_t k = 0; k * (n / 4) + offset < n; ++k)
      acc += sym[k * (n / 4) + offset];
    if (offset == 0) first = acc;
    worst_dev = std::max(worst_dev, std::abs(acc - first));
  }
  EXPECT_GT(worst_dev, 1e-3);
}

TEST(Window, GainPinnedForOddLengths) {
  // Closed forms for the coefficient sums (the amplitude-normalisation
  // denominator), pinned especially at odd lengths where the symmetric
  // cosine sum leaves the extra endpoint term:
  //   symmetric Hann(n):    (n-1)/2        periodic Hann(n):    n/2
  //   symmetric Hamming(n): 0.54n - 0.46   periodic Hamming(n): 0.54n
  const auto sum = [](const RVec& w) {
    return std::accumulate(w.begin(), w.end(), 0.0);
  };
  for (const std::size_t n : {33ul, 65ul, 101ul}) {
    const double nd = static_cast<double>(n);
    EXPECT_NEAR(sum(make_window(WindowType::kHann, n)),
                (nd - 1.0) / 2.0, 1e-9) << "n=" << n;
    EXPECT_NEAR(sum(make_window(WindowType::kHann, n, true)),
                nd / 2.0, 1e-9) << "n=" << n;
    EXPECT_NEAR(sum(make_window(WindowType::kHamming, n)),
                0.54 * nd - 0.46, 1e-9) << "n=" << n;
    EXPECT_NEAR(sum(make_window(WindowType::kHamming, n, true)),
                0.54 * nd, 1e-9) << "n=" << n;
  }
}

TEST(Window, ApplyScalesComplexBuffer) {
  CVec x(5, cdouble{2.0, 0.0});
  const RVec w = {0.0, 0.5, 1.0, 0.5, 0.0};
  apply_window(x, w);
  EXPECT_DOUBLE_EQ(x[2].real(), 2.0);
  EXPECT_DOUBLE_EQ(x[0].real(), 0.0);
  EXPECT_DOUBLE_EQ(x[1].real(), 1.0);
}

// ----------------------------------------------------- Matched filter ---

TEST(MatchedFilter, PeaksAtTemplateLocation) {
  RVec x(101, 0.0);
  const RVec tri = triangle_template(11, 1.0);
  for (std::size_t i = 0; i < tri.size(); ++i) x[40 + i] = tri[i];
  const RVec out = matched_filter(x, tri);
  EXPECT_EQ(argmax(out), 45u);  // centre of the embedded template
}

TEST(MatchedFilter, SelfCorrelationEqualsTemplateEnergy) {
  const RVec tri = triangle_template(15, 2.0);
  const RVec out = matched_filter(tri, tri);
  EXPECT_NEAR(out[7], template_energy(tri), 1e-9);
}

TEST(MatchedFilter, TriangleTemplateShape) {
  const RVec t = triangle_template(5, 3.0);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[2], 3.0);
  EXPECT_DOUBLE_EQ(t[4], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 1.5);
}

TEST(MatchedFilter, InvertedTemplateGivesNegativePeak) {
  RVec x(61, 0.0);
  const RVec tri = triangle_template(9, 1.0);
  for (std::size_t i = 0; i < tri.size(); ++i) x[20 + i] = -tri[i];
  const RVec out = matched_filter(x, tri);
  const auto troughs = find_peaks(out, {.min_height = 0.5, .negative = true});
  ASSERT_FALSE(troughs.empty());
  EXPECT_LT(troughs.front().value, 0.0);
}

// -------------------------------------------------------------- Peaks ---

TEST(Peaks, FindsIsolatedMaxima) {
  const RVec x = {0, 1, 0, 0, 3, 0, 0, 2, 0};
  const auto peaks = find_peaks(x, {.min_height = 0.5, .min_distance = 1});
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0].index, 1u);
  EXPECT_EQ(peaks[1].index, 4u);
  EXPECT_EQ(peaks[2].index, 7u);
}

TEST(Peaks, MinDistanceSuppressesLesserNeighbours) {
  const RVec x = {0, 5, 0, 4, 0, 0, 0, 0, 3, 0};
  const auto peaks = find_peaks(x, {.min_height = 0.5, .min_distance = 4});
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].index, 1u);  // 5 kept, 4 suppressed (distance 2)
  EXPECT_EQ(peaks[1].index, 8u);
}

TEST(Peaks, MinHeightFilters) {
  const RVec x = {0, 1, 0, 0, 3, 0};
  const auto peaks = find_peaks(x, {.min_height = 2.0});
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 4u);
}

TEST(Peaks, SignedPeaksInterleave) {
  const RVec x = {0, 2, 0, -3, 0, 1.5, 0, -1.0, 0};
  const auto peaks = find_signed_peaks(x, 0.5, 1);
  ASSERT_EQ(peaks.size(), 4u);
  EXPECT_GT(peaks[0].value, 0.0);
  EXPECT_LT(peaks[1].value, 0.0);
  EXPECT_GT(peaks[2].value, 0.0);
  EXPECT_LT(peaks[3].value, 0.0);
}

TEST(Peaks, ArgmaxThrowsOnEmpty) {
  EXPECT_THROW((void)argmax(RVec{}), InvalidArgument);
}

// -------------------------------------------------------------- Stats ---

TEST(Stats, MeanVarianceStddev) {
  const RVec x = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_DOUBLE_EQ(variance(x), 4.0);
  EXPECT_DOUBLE_EQ(stddev(x), 2.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(RVec{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(RVec{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, PercentileInterpolates) {
  const RVec x = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(x, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(x, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(x, 100.0), 10.0);
}

TEST(Stats, EcdfMonotoneAndBounded) {
  Rng rng(8);
  RVec x(500);
  for (auto& v : x) v = rng.gaussian();
  const Ecdf cdf(x);
  double prev = 0.0;
  for (double v = -4.0; v <= 4.0; v += 0.25) {
    const double f = cdf(v);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(cdf(cdf.max()), 1.0);
}

TEST(Stats, EcdfQuantileInvertsCdf) {
  RVec x;
  for (int i = 1; i <= 100; ++i) x.push_back(static_cast<double>(i));
  const Ecdf cdf(x);
  EXPECT_NEAR(cdf.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(cdf.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(1.0), 100.0, 1e-9);
}

TEST(Stats, EcdfTabulateSpansRange) {
  const RVec x = {1.0, 2.0, 3.0};
  const auto rows = Ecdf(x).tabulate(5);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_DOUBLE_EQ(rows.front().value, 1.0);
  EXPECT_DOUBLE_EQ(rows.back().value, 3.0);
  EXPECT_DOUBLE_EQ(rows.back().fraction, 1.0);
}

TEST(Stats, HistogramCountsFallInBins) {
  const RVec x = {0.1, 0.2, 0.6, 0.7, 0.8, 1.5};
  const auto h = Histogram::build(x, 0.0, 1.0, 2);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 2u);  // 0.1, 0.2
  EXPECT_EQ(h.counts[1], 3u);  // 0.6, 0.7, 0.8 ; 1.5 out of range
}

// Parameterized property sweep: FFT round trip at many sizes.
class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftOfFftIsIdentity) {
  Rng rng(GetParam());
  CVec x(GetParam());
  for (auto& v : x) v = rng.complex_gaussian();
  const CVec orig = x;
  fft(x);
  ifft(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

}  // namespace
}  // namespace wivi::dsp
