#include "src/core/music.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/db.hpp"
#include "src/common/error.hpp"

namespace wivi::core {

// ------------------------------------------- smoothed correlation kernel ---

namespace {

// U(0, j) = sum_s x[s] conj(x[s + j]) for j < wp. The sum over s is the
// outer loop, so the inner loop over j is elementwise (no reduction) and
// every entry is summed in the same order wherever the window sits in
// memory. Real arithmetic: std::complex's operator* would add a
// NaN-recovery branch. `row0` never aliases the window (__restrict lets
// the inner loop vectorise without a runtime overlap check).
void first_row(const cdouble* __restrict x, std::size_t S, std::size_t wp,
               cdouble* __restrict row0) {
  std::fill(row0, row0 + wp, cdouble{0.0, 0.0});
  for (std::size_t s = 0; s < S; ++s) {
    const double ar = x[s].real();
    const double ai = x[s].imag();
    const cdouble* const y = x + s;
    for (std::size_t j = 0; j < wp; ++j) {
      const double yr = y[j].real();
      const double yi = y[j].imag();
      row0[j] = cdouble{row0[j].real() + (ar * yr + ai * yi),
                        row0[j].imag() + (ai * yr - ar * yi)};
    }
  }
}

}  // namespace

void smoothed_correlation_into(CSpan window, std::size_t subarray,
                               linalg::CMatrix& r) {
  const std::size_t wp = subarray;
  WIVI_REQUIRE(wp >= 1, "sub-array must have at least 1 element");
  WIVI_REQUIRE(window.size() >= wp,
               "window shorter than the smoothing sub-array");
  const std::size_t S = window.size() - wp + 1;  // sub-arrays averaged
  const double inv = 1.0 / static_cast<double>(S);
  const cdouble* const x = window.data();
  if (r.rows() != wp || r.cols() != wp) r.reshape(wp, wp);

  // First row directly, in r's own storage (S w' MACs).
  first_row(x, S, wp, r.row(0));

  // Rest of the upper triangle by displacement: the sub-array sum for
  // (i+1, j+1) covers s = 1..S where (i, j) covers s = 0..S-1, so
  //   U(i+1, j+1) = U(i, j) + x[S+i] conj(x[S+j]) - x[i] conj(x[j]).
  for (std::size_t i = 0; i + 1 < wp; ++i) {
    const cdouble* const up = r.row(i);
    cdouble* const dn = r.row(i + 1);
    const double gr = x[S + i].real();
    const double gi = x[S + i].imag();
    const double dr = x[i].real();
    const double di = x[i].imag();
    for (std::size_t j = i; j + 1 < wp; ++j) {
      const double hr = x[S + j].real();
      const double hi = x[S + j].imag();
      const double er = x[j].real();
      const double ei = x[j].imag();
      const double re = (gr * hr + gi * hi) - (dr * er + di * ei);
      const double im = (gi * hr - gr * hi) - (di * er - dr * ei);
      dn[j + 1] = cdouble{up[j].real() + re, up[j].imag() + im};
    }
  }

  // Normalise, force the diagonal real (it is a sum of |x|^2 terms), and
  // mirror the upper triangle into the lower.
  for (std::size_t i = 0; i < wp; ++i) {
    cdouble* const row_i = r.row(i);
    row_i[i] = cdouble{row_i[i].real() * inv, 0.0};
    for (std::size_t j = i + 1; j < wp; ++j) {
      row_i[j] *= inv;
      r(j, i) = std::conj(row_i[j]);
    }
  }
}

// --------------------------------------------------- SlidingCorrelation ---

SlidingCorrelation::SlidingCorrelation(int subarray, int window)
    : wp_(subarray), w_(window) {
  WIVI_REQUIRE(subarray >= 2, "sub-array must have at least 2 elements");
  WIVI_REQUIRE(window >= subarray, "window shorter than the smoothing sub-array");
}

void SlidingCorrelation::advance_to(CSpan stream, std::size_t pos) {
  WIVI_REQUIRE(pos + static_cast<std::size_t>(w_) <= stream.size(),
               "window extends past the end of the stream");
  window_ = stream.subspan(pos, static_cast<std::size_t>(w_));
}

void SlidingCorrelation::correlation_into(linalg::CMatrix& r) const {
  WIVI_REQUIRE(!window_.empty(), "SlidingCorrelation has no window yet");
  smoothed_correlation_into(window_, static_cast<std::size_t>(wp_), r);
}

// -------------------------------------------------------- SmoothedMusic ---

MusicScratch& music_scratch() noexcept {
  thread_local MusicScratch scratch;
  return scratch;
}

SmoothedMusic::SmoothedMusic(MusicConfig cfg) : cfg_(cfg) {
  WIVI_REQUIRE(cfg_.subarray >= 2, "sub-array must have at least 2 elements");
  WIVI_REQUIRE(cfg_.max_sources >= 1, "max_sources must be >= 1");
  WIVI_REQUIRE(cfg_.max_sources < cfg_.subarray,
               "max_sources must leave room for noise eigenvectors");
  WIVI_REQUIRE(cfg_.signal_threshold_db > 0.0, "signal threshold must be positive");
}

linalg::CMatrix SmoothedMusic::smoothed_correlation(CSpan window) const {
  linalg::CMatrix r;
  smoothed_correlation_into(window, r);
  return r;
}

void SmoothedMusic::smoothed_correlation_into(CSpan window,
                                              linalg::CMatrix& r) const {
  core::smoothed_correlation_into(
      window, static_cast<std::size_t>(cfg_.subarray), r);
}

int SmoothedMusic::estimate_model_order(RSpan eigenvalues) const {
  WIVI_REQUIRE(eigenvalues.size() >= 2, "need at least two eigenvalues");
  // Noise floor: median of the smallest half of the (descending)
  // eigenvalues — robust even when several strong sources leak into the
  // lower half. nth_element on a reused scratch buffer instead of a fresh
  // copy-and-sort per call.
  const std::size_t n = eigenvalues.size();
  const std::size_t half = n / 2;
  RVec& order_tail = music_scratch().order_tail;
  order_tail.assign(eigenvalues.begin() + static_cast<std::ptrdiff_t>(half),
                    eigenvalues.end());
  const auto mid = order_tail.begin() +
                   static_cast<std::ptrdiff_t>(order_tail.size() / 2);
  std::nth_element(order_tail.begin(), mid, order_tail.end());
  const double floor = std::max(*mid, 1e-300);
  const double threshold = floor * from_db(cfg_.signal_threshold_db);

  int order = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (eigenvalues[i] > threshold)
      ++order;
    else
      break;  // eigenvalues are sorted; the first miss ends the signal set
  }
  order = std::clamp(order, 1, cfg_.max_sources);
  // Keep at least one noise eigenvector for the null-space projection.
  order = std::min(order, static_cast<int>(n) - 1);
  return order;
}

RVec SmoothedMusic::pseudospectrum(CSpan window, RSpan angles_deg,
                                   int* model_order_out) const {
  RVec spectrum;
  pseudospectrum_into(window, angles_deg, spectrum, model_order_out);
  return spectrum;
}

void SmoothedMusic::pseudospectrum_into(CSpan window, RSpan angles_deg,
                                        RVec& out, int* model_order_out) const {
  linalg::CMatrix& r = music_scratch().r;
  smoothed_correlation_into(window, r);
  pseudospectrum_from_correlation_into(r, angles_deg, out, model_order_out);
}

void SmoothedMusic::pseudospectrum_from_correlation_into(
    const linalg::CMatrix& r, RSpan angles_deg, RVec& out,
    int* model_order_out) const {
  MusicScratch& ws = music_scratch();
  // Two-phase eigensolve: all eigenvalues first (they fix the model
  // order), then eigenvectors for the signal subspace only.
  linalg::hermitian_eig_factor(r, ws.eig_ws, ws.values);
  const int order = estimate_model_order(ws.values);
  if (model_order_out != nullptr) *model_order_out = order;

  const std::size_t wp = r.rows();
  const auto k = static_cast<std::size_t>(order);
  // Reserve the largest order estimate_model_order can return, so a later
  // call with more sources never reallocates.
  const std::size_t max_k =
      std::min(static_cast<std::size_t>(cfg_.max_sources), wp - 1);
  if (ws.signal.capacity() < max_k * wp) ws.signal.reserve(max_k * wp);
  linalg::hermitian_eig_vectors(ws.eig_ws, k, ws.signal);

  // Unit-norm steering so the pseudospectrum scale is grid-independent.
  steering_.ensure(cfg_.isar, angles_deg, wp, /*unit_norm=*/true);

  out.resize(angles_deg.size());
  for (std::size_t ai = 0; ai < angles_deg.size(); ++ai) {
    const cdouble* const a = steering_.row(ai);
    // ||a^H E_noise||^2 = 1 - ||a^H E_signal||^2 (||a|| = 1, E unitary).
    // Real arithmetic over contiguous rows, two partial accumulators per
    // dot product (std::complex's operator* would add a NaN branch).
    double signal_power = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const cdouble* const u = ws.signal.data() + j * wp;
      double re0 = 0.0;
      double im0 = 0.0;
      double re1 = 0.0;
      double im1 = 0.0;
      std::size_t i = 0;
      for (; i + 2 <= wp; i += 2) {
        re0 += a[i].real() * u[i].real() + a[i].imag() * u[i].imag();
        im0 += a[i].real() * u[i].imag() - a[i].imag() * u[i].real();
        re1 += a[i + 1].real() * u[i + 1].real() +
               a[i + 1].imag() * u[i + 1].imag();
        im1 += a[i + 1].real() * u[i + 1].imag() -
               a[i + 1].imag() * u[i + 1].real();
      }
      for (; i < wp; ++i) {
        re0 += a[i].real() * u[i].real() + a[i].imag() * u[i].imag();
        im0 += a[i].real() * u[i].imag() - a[i].imag() * u[i].real();
      }
      const double re = re0 + re1;
      const double im = im0 + im1;
      signal_power += re * re + im * im;
    }
    out[ai] = 1.0 / std::max(1.0 - signal_power, 1e-12);
  }
}

void SmoothedMusic::prewarm(RSpan angles_deg) const {
  steering_.ensure(cfg_.isar, angles_deg,
                   static_cast<std::size_t>(cfg_.subarray),
                   /*unit_norm=*/true);
}

}  // namespace wivi::core
