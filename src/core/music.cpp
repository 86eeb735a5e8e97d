#include "src/core/music.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/db.hpp"
#include "src/common/error.hpp"

namespace wivi::core {

// --------------------------------------------------- SlidingCorrelation ---

SlidingCorrelation::SlidingCorrelation(int subarray, int window)
    : wp_(subarray), w_(window), num_subarrays_(window - subarray + 1) {
  WIVI_REQUIRE(subarray >= 2, "sub-array must have at least 2 elements");
  WIVI_REQUIRE(window >= subarray, "window shorter than the smoothing sub-array");
  // sum_ stays empty until the first rebuild(): every use is gated on
  // valid_, and rebuild() reshapes (zero-fills) before accumulating, so an
  // idle instance holds no w'^2 buffer.
}

void SlidingCorrelation::accumulate_outer(const cdouble* x, double sign) {
  // Upper triangle of sign * x x^H; the lower triangle is implied.
  const auto wp = static_cast<std::size_t>(wp_);
  for (std::size_t i = 0; i < wp; ++i) {
    const cdouble xi = sign * x[i];
    cdouble* const row_i = sum_.row(i);
    for (std::size_t j = i; j < wp; ++j) row_i[j] += xi * std::conj(x[j]);
  }
}

void SlidingCorrelation::rebuild(CSpan stream, std::size_t pos) {
  WIVI_REQUIRE(pos + static_cast<std::size_t>(w_) <= stream.size(),
               "window extends past the end of the stream");
  sum_.reshape(static_cast<std::size_t>(wp_), static_cast<std::size_t>(wp_));
  for (int s = 0; s < num_subarrays_; ++s)
    accumulate_outer(stream.data() + pos + static_cast<std::size_t>(s), 1.0);
  pos_ = pos;
  valid_ = true;
  updates_since_rebuild_ = 0;
}

void SlidingCorrelation::advance_to(CSpan stream, std::size_t pos) {
  WIVI_REQUIRE(pos + static_cast<std::size_t>(w_) <= stream.size(),
               "window extends past the end of the stream");
  WIVI_REQUIRE(!valid_ || pos >= pos_, "SlidingCorrelation only slides forward");
  if (!valid_) {
    rebuild(stream, pos);
    return;
  }
  const std::size_t delta = pos - pos_;
  // Each slid sample costs one subtract + one add (2 rank-one updates); a
  // rebuild costs S of them. Also re-anchor periodically: the subtract/add
  // chain accumulates rounding at ~eps per update, so a cheap occasional
  // rebuild keeps the streaming path within ~1e-12 of the direct one.
  if (2 * delta >= static_cast<std::size_t>(num_subarrays_) ||
      updates_since_rebuild_ + 2 * static_cast<long>(delta) > kRebuildEvery) {
    rebuild(stream, pos);
    return;
  }
  const auto S = static_cast<std::size_t>(num_subarrays_);
  for (std::size_t p = pos_; p < pos; ++p) {
    accumulate_outer(stream.data() + p, -1.0);      // drop sub-array at p
    accumulate_outer(stream.data() + p + S, 1.0);   // gain sub-array at p + S
  }
  pos_ = pos;
  updates_since_rebuild_ += 2 * static_cast<long>(delta);
}

void SlidingCorrelation::rebase(std::size_t drop) {
  if (drop == 0) return;
  WIVI_REQUIRE(valid_, "rebase() before the first window");
  WIVI_REQUIRE(drop <= pos_, "cannot rebase past the current window start");
  pos_ -= drop;
}

void SlidingCorrelation::correlation_into(linalg::CMatrix& r) const {
  WIVI_REQUIRE(valid_, "SlidingCorrelation has no window yet");
  const auto wp = static_cast<std::size_t>(wp_);
  if (r.rows() != wp || r.cols() != wp) r.reshape(wp, wp);
  const double inv = 1.0 / static_cast<double>(num_subarrays_);
  for (std::size_t i = 0; i < wp; ++i) {
    const cdouble* const src_i = sum_.row(i);
    cdouble* const dst_i = r.row(i);
    dst_i[i] = src_i[i] * inv;
    for (std::size_t j = i + 1; j < wp; ++j) {
      const cdouble v = src_i[j] * inv;
      dst_i[j] = v;
      r(j, i) = std::conj(v);
    }
  }
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
  const auto wp = static_cast<std::size_t>(cfg_.subarray);
  WIVI_REQUIRE(window.size() >= wp,
               "window shorter than the smoothing sub-array");
  const std::size_t num_subarrays = window.size() - wp + 1;
  r.reshape(wp, wp);
  for (std::size_t s = 0; s < num_subarrays; ++s) {
    // Accumulate the rank-one term sub * sub^H without materialising it;
    // only the upper triangle — the lower is its conjugate mirror.
    const cdouble* const sub = window.data() + s;
    for (std::size_t i = 0; i < wp; ++i) {
      const cdouble si = sub[i];
      cdouble* const row_i = r.row(i);
      for (std::size_t j = i; j < wp; ++j) row_i[j] += si * std::conj(sub[j]);
    }
  }
  const double inv = 1.0 / static_cast<double>(num_subarrays);
  for (std::size_t i = 0; i < wp; ++i) {
    cdouble* const row_i = r.row(i);
    row_i[i] *= inv;
    for (std::size_t j = i + 1; j < wp; ++j) {
      row_i[j] *= inv;
      r(j, i) = std::conj(row_i[j]);
    }
  }
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
