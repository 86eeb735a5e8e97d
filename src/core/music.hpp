/// @file
/// Smoothed MUSIC over the emulated ISAR array (paper §5.2, Eqs. 5.2-5.3).
///
/// Reflections from multiple humans are correlated (they all reflect the
/// same transmitted signal), which defeats plain MUSIC; spatial smoothing
/// (Shan, Wax & Kailath 1985) de-correlates them by averaging correlation
/// matrices over overlapping sub-arrays of size w' < w before the eigen
/// decomposition. The pseudospectrum
///   A'[theta] = 1 / sum_j |a(theta)^H u_j|^2        (noise eigenvectors u_j)
/// spikes at the moving humans' spatial angles and at the DC (theta = 0)
/// residual from imperfect nulling.
///
/// The evaluation path runs one pseudospectrum per sliding-window position
/// over whole traces (§7.1: ~1 s of post-processing per 25 s trace), so the
/// implementation is built around reuse and around computing only what
/// Eq. 5.3 consumes. The smoothed correlation of each window is computed
/// from scratch by one displacement-structured kernel (a direct first row,
/// then one boundary term per entry — ~w'^2 work instead of S w'^2), so
/// every column is a pure function of its window. The steering vectors are
/// unit-norm, so the noise projection equals 1 - sum_j |a(theta)^H s_j|^2
/// over the `order` signal eigenvectors s_j: the eigensolver factors once
/// for all eigenvalues (the model order), then back-transforms just those
/// few vectors, and the scan runs over them instead of the ~28 noise
/// vectors. Around that sit a shared unit-norm steering-matrix cache and
/// workspace-backed scratch.
#pragma once

#include "src/core/isar.hpp"
#include "src/linalg/cmatrix.hpp"
#include "src/linalg/eig.hpp"

namespace wivi::core {

/// Configuration of the smoothed-MUSIC estimator.
struct MusicConfig {
  /// ISAR emulated-array geometry (wavelength, speed, window, period).
  IsarConfig isar;
  /// Sub-array length w' used for spatial smoothing. Must be <= the window
  /// passed to pseudospectrum(); 32 trades angular resolution against
  /// de-correlation across the w = 100 window.
  int subarray = 32;
  /// Largest number of signal eigenvectors we will ever attribute to
  /// sources (humans + DC). A closed conference room holds at most a few.
  int max_sources = 16;
  /// An eigenvalue is "signal" if it exceeds the noise-floor estimate by
  /// this many dB (the floor is the median of the smallest half of the
  /// eigenvalues; see SmoothedMusic::estimate_model_order).
  double signal_threshold_db = 12.0;
};

/// Eq. 5.2 with spatial smoothing, the one correlation kernel every
/// imaging path runs: r = (1/S) sum_{s<S} x_s x_s^H over the S = w - w' + 1
/// overlapping length-`subarray` sub-arrays x_s of `window` (w' x w',
/// Hermitian). The sub-arrays all come from one window, so the matrix is
/// shift-structured: the first row is summed directly (S w' MACs), and
/// each further entry follows from its upper-left neighbour by one
/// boundary term, R(i+1, j+1) = R(i, j) + (x[S+i] x*[S+j] - x[i] x*[j]) / S
/// (~w'^2 MACs in all). The result is a pure function of the window's
/// values — wherever the window sits in memory and whatever was computed
/// before — which is what makes the streaming, batch, parallel and
/// recorded paths bit-identical. The diagonal is exactly real and the
/// lower triangle is the exact conjugate of the upper. Reuses r's storage:
/// no allocation once r is w' x w'.
void smoothed_correlation_into(CSpan window, std::size_t subarray,
                               linalg::CMatrix& r);

/// Correlation of the window at a stream offset: advance_to() selects the
/// window (the stream must outlive the next correlation_into()), and
/// correlation_into() runs smoothed_correlation_into() on it. Holds no
/// numeric state. Kept only because the frozen benchmark decomposition
/// (wirebench/src/decompose.cpp) calls this surface; delete it at the next
/// benchmark change and call smoothed_correlation_into() there instead.
class SlidingCorrelation {
 public:
  /// Set up for sub-arrays of length `subarray` inside windows of `window`
  /// samples (no stream attached yet).
  SlidingCorrelation(int subarray, int window);

  /// Select the window stream[pos, pos + window).
  void advance_to(CSpan stream, std::size_t pos);

  /// Normalised smoothed correlation (w' x w', Hermitian) of the selected
  /// window; reuses r's storage, no allocation on repeated calls.
  void correlation_into(linalg::CMatrix& r) const;

 private:
  int wp_;  // sub-array length w'
  int w_;   // window length
  CSpan window_;
};

/// Per-thread mutable MUSIC workspace: eigensolver buffers, the signal
/// eigenvectors, and correlation/model-order scratch. Every member is
/// fully overwritten by each estimation call, so one workspace per thread
/// serves any number of SmoothedMusic instances — this is what lets a
/// thousand idle sessions share a handful of workspaces instead of each
/// holding ~20 KB of warm buffers.
struct MusicScratch {
  linalg::CMatrix r;            ///< Correlation scratch (w' x w').
  linalg::EigWorkspace eig_ws;  ///< Eigensolver factorisation.
  RVec values;                  ///< Eigenvalues, descending.
  CVec signal;                  ///< Signal eigenvectors, contiguous rows.
  RVec order_tail;              ///< Model-order noise-floor scratch.
};

/// The calling thread's MUSIC workspace (lazily constructed, grows to the
/// largest sub-array used on the thread and then stays warm).
[[nodiscard]] MusicScratch& music_scratch() noexcept;

/// Not safe for concurrent use of one instance (including via the const
/// methods): estimation mutates the shared per-thread workspace and the
/// instance's steering handle. Instances themselves are cheap — the heavy
/// state lives in the per-thread MusicScratch and the registry-shared
/// steering table.
class SmoothedMusic {
 public:
  /// Build an estimator (workspaces allocate lazily on first use).
  explicit SmoothedMusic(MusicConfig cfg = {});

  /// The estimator's configuration.
  [[nodiscard]] const MusicConfig& config() const noexcept { return cfg_; }

  /// Eq. 5.2 with spatial smoothing at this estimator's sub-array length:
  /// average of sub-array correlation matrices (w' x w').
  [[nodiscard]] linalg::CMatrix smoothed_correlation(CSpan window) const;

  /// Same, into a caller-owned matrix: core::smoothed_correlation_into()
  /// (no allocation on repeated calls).
  void smoothed_correlation_into(CSpan window, linalg::CMatrix& r) const;

  /// Number of signal eigenvectors given descending eigenvalues.
  /// At least 1 (the DC always exists), at most cfg.max_sources, and always
  /// leaves at least one noise eigenvector.
  [[nodiscard]] int estimate_model_order(RSpan eigenvalues) const;

  /// Eq. 5.3: the MUSIC pseudospectrum of one window of channel estimates
  /// on the given angle grid. If `model_order_out` is non-null it receives
  /// the estimated number of signal eigenvectors.
  [[nodiscard]] RVec pseudospectrum(CSpan window, RSpan angles_deg,
                                    int* model_order_out = nullptr) const;

  /// Same, into a caller-owned spectrum buffer; reuses the per-thread
  /// eigen/signal scratch and the instance's steering handle (zero heap
  /// allocation per call once they are warm). Not safe for concurrent
  /// calls on one instance.
  void pseudospectrum_into(CSpan window, RSpan angles_deg, RVec& out,
                           int* model_order_out = nullptr) const;

  /// Pseudospectrum from an already computed smoothed correlation — for
  /// callers that time or reuse the correlation step on its own
  /// (rt::StreamingTracker).
  void pseudospectrum_from_correlation_into(const linalg::CMatrix& r,
                                            RSpan angles_deg, RVec& out,
                                            int* model_order_out = nullptr) const;

  /// Resolve the unit-norm steering table for `angles_deg` now (a registry
  /// acquire) instead of inside the first pseudospectrum call, so session
  /// construction pays the one shared build and the hot path starts warm.
  void prewarm(RSpan angles_deg) const;

 private:
  MusicConfig cfg_;
  // The only per-instance state beyond the config: a shared_ptr-sized
  // handle to the registry-owned unit-norm steering table. All bulk
  // scratch lives in the per-thread MusicScratch.
  mutable SteeringMatrix steering_;
};

}  // namespace wivi::core
