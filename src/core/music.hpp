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
/// Eq. 5.3 consumes. The steering vectors are unit-norm, so the noise
/// projection equals 1 - sum_j |a(theta)^H s_j|^2 over the `order` signal
/// eigenvectors s_j: the eigensolver factors once for all eigenvalues (the
/// model order), then back-transforms just those few vectors, and the scan
/// runs over them instead of the ~28 noise vectors. Around that sit a
/// shared unit-norm steering-matrix cache, workspace-backed scratch, and an
/// incremental (rank-one add/subtract) sliding-window correlation for
/// streaming use.
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

/// Streaming maintenance of the Eq. 5.2 smoothed-correlation sub-array sum
/// for a w-sample window sliding along a channel-estimate stream. Moving
/// the window by one sample drops exactly one sub-array and gains exactly
/// one, so the sum is updated with a rank-one subtract + add (O(w'^2))
/// instead of the full O(S * w'^2) rebuild; advance_to() falls back to a
/// rebuild when the slide distance makes that cheaper, and re-anchors
/// periodically to bound floating-point drift.
class SlidingCorrelation {
 public:
  /// Set up for sub-arrays of length `subarray` inside a sliding window of
  /// `window` samples (no stream attached yet).
  SlidingCorrelation(int subarray, int window);

  /// Full rebuild of the sub-array sum for the window at stream offset
  /// `pos` (covers stream[pos, pos + window)).
  void rebuild(CSpan stream, std::size_t pos);

  /// Move the window to offset `pos` (>= the current position) with
  /// incremental updates. The first call behaves like rebuild().
  void advance_to(CSpan stream, std::size_t pos);

  /// Relabel the stream origin: the caller dropped `drop` samples from the
  /// front of its buffer, so all future advance_to() positions are smaller
  /// by `drop`. Pure bookkeeping — no numeric state changes, which is what
  /// lets a bounded-memory streaming consumer (rt::StreamingTracker) stay
  /// bit-for-bit identical to a whole-trace pass. `drop` must not reach
  /// past the current window start.
  void rebase(std::size_t drop);

  /// Normalised smoothed correlation (w' x w', Hermitian) of the current
  /// window; reuses r's storage, no allocation on repeated calls.
  void correlation_into(linalg::CMatrix& r) const;

  /// Stream offset of the current window start.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// Rank-one updates applied since the last full rebuild: advance_to()
  /// re-anchors (rebuilds) before this would exceed kRebuildEvery, which
  /// bounds the rounding drift of the subtract/add chain. Exposed so tests
  /// can pin behaviour on both sides of the re-anchor boundary.
  [[nodiscard]] long updates_since_rebuild() const noexcept {
    return updates_since_rebuild_;
  }

  /// Re-anchor cadence: the update budget between full rebuilds (each slid
  /// sample costs 2 updates, so this is ~2048 slid samples).
  static constexpr long kRebuildEvery = 4096;

 private:
  void accumulate_outer(const cdouble* x, double sign);

  int wp_;               // sub-array length w'
  int w_;                // window length
  int num_subarrays_;    // S = w - w' + 1
  std::size_t pos_ = 0;
  bool valid_ = false;
  long updates_since_rebuild_ = 0;
  linalg::CMatrix sum_;  // upper triangle of the un-normalised sub-array sum
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

  /// Eq. 5.2 with spatial smoothing: average of sub-array correlation
  /// matrices (w' x w').
  [[nodiscard]] linalg::CMatrix smoothed_correlation(CSpan window) const;

  /// Same, into a caller-owned matrix (no allocation on repeated calls).
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

  /// Pseudospectrum from an externally maintained smoothed correlation
  /// (e.g. a SlidingCorrelation) — the streaming fast path.
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
