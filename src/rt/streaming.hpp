/// @file
/// Incremental (chunk-at-a-time) versions of the batch tracking stages.
///
/// The paper's pipeline is streaming by nature — nulling runs live in the
/// driver and smoothed MUSIC consumes a 312.5 Hz channel-estimate stream —
/// but the batch entry points (core::MotionTracker::process and friends)
/// want the whole trace at once. The classes here buffer just enough of
/// the stream across arbitrarily sized sample chunks so a live session can
/// emit angle-time columns, track updates, decoded gesture bits and count
/// updates as soon as each hop of data lands, while staying *bit-for-bit
/// identical* to the batch pass over the concatenated stream (pinned by
/// test_rt_streaming and test_track_streaming). For the image that is by
/// construction: every column is a pure function of its window's samples.
///
/// Threading: like the core stages they wrap, none of these classes is safe
/// for concurrent use of one instance — one instance per session, one
/// processing thread at a time (rt::Engine enforces this with a per-session
/// claim; see DESIGN.md §4).
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/counting.hpp"
#include "src/core/gesture.hpp"
#include "src/core/tracker.hpp"
#include "src/track/multi_tracker.hpp"

namespace wivi::obs {
class PipelineObserver;
}  // namespace wivi::obs

namespace wivi::rt {

/// Streaming counterpart of core::MotionTracker: push sample chunks of any
/// size, get image columns appended to image() exactly as the batch
/// process() would have produced them. Memory stays bounded — only the
/// samples from the next window start on are kept, and a chunk pushed
/// into an empty buffer (a whole recorded trace, say) is read in place,
/// never copied whole (the growing image itself is the caller's to keep
/// or trim).
class StreamingTracker {
 public:
  /// Start a streaming image at absolute time `t0` (time of the first
  /// pushed sample).
  explicit StreamingTracker(core::MotionTracker::Config cfg = core::MotionTracker::Config(),
                            double t0 = 0.0);

  /// Ingest one chunk; returns the number of columns it completed. With
  /// `num_threads` != 1 those columns are sharded over a
  /// par::ParallelImageBuilder of that many workers (0 = all cores) —
  /// worth it for a chunk that completes many columns, like a whole
  /// recorded trace. Every column is a pure function of its window, so
  /// the image is bit-identical for every thread count and chunking.
  /// Degraded columns (set_angle_decimation) are always computed on the
  /// calling thread. Not allowed after take_image().
  std::size_t push(CSpan chunk, int num_threads = 1);

  /// Columns produced so far; grows by push(). Identical to
  /// core::MotionTracker(cfg).process(all samples so far, t0) whenever at
  /// least one window has completed.
  [[nodiscard]] const core::AngleTimeImage& image() const noexcept {
    return img_;
  }

  /// Move the accumulated image out — the cheap alternative to copying
  /// image() when the stream is done and the tracker is about to be
  /// discarded. The tracker keeps its angle grid and the moved-out
  /// columns stay counted by num_columns(), but image() reads empty, so
  /// only call this once no further push() will follow.
  [[nodiscard]] core::AngleTimeImage take_image();

  /// Image columns completed so far (counts columns moved out by
  /// take_image() too; equals image().num_times() until then).
  [[nodiscard]] std::size_t num_columns() const noexcept {
    return next_col_;
  }
  /// Total samples ingested since construction / the last reset().
  [[nodiscard]] std::size_t samples_seen() const noexcept {
    return base_ + buf_.size();
  }

  /// The image-stage configuration.
  [[nodiscard]] const core::MotionTracker::Config& config() const noexcept {
    return cfg_;
  }

  /// Graceful degradation under overload: when `factor` > 1, subsequent
  /// columns evaluate the MUSIC pseudospectrum only at every factor-th
  /// angle-grid point (the grid's end points always included) and fill the
  /// skipped angles by linear interpolation — the image shape, angle grid
  /// and event contract stay unchanged, the per-column scan cost drops
  /// ~factor-fold, and degraded columns are coarse approximations of the
  /// full-fidelity ones. Takes effect at the next completed column; 1
  /// restores full fidelity. See DESIGN.md §9 for the degradation ladder.
  void set_angle_decimation(int factor);
  /// Angle-grid decimation currently in effect (1 = full fidelity).
  [[nodiscard]] int angle_decimation() const noexcept { return decim_; }
  /// Columns emitted at reduced fidelity (angle_decimation() > 1) so far.
  [[nodiscard]] std::size_t degraded_columns() const noexcept {
    return degraded_cols_;
  }

  /// Drop all stream and image state and start a new trace at `t0`.
  void reset(double t0 = 0.0);

  /// Attach a per-stage latency observer (wivi::obs): push() records one
  /// `stft_doppler` span (the window's smoothed correlation) and one
  /// `music` span (pseudospectrum scan) per emitted column, at every
  /// thread count.
  /// nullptr detaches. The observer must outlive the tracker and is *not* owned;
  /// it survives reset().
  void set_observer(obs::PipelineObserver* observer) noexcept {
    obs_ = observer;
  }

 private:
  void compact();
  void emit_degraded_column(const linalg::CMatrix& r, RVec& out, int* order);

  core::MotionTracker::Config cfg_;
  double t0_ = 0.0;
  core::SmoothedMusic music_;
  // Correlation scratch lives in the per-thread core::music_scratch();
  // the tracker's own state is just the buffered stream tail + image.
  CVec buf_;                     // buffered tail of the stream
  std::size_t base_ = 0;         // stream index of buf_[0]
  std::size_t next_col_ = 0;     // next column index to emit
  core::AngleTimeImage img_;
  // Degraded-fidelity state (set_angle_decimation): the decimated grid and
  // its scratch column, rebuilt lazily when the factor changes.
  int decim_ = 1;
  std::size_t degraded_cols_ = 0;
  std::vector<std::size_t> coarse_idx_;  // full-grid indices evaluated
  RVec coarse_angles_;                   // angles at coarse_idx_
  RVec coarse_col_;                      // coarse pseudospectrum scratch
  obs::PipelineObserver* obs_ = nullptr;  // not owned; survives reset()
};

/// Streaming gesture decoding (§6): watches a growing angle-time image and
/// surfaces decoded bits as they become *stable* — far enough behind the
/// image frontier that later columns can no longer change their pairing.
/// Early emissions are provisional in the strict sense (the decoder's
/// noise scale is a whole-trace statistic): each bit time is emitted at
/// most once and in monotone time order, but a bit that a later re-decode
/// materialises *behind* the emission watermark is never delivered
/// incrementally. The final flush decode (result()) is always exactly
/// core::GestureDecoder::decode() of the full image.
class StreamingGesture {
 public:
  /// Decoder configuration plus the incremental-emission cadence.
  struct Config {
    /// Batch decoder configuration the stage re-runs incrementally.
    core::GestureDecoder::Config decoder;
    /// Re-decode cadence in image columns; decoding is O(image length), so
    /// running it every hop would make long sessions quadratic.
    std::size_t decode_interval_cols = 16;
    /// A bit whose centre lies this far behind the newest column is
    /// considered stable. <= 0 derives it from the gesture profile: one
    /// bit airtime plus the matched-filter half-width.
    double stability_guard_sec = 0.0;
  };

  StreamingGesture();  ///< Build a stage with the default Config.
  /// Build a stage with the given configuration.
  explicit StreamingGesture(Config cfg);

  /// Consider the image's newly appended columns; re-decodes when the
  /// cadence (or `flush`) demands and returns newly stable bits in time
  /// order. With `flush`, decodes unconditionally and returns everything
  /// not yet emitted.
  [[nodiscard]] std::vector<core::GestureDecoder::DecodedBit> poll(
      const core::AngleTimeImage& img, bool flush = false);

  /// Result of the most recent decode (the full batch result after a
  /// flush poll()).
  [[nodiscard]] const core::GestureDecoder::Result& result() const noexcept {
    return last_;
  }

  /// Move the most recent decode result out — the cheap alternative to
  /// copying result() when the stage is about to be discarded. result()
  /// reads empty afterwards.
  [[nodiscard]] core::GestureDecoder::Result take_result() {
    core::GestureDecoder::Result out = std::move(last_);
    last_ = core::GestureDecoder::Result{};
    return out;
  }
  /// Total bits returned by poll() so far.
  [[nodiscard]] std::size_t bits_emitted() const noexcept { return emitted_; }

 private:
  Config cfg_;
  core::GestureDecoder decoder_;
  core::GestureDecoder::Result last_;
  std::size_t cols_decoded_ = 0;   // image length at the last decode
  std::size_t emitted_ = 0;        // bits returned by poll() so far
  double emitted_until_ = -1e300;  // time watermark of the last emission
};

/// Streaming multi-target tracking: steps a track::MultiTargetTracker over
/// a growing angle-time image, one column at a time, as the columns
/// appear. Because the underlying tracker is strictly column-incremental
/// (it never revisits earlier columns), feeding columns as they complete
/// is *bit-for-bit identical* to the batch track::track_image() pass over
/// the finished image — the same parity contract as the other streaming
/// stages (pinned by test_track_streaming).
class StreamingMultiTracker {
 public:
  /// Wrap a fresh multi-target tracker with the given configuration.
  explicit StreamingMultiTracker(track::MultiTargetTracker::Config cfg = {})
      : tracker_(cfg) {}

  /// Step the tracker over any image columns not yet consumed.
  /// @param img  the growing image (same instance every call).
  /// @return how many new columns were consumed.
  std::size_t update(const core::AngleTimeImage& img);

  /// The wrapped tracker: snapshots(), histories(), num_confirmed()...
  [[nodiscard]] const track::MultiTargetTracker& tracker() const noexcept {
    return tracker_;
  }

  /// Live-track snapshots after the newest consumed column (empty before
  /// the first column).
  [[nodiscard]] const std::vector<track::TrackSnapshot>& snapshots()
      const noexcept {
    return tracker_.snapshots();
  }

  /// Image columns consumed so far.
  [[nodiscard]] std::size_t columns_seen() const noexcept {
    return tracker_.columns_processed();
  }

 private:
  track::MultiTargetTracker tracker_;
};

/// Streaming occupancy counting (§7.4): running Eq. 5.5 spatial-variance
/// average over the image columns seen so far. After the last column,
/// variance() equals core::spatial_variance() of the full image bit for
/// bit (same left-to-right accumulation).
class StreamingCounter {
 public:
  /// Accumulate columns on the [0, cap_db] dB scale (Eq. 5.4's cap;
  /// must be positive).
  explicit StreamingCounter(double cap_db = 60.0) : cap_db_(cap_db) {
    WIVI_REQUIRE(cap_db_ > 0.0, "cap_db must be positive");
  }

  /// Accumulate any image columns not yet seen; returns how many.
  std::size_t update(const core::AngleTimeImage& img);

  /// Running experiment-level spatial variance (0 before any column).
  [[nodiscard]] double variance() const noexcept {
    return n_ == 0 ? 0.0 : acc_ / static_cast<double>(n_);
  }
  /// Image columns accumulated so far.
  [[nodiscard]] std::size_t columns_seen() const noexcept { return n_; }

 private:
  double cap_db_;
  double acc_ = 0.0;
  std::size_t n_ = 0;
  RVec col_db_;  // column scratch, reused across updates
};

}  // namespace wivi::rt
