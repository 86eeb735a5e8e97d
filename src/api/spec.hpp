/// @file
/// The declarative pipeline specification the wivi::Session facade compiles.
///
/// Wi-Vi's pipeline is one dataflow — nulled channel stream → smoothed-MUSIC
/// angle-time image → detect/track/gesture/count — and a PipelineSpec is its
/// complete declarative description: the mandatory image stage plus an
/// optional<> per downstream stage. A spec says *what* to compute;
/// *how* it executes — batch, chunked streaming, or multiplexed inside
/// rt::Engine, on any number of image threads — is chosen per call on the
/// compiled wivi::Session, and every mode produces identical results (see
/// DESIGN.md §8).
///
/// The per-stage configuration structs are the single source of truth the
/// rest of the library already validates (core::MotionTracker::Config,
/// track::MultiTargetTracker::Config, rt::StreamingGesture::Config), so the
/// spec cannot drift from the stages it describes.
#pragma once

#include <cstddef>
#include <optional>

#include "src/core/tracker.hpp"
#include "src/rt/streaming.hpp"
#include "src/track/multi_tracker.hpp"

namespace wivi::api {

/// @addtogroup wivi_api
/// @{

/// The mandatory front end: channel-estimate samples → smoothed-MUSIC
/// angle-time image (§5.2).
struct ImageStage {
  /// Imaging configuration (hop, angle grid, MUSIC parameters). The
  /// thread count is chosen per run()/push() call, not in the spec.
  core::MotionTracker::Config tracker;
  /// Emit a ColumnEvent per completed image column (costs one column copy;
  /// turn off for counting- or tracking-only workloads).
  bool emit_columns = true;
};

/// Optional multi-target detect + track stage (§5.2 / §7.2): per-column
/// multi-peak detection, gated association, per-target Kalman smoothing and
/// lifecycle management. Emits TracksEvents.
struct TrackStage {
  /// Tracker configuration; `tracker.detector` holds the per-column
  /// detection thresholds (the shared core::PeakPolicy plus NMS geometry).
  track::MultiTargetTracker::Config tracker;
};

/// Optional gesture-decoding stage (§6). Emits BitsEvents as decoded bits
/// stabilise; the final flush decode equals the batch decode exactly.
struct GestureStage {
  /// Decoder configuration plus the incremental-emission cadence.
  rt::StreamingGesture::Config gesture;
};

/// Optional occupancy-counting stage (§7.4): running Eq. 5.5 spatial
/// variance. Emits CountEvents.
struct CountStage {
  /// dB cap of the column scale (Eq. 5.4's cap).
  double cap_db = 60.0;
};

/// Ingress trust-boundary validation of every chunk handed to
/// Session::push (and, via the Session, to every chunk an rt::Engine
/// worker feeds a multiplexed pipeline). A violating chunk is rejected
/// with a TypedError of ErrorCode::kInvalidChunk *before* any pipeline
/// state mutates, so a rejected chunk is a no-op: the session stays open
/// and the next valid chunk continues the stream (DESIGN.md §9).
struct InputGuard {
  /// Largest accepted chunk, in samples (a DoS/fat-finger bound; the
  /// default admits ~56 min of 312.5 Hz stream in one batch run() call).
  std::size_t max_chunk_samples = std::size_t{1} << 20;
  /// When non-zero, every chunk length must be a multiple of this many
  /// samples — the sensor's frame size, so a frame with missing or extra
  /// antenna rows is rejected at the boundary. 0 accepts any length.
  std::size_t frame_samples = 0;
  /// Reject chunks containing non-finite (NaN/Inf) samples. Costs one
  /// predictable scan per chunk (pinned ≤1% of pipeline cost by
  /// bench_fault); turn off only for pre-validated replay traces.
  bool check_finite = true;
};

/// Observability configuration of a compiled pipeline (wivi::obs): whether
/// the Session times its stages, and how many trace spans it retains for
/// Chrome-trace export. Stage timing is on by default and pinned ≤1% of
/// pipeline cost by bench_obs; the obs::set_enabled(false) run-time switch
/// and the WIVI_OBS=OFF compile-time switch override `timing` globally.
struct ObsConfig {
  /// Measure per-stage latencies (guard/stft_doppler/music/detect/emit/
  /// chunk) into the session's obs::PipelineObserver histograms, readable
  /// via Session::stats().
  bool timing = true;
  /// Most recent trace spans retained for Session::write_trace() (Chrome
  /// trace-event JSON). 0 keeps no spans — timing histograms still fill.
  std::size_t trace_capacity = 0;
};

/// One complete declarative pipeline description: what to compute for one
/// sensor stream. Compile it with wivi::Session.
struct PipelineSpec {
  /// The mandatory image stage.
  ImageStage image;
  /// Absolute time of the session's first sample.
  double t0 = 0.0;
  /// Attach multi-target tracking (TracksEvents).
  std::optional<TrackStage> track;
  /// Attach gesture decoding (BitsEvents).
  std::optional<GestureStage> gesture;
  /// Attach occupancy counting (CountEvents).
  std::optional<CountStage> count;
  /// Ingress validation policy applied to every pushed chunk.
  InputGuard guard;
  /// Observability: per-stage timing and trace retention.
  ObsConfig obs;

  /// Check every invariant of the spec and its stage configurations by
  /// driving them through the same validation the stages themselves
  /// enforce; throws InvalidArgument on the first violation. Compiling a
  /// Session validates implicitly — call this to vet a spec without
  /// paying for workspace allocation.
  void validate() const;
};

/// @}

}  // namespace wivi::api
