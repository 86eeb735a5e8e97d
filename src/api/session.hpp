/// @file
/// wivi::Session — one compiled pipeline, every execution mode.
///
/// A Session is the single entry point to the Wi-Vi dataflow: compile a
/// declarative api::PipelineSpec once, then execute it
///
///   * **chunked streaming** — push(chunk) ... finish(): live chunks of any
///     size, bit-identical to the batch pass (built on the rt::Streaming*
///     state machines and their pinned streaming==batch contract);
///   * **batch** — run(trace, num_threads): push(trace, num_threads) then
///     finish() for one whole recorded stream. The thread count only
///     decides how many cores compute the image columns (every column is a
///     pure function of its window, DESIGN.md §7): images, events and
///     stats are the same for every value;
///   * **multiplexed** — rt::Engine owns one Session per sensor and drives
///     the same push()/finish() path under its worker pool.
///
/// Output is a stream of typed api::Event variants delivered to a poll
/// queue or a callback sink. Results are also readable directly
/// (image(), multi_tracker(), gesture_result(), spatial_variance()).
///
/// Threading: a Session is single-threaded like the stages it compiles —
/// one instance per sensor stream, one thread at a time (rt::Engine
/// enforces this with its per-session claim; see DESIGN.md §4). A push
/// with num_threads != 1 runs its column workers inside the call.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/api/events.hpp"
#include "src/api/spec.hpp"
#include "src/obs/snapshot.hpp"
#include "src/obs/trace.hpp"
#include "src/rt/streaming.hpp"

namespace wivi::api {

/// @addtogroup wivi_api
/// @{

/// One stage's latency summary inside PipelineStats.
struct StageLatency {
  /// Stage name (obs::stage_name: "guard", "stft_doppler", ...).
  const char* stage = "";
  /// Latency summary of every span of that stage, nanoseconds.
  obs::HistogramSnapshot latency;
};

/// Point-in-time telemetry of one Session (Session::stats()): cumulative
/// pipeline counters plus one latency summary per pipeline stage that has
/// recorded at least one span. Stage timing obeys the spec's
/// api::ObsConfig and the global obs switches.
struct PipelineStats {
  /// Chunks accepted by push() (rejected chunks excluded).
  std::uint64_t chunks_in = 0;
  /// Chunks rejected by the InputGuard (TypedError{kInvalidChunk}).
  std::uint64_t chunks_rejected = 0;
  /// Samples ingested so far.
  std::uint64_t samples_seen = 0;
  /// Image columns completed so far.
  std::uint64_t columns_seen = 0;
  /// Gesture bits emitted so far.
  std::uint64_t bits_emitted = 0;
  /// Events delivered (queued or called back) so far.
  std::uint64_t events_emitted = 0;
  /// Per-stage latency summaries, pipeline order; only stages with spans.
  std::vector<StageLatency> stages;
};

/// A compiled pipeline: the spec's stages instantiated and ready to
/// execute in any mode. Construction validates the whole spec
/// (InvalidArgument on any violated invariant).
class Session {
 public:
  /// Compile `spec` (validates every stage configuration).
  explicit Session(PipelineSpec spec);

  Session(const Session&) = delete;             ///< Non-copyable.
  Session& operator=(const Session&) = delete;  ///< Non-copyable.

  /// The compiled specification.
  [[nodiscard]] const PipelineSpec& spec() const noexcept { return spec_; }

  /// Streaming execution: ingest one chunk of any size and emit the events
  /// it completes. Returns the number of image columns the chunk finished.
  /// With `num_threads` != 1 (0 = all cores) the chunk's columns are
  /// computed over that many workers (rt::StreamingTracker::push) — the
  /// same columns, events and stats as with 1.
  ///
  /// The chunk is first validated against the spec's InputGuard (ingress
  /// trust boundary): an empty, oversized, frame-misaligned or non-finite
  /// chunk throws TypedError{ErrorCode::kInvalidChunk} *before any state
  /// mutates* — the rejected chunk is a no-op and the session stays open
  /// for the next chunk. Exceptions from a stage or the event sink, by
  /// contrast, propagate after the session delivers a best-effort
  /// ErrorEvent (sink exceptions wrapped as ErrorCode::kSinkFailure,
  /// everything else classified kStageFailure) and marks itself failed().
  std::size_t push(CSpan chunk, int num_threads = 1);

  /// End of stream: final gesture flush, final stage updates, then
  /// FinishedEvent. The session only accepts accessor reads afterwards.
  void finish();

  /// Batch execution: push(trace, num_threads) then finish() in one call
  /// — bit-identical to any chunking of the same stream at any thread
  /// count. An empty trace is a legal degenerate batch (0 columns).
  void run(CSpan trace, int num_threads = 1);

  /// Move all queued events into `out` (appended); returns how many.
  /// Returns 0 when a callback sink is installed (nothing ever queues).
  std::size_t poll(std::vector<Event>& out);

  /// Deliver events through `cb` as they are produced instead of the
  /// poll() queue. Install on a fresh session, before the first push().
  /// A throwing callback fails the session (see push()).
  void set_callback(std::function<void(Event&&)> cb);

  /// Chaos-engineering failpoint: `hook` runs at the start of every
  /// accepted push() with the 0-based index of that push, *inside* the
  /// failure guard — a throwing hook behaves exactly like a pipeline stage
  /// throwing at that chunk (ErrorEvent, failed(), rethrow). This is how
  /// the fault-injection suites script stage exceptions at exact chunk
  /// indices (fault::throw_hook); rejected chunks do not advance the
  /// index. Install on a fresh session, before the first push().
  void set_fault_hook(std::function<void(std::size_t)> hook);

  /// Graceful degradation: run the image stage at the given angle-grid
  /// decimation from the next column on (1 = full fidelity; see
  /// rt::StreamingTracker::set_angle_decimation for the exact semantics).
  /// Callable any time while the session is open — the rt::Engine drives
  /// this from its overload ladder.
  void set_fidelity(int angle_decimation);
  /// Angle-grid decimation currently in effect (1 = full fidelity).
  [[nodiscard]] int fidelity() const noexcept {
    return tracker_.angle_decimation();
  }

  /// The angle-time image produced so far.
  [[nodiscard]] const core::AngleTimeImage& image() const noexcept {
    return tracker_.image();
  }
  /// The underlying streaming image stage.
  [[nodiscard]] const rt::StreamingTracker& tracker() const noexcept {
    return tracker_;
  }
  /// Move the angle-time image out of a finished session — the cheap
  /// alternative to copying image() when the session is about to be
  /// discarded. Requires finish() to have run; image() reads empty
  /// afterwards.
  [[nodiscard]] core::AngleTimeImage take_image();
  /// The multi-target tracker (requires a TrackStage in the spec).
  [[nodiscard]] const track::MultiTargetTracker& multi_tracker() const;
  /// Final gesture decode — exactly the batch decode of the full image
  /// once finish() has run (requires a GestureStage in the spec).
  [[nodiscard]] const core::GestureDecoder::Result& gesture_result() const;
  /// Move the final gesture decode out of a finished session (see
  /// take_image() for when to prefer moving; gesture_result() reads empty
  /// afterwards). Requires a GestureStage and finish().
  [[nodiscard]] core::GestureDecoder::Result take_gesture_result();
  /// Running Eq. 5.5 spatial variance (requires a CountStage in the spec).
  [[nodiscard]] double spatial_variance() const;

  /// Image columns completed so far.
  [[nodiscard]] std::size_t columns_seen() const noexcept {
    return tracker_.num_columns();
  }
  /// Samples ingested so far.
  [[nodiscard]] std::size_t samples_seen() const noexcept {
    return tracker_.samples_seen();
  }
  /// Gesture bits emitted so far (0 without a GestureStage).
  [[nodiscard]] std::size_t bits_emitted() const noexcept {
    return bits_emitted_;
  }

  /// Point-in-time telemetry: cumulative counters plus per-stage latency
  /// summaries (nanoseconds). p50/p99 are non-zero for any stage that ran
  /// with timing enabled (spec.obs.timing, the default). Callable any
  /// time, including after finish().
  [[nodiscard]] PipelineStats stats() const;

  /// The same telemetry as one exportable obs::Snapshot (counters named
  /// `wivi_session_*_total`, stage histograms `wivi_stage_<stage>_ns`) —
  /// feed it to obs::write_snapshot for JSON or Prometheus text.
  [[nodiscard]] obs::Snapshot snapshot() const;

  /// Write the retained trace spans (most recent spec.obs.trace_capacity
  /// spans) as Chrome trace-event JSON — loadable in Perfetto. With
  /// trace_capacity 0 the trace is valid but empty.
  void write_trace(std::ostream& os) const;

  /// The session's per-stage instrument (histograms + trace ring).
  [[nodiscard]] const obs::PipelineObserver& observer() const noexcept {
    return obs_;
  }

  /// True once the session stopped accepting input: finish() ran, or it
  /// failed().
  [[nodiscard]] bool finished() const noexcept {
    return state_ != State::kOpen;
  }
  /// True if the session died on an exception (ErrorEvent delivered).
  [[nodiscard]] bool failed() const noexcept {
    return state_ == State::kFailed;
  }
  /// What the failing stage or sink threw (empty unless failed()).
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// Failure classification of the death (kNone unless failed()).
  [[nodiscard]] ErrorCode error_code() const noexcept { return error_code_; }

 private:
  enum class State { kOpen, kFinished, kFailed };

  template <typename Fn>
  decltype(auto) guarded(Fn&& fn);
  void guard_chunk(CSpan chunk) const;
  void emit(Event&& e);
  void emit_new_columns(std::size_t from);
  void fail(ErrorCode code, const char* what) noexcept;

  PipelineSpec spec_;
  obs::PipelineObserver obs_;  // before tracker_: tracker_ holds a pointer
  rt::StreamingTracker tracker_;
  std::optional<rt::StreamingMultiTracker> multi_;
  std::optional<rt::StreamingGesture> gesture_;
  std::optional<rt::StreamingCounter> counter_;

  std::function<void(Event&&)> callback_;
  std::function<void(std::size_t)> fault_hook_;
  std::vector<Event> queue_;
  State state_ = State::kOpen;
  std::string error_;
  ErrorCode error_code_ = ErrorCode::kNone;
  std::size_t bits_emitted_ = 0;
  std::size_t pushes_accepted_ = 0;
  std::size_t chunks_rejected_ = 0;
  std::size_t events_emitted_ = 0;
};

/// @}

}  // namespace wivi::api

namespace wivi {

/// Canonical short spelling of api::PipelineSpec.
using api::PipelineSpec;
/// Canonical short spelling of api::Session.
using api::Session;

}  // namespace wivi
