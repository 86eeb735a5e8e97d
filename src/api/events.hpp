/// @file
/// Typed pipeline output events of the wivi::Session facade.
///
/// Every unit of output a compiled pipeline produces is one alternative of
/// the api::Event variant — one struct per stage kind. Consumers dispatch
/// with std::visit or std::get_if and the type system guarantees they can
/// only read fields that exist. A multiplexing rt::Engine delivers the same
/// variant, tagged with the session it belongs to (rt::Event).
///
/// Delivery order within one session is deterministic: for every batch of
/// freshly completed image columns, ColumnEvents (one per column, in column
/// order) precede the stage updates, which arrive in the fixed order
/// CountEvent, TracksEvent, BitsEvent; FinishedEvent (or ErrorEvent) is
/// always last.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/gesture.hpp"
#include "src/obs/histogram.hpp"
#include "src/track/multi_tracker.hpp"

namespace wivi::api {

/// @addtogroup wivi_api
/// @{

/// One new angle-time image column (emitted when ImageStage::emit_columns).
struct ColumnEvent {
  /// Index of the new column in the session's image.
  std::size_t column_index = 0;
  /// Absolute time of the column (window centre).
  double time_sec = 0.0;
  /// Linear MUSIC pseudospectrum over the session's angle grid.
  RVec column;
  /// MUSIC model order of the column.
  int model_order = 0;
};

/// Live multi-target snapshots after the newest processed columns (emitted
/// once per batch of new columns when a TrackStage is attached).
struct TracksEvent {
  /// Live track snapshots after the newest processed column, id order.
  std::vector<track::TrackSnapshot> tracks;
  /// Currently live confirmed-or-coasting targets.
  std::size_t num_confirmed = 0;
  /// Image columns processed so far.
  std::size_t columns_seen = 0;
};

/// Newly stable decoded gesture bits, time order (emitted when a
/// GestureStage is attached and new bits stabilised).
struct BitsEvent {
  /// The newly stable bits (each bit time is delivered at most once).
  std::vector<core::GestureDecoder::DecodedBit> bits;
};

/// Running Eq. 5.5 spatial-variance update (emitted once per batch of new
/// columns when a CountStage is attached).
struct CountEvent {
  /// Running experiment-level spatial variance.
  double spatial_variance = 0.0;
  /// Image columns accumulated so far.
  std::size_t columns_seen = 0;
};

/// End of stream: the session is finalised (always the last event of a
/// healthy session).
struct FinishedEvent {
  /// Image columns produced over the whole session.
  std::size_t columns_seen = 0;
  /// Final spatial variance (0 unless a CountStage was attached).
  double spatial_variance = 0.0;
  /// Final confirmed-target count (0 unless a TrackStage was attached).
  std::size_t num_confirmed = 0;
};

/// The session failed (a stage or the event sink threw, or a runtime
/// policy killed it) and is dead; no further events follow — except under
/// an rt::RestartPolicy, where a RecoveredEvent may follow and only the
/// last ErrorEvent is terminal (DESIGN.md §9).
struct ErrorEvent {
  /// What the failing stage or sink threw.
  std::string message;
  /// Machine-readable failure class (wivi::error_code_name() for the
  /// string form; taxonomy in DESIGN.md §9).
  ErrorCode code = ErrorCode::kStageFailure;
};

/// Watchdog warning: the session's feeder has delivered nothing for longer
/// than its liveness deadline (rt::WatchdogConfig). Advisory — the session
/// is still alive; if silence continues, a terminal ErrorEvent with
/// ErrorCode::kTimeout follows. Emitted by the rt::Engine only.
struct StalledEvent {
  /// How long the feeder has been silent.
  double silent_sec = 0.0;
  /// Chunks the session had received when the stall was detected.
  std::uint64_t chunks_seen = 0;
};

/// The session failed but was re-armed under its rt::RestartPolicy: a fresh
/// pipeline now continues consuming the stream (earlier columns are lost;
/// column indices restart from 0). Emitted by the rt::Engine only.
struct RecoveredEvent {
  /// Restarts consumed so far, this one included.
  int restarts = 0;
  /// Failure class of the fault that forced the restart.
  ErrorCode cause = ErrorCode::kStageFailure;
  /// What the failing stage or sink threw.
  std::string message;
};

/// Graceful-degradation transition under overload (rt::OverloadPolicy):
/// the session moved down the ladder to a coarser MUSIC angle grid, or —
/// with `degraded == false` — recovered full fidelity after the hysteresis
/// window of drop-free input. Emitted by the rt::Engine only.
struct OverloadEvent {
  /// True when entering degraded mode, false when restoring full fidelity.
  bool degraded = false;
  /// Angle-grid decimation now in effect (1 = full fidelity).
  int fidelity = 1;
  /// Cumulative chunks lost to backpressure at the transition.
  std::uint64_t chunks_dropped = 0;
  /// Cumulative samples lost to backpressure at the transition.
  std::uint64_t samples_dropped = 0;
};

/// Periodic per-session telemetry snapshot (rt::IngestConfig::
/// stats_interval_sec): the session's cumulative ingest/output counters and
/// its chunk→event latency summary, emitted in-band so a sink can watch
/// session health without polling Engine::stats(). Emitted by the
/// rt::Engine only.
struct StatsEvent {
  /// Chunks accepted into the session's ring so far.
  std::uint64_t chunks_in = 0;
  /// Samples accepted into the session's ring so far.
  std::uint64_t samples_in = 0;
  /// Chunks lost to backpressure (ring full) so far.
  std::uint64_t chunks_dropped = 0;
  /// Samples lost to backpressure so far.
  std::uint64_t samples_dropped = 0;
  /// Chunks rejected by the session's InputGuard so far.
  std::uint64_t chunks_rejected = 0;
  /// Samples rejected by the session's InputGuard so far.
  std::uint64_t samples_rejected = 0;
  /// Image columns the session has produced so far.
  std::uint64_t columns_out = 0;
  /// Gesture bits the session has emitted so far.
  std::uint64_t bits_out = 0;
  /// Restarts consumed so far (rt::RestartPolicy).
  int restarts = 0;
  /// Angle-grid decimation currently in effect (1 = full fidelity).
  int fidelity = 1;
  /// True while the watchdog has the session flagged as stalled.
  bool stalled = false;
  /// Offer→processed chunk latency summary (nanoseconds).
  obs::HistogramSnapshot latency;
};

/// One unit of pipeline output: exactly one of the event structs above.
/// StalledEvent/RecoveredEvent/OverloadEvent/StatsEvent are runtime-health
/// events only the multiplexing rt::Engine produces; a standalone Session
/// never emits them.
using Event = std::variant<ColumnEvent, TracksEvent, BitsEvent, CountEvent,
                           FinishedEvent, ErrorEvent, StalledEvent,
                           RecoveredEvent, OverloadEvent, StatsEvent>;

/// @}

}  // namespace wivi::api
