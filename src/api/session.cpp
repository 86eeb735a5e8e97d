#include "src/api/session.hpp"

#include <cmath>
#include <utility>

#include "src/common/error.hpp"

namespace wivi::api {

Session::Session(PipelineSpec spec)
    : spec_(std::move(spec)),
      obs_(spec_.obs.timing, spec_.obs.trace_capacity),
      tracker_(spec_.image.tracker, spec_.t0) {
  // Compiling validates: every stage constructor (tracker_ above, the
  // emplaces below) enforces its own invariants — the same checks
  // PipelineSpec::validate() drives, so the spec is not re-validated
  // wholesale here.
  if (spec_.track) multi_.emplace(spec_.track->tracker);
  if (spec_.gesture) gesture_.emplace(spec_.gesture->gesture);
  if (spec_.count) counter_.emplace(spec_.count->cap_db);
  tracker_.set_observer(&obs_);
}

core::AngleTimeImage Session::take_image() {
  WIVI_REQUIRE(state_ != State::kOpen,
               "take_image() requires a finished session");
  return tracker_.take_image();
}

core::GestureDecoder::Result Session::take_gesture_result() {
  WIVI_REQUIRE(gesture_.has_value(), "the spec has no GestureStage");
  WIVI_REQUIRE(state_ != State::kOpen,
               "take_gesture_result() requires a finished session");
  return gesture_->take_result();
}

const track::MultiTargetTracker& Session::multi_tracker() const {
  WIVI_REQUIRE(multi_.has_value(), "the spec has no TrackStage");
  return multi_->tracker();
}

const core::GestureDecoder::Result& Session::gesture_result() const {
  WIVI_REQUIRE(gesture_.has_value(), "the spec has no GestureStage");
  return gesture_->result();
}

double Session::spatial_variance() const {
  WIVI_REQUIRE(counter_.has_value(), "the spec has no CountStage");
  return counter_->variance();
}

void Session::fail(ErrorCode code, const char* what) noexcept {
  state_ = State::kFailed;
  error_ = what;
  error_code_ = code;
  // Best effort: the sink may be the very thing that threw.
  try {
    emit(ErrorEvent{error_, code});
  } catch (...) {
  }
}

/// Run `fn`; on any exception mark the session failed (delivering a
/// best-effort ErrorEvent carrying the failure's ErrorCode) and rethrow
/// to the caller. TypedError keeps its own classification (a throwing
/// sink surfaces as kSinkFailure via emit()'s wrapping); anything else a
/// stage throws is kStageFailure.
template <typename Fn>
decltype(auto) Session::guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const TypedError& e) {
    fail(e.code(), e.what());
    throw;
  } catch (const std::exception& e) {
    fail(ErrorCode::kStageFailure, e.what());
    throw;
  } catch (...) {
    fail(ErrorCode::kStageFailure, "unknown exception");
    throw;
  }
}

void Session::emit(Event&& e) {
  ++events_emitted_;
  obs::ScopedSpan span(&obs_, obs::Stage::kEmit);
  if (callback_) {
    // Classify sink deaths at the throw site: the message survives
    // verbatim, the wrapper only adds ErrorCode::kSinkFailure for the
    // guard above (and the Engine's restart policy) to dispatch on.
    try {
      callback_(std::move(e));
    } catch (const TypedError&) {
      throw;
    } catch (const std::exception& ex) {
      throw TypedError(ErrorCode::kSinkFailure, ex.what());
    } catch (...) {
      throw TypedError(ErrorCode::kSinkFailure, "unknown sink exception");
    }
    return;
  }
  queue_.push_back(std::move(e));
}

/// The InputGuard scan: every rejection throws TypedError{kInvalidChunk}
/// before any pipeline state has mutated, so the caller may simply drop
/// the chunk and continue the stream.
void Session::guard_chunk(CSpan chunk) const {
  const InputGuard& g = spec_.guard;
  if (chunk.empty())
    throw TypedError(ErrorCode::kInvalidChunk, "rejected chunk: empty");
  if (chunk.size() > g.max_chunk_samples)
    throw TypedError(ErrorCode::kInvalidChunk,
                     "rejected chunk: exceeds guard.max_chunk_samples");
  if (g.frame_samples != 0 && chunk.size() % g.frame_samples != 0)
    throw TypedError(
        ErrorCode::kInvalidChunk,
        "rejected chunk: length is not a whole number of sensor frames "
        "(guard.frame_samples)");
  if (g.check_finite) {
    for (const cdouble& z : chunk) {
      if (!std::isfinite(z.real()) || !std::isfinite(z.imag()))
        throw TypedError(ErrorCode::kInvalidChunk,
                         "rejected chunk: non-finite sample");
    }
  }
}

/// Deliver the per-column events for columns [from, end) plus one update
/// round of each attached stage — the tail of every accepted push
/// (ColumnEvents, then CountEvent, TracksEvent, BitsEvent).
void Session::emit_new_columns(std::size_t from) {
  const core::AngleTimeImage& img = tracker_.image();
  const std::size_t after = img.num_times();
  if (after == from) return;

  if (spec_.image.emit_columns) {
    for (std::size_t c = from; c < after; ++c) {
      ColumnEvent e;
      e.column_index = c;
      e.time_sec = img.times_sec[c];
      e.column = img.columns[c];
      e.model_order = img.model_orders[c];
      emit(std::move(e));
    }
  }
  if (counter_) {
    obs::ScopedSpan span(&obs_, obs::Stage::kDetect);
    counter_->update(img);
    span.stop();
    emit(CountEvent{counter_->variance(), counter_->columns_seen()});
  }
  if (multi_) {
    obs::ScopedSpan span(&obs_, obs::Stage::kDetect);
    multi_->update(img);
    span.stop();
    TracksEvent e;
    e.tracks = multi_->snapshots();
    e.num_confirmed = multi_->tracker().num_confirmed();
    e.columns_seen = multi_->columns_seen();
    emit(std::move(e));
  }
  if (gesture_) {
    obs::ScopedSpan span(&obs_, obs::Stage::kDetect);
    auto bits = gesture_->poll(img, /*flush=*/false);
    span.stop();
    if (!bits.empty()) {
      bits_emitted_ += bits.size();
      emit(BitsEvent{std::move(bits)});
    }
  }
}

std::size_t Session::push(CSpan chunk, int num_threads) {
  WIVI_REQUIRE(state_ == State::kOpen, "push() on a finished session");
  WIVI_REQUIRE(num_threads >= 0, "num_threads must be >= 0");
  // Outside guarded(): a rejected chunk is a no-op, not a session death.
  {
    obs::ScopedSpan span(&obs_, obs::Stage::kGuard);
    try {
      guard_chunk(chunk);
    } catch (...) {
      ++chunks_rejected_;
      throw;
    }
  }
  // The chunk span covers the accepted pipeline (post-guard through emit);
  // rejected chunks never pollute the chunk-latency histogram.
  obs::ScopedSpan span(&obs_, obs::Stage::kChunk);
  return guarded([&]() -> std::size_t {
    if (fault_hook_) fault_hook_(pushes_accepted_);
    ++pushes_accepted_;
    const std::size_t before = tracker_.num_columns();
    tracker_.push(chunk, num_threads);
    emit_new_columns(before);
    return tracker_.num_columns() - before;
  });
}

void Session::finish() {
  WIVI_REQUIRE(state_ == State::kOpen, "finish() on a finished session");
  guarded([&] {
    const core::AngleTimeImage& img = tracker_.image();
    if (gesture_) {
      auto bits = gesture_->poll(img, /*flush=*/true);
      if (!bits.empty()) {
        bits_emitted_ += bits.size();
        emit(BitsEvent{std::move(bits)});
      }
    }
    if (counter_) counter_->update(img);
    if (multi_) multi_->update(img);

    FinishedEvent e;
    e.columns_seen = tracker_.num_columns();
    if (counter_) e.spatial_variance = counter_->variance();
    if (multi_) e.num_confirmed = multi_->tracker().num_confirmed();
    emit(std::move(e));
    state_ = State::kFinished;
  });
}

void Session::run(CSpan trace, int num_threads) {
  // An empty recorded trace is a legal degenerate batch (0 columns), not
  // a malformed chunk — skip straight to the finalisation.
  if (!trace.empty()) push(trace, num_threads);
  finish();
}

std::size_t Session::poll(std::vector<Event>& out) {
  const std::size_t n = queue_.size();
  if (n > 0) {
    out.insert(out.end(), std::make_move_iterator(queue_.begin()),
               std::make_move_iterator(queue_.end()));
    queue_.clear();
  }
  return n;
}

void Session::set_callback(std::function<void(Event&&)> cb) {
  WIVI_REQUIRE(state_ == State::kOpen && samples_seen() == 0 &&
                   queue_.empty(),
               "install the callback on a fresh session, before push()");
  callback_ = std::move(cb);
}

void Session::set_fault_hook(std::function<void(std::size_t)> hook) {
  WIVI_REQUIRE(state_ == State::kOpen && samples_seen() == 0,
               "install the fault hook on a fresh session, before push()");
  fault_hook_ = std::move(hook);
}

PipelineStats Session::stats() const {
  PipelineStats s;
  s.chunks_in = pushes_accepted_;
  s.chunks_rejected = chunks_rejected_;
  s.samples_seen = samples_seen();
  s.columns_seen = columns_seen();
  s.bits_emitted = bits_emitted_;
  s.events_emitted = events_emitted_;
  for (int i = 0; i < obs::kStageCount; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    const obs::LocalHistogram& h = obs_.stage(stage);
    if (h.count() == 0) continue;
    s.stages.push_back({obs::stage_name(stage), h.snapshot()});
  }
  return s;
}

obs::Snapshot Session::snapshot() const {
  obs::Snapshot snap;
  snap.source = "wivi::Session";
  snap.add_counter("wivi_session_chunks_in_total", pushes_accepted_);
  snap.add_counter("wivi_session_chunks_rejected_total", chunks_rejected_);
  snap.add_counter("wivi_session_samples_seen_total", samples_seen());
  snap.add_counter("wivi_session_columns_total", columns_seen());
  snap.add_counter("wivi_session_bits_total", bits_emitted_);
  snap.add_counter("wivi_session_events_total", events_emitted_);
  obs_.add_to_snapshot(snap, "wivi_stage_");
  return snap;
}

void Session::write_trace(std::ostream& os) const {
  obs::write_chrome_trace(os, obs_.trace(), "wivi::Session");
}

void Session::set_fidelity(int angle_decimation) {
  WIVI_REQUIRE(state_ == State::kOpen,
               "set_fidelity() on a finished session");
  tracker_.set_angle_decimation(angle_decimation);
}

}  // namespace wivi::api
