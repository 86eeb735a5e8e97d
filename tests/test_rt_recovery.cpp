// rt::Engine failure handling (DESIGN.md §9): the liveness watchdog
// (advisory StalledEvent, fatal kTimeout — including the never-fed-session
// case), bounded-retry RestartPolicy recovery, InputGuard rejection
// accounting inside the engine, the overload degrade/restore ladder, and
// the loss counters Engine::stats() reports once a session finishes.
// Timing-sensitive tests use generous deadlines and bounded loops so they
// stay robust under sanitizers and loaded CI machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <variant>
#include <vector>

#include "src/api/session.hpp"
#include "src/fault/fault.hpp"
#include "src/rt/engine.hpp"
#include "src/sim/synthetic.hpp"

namespace wivi::rt {
namespace {

constexpr std::size_t kChunk = 64;

api::PipelineSpec count_spec() {
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.count = api::CountStage{};
  return spec;
}

void feed_all(Engine& engine, SessionId id, const CVec& trace) {
  for (std::size_t pos = 0; pos < trace.size(); pos += kChunk) {
    const std::size_t len = std::min(kChunk, trace.size() - pos);
    engine.offer(id, CVec(trace.begin() + static_cast<std::ptrdiff_t>(pos),
                          trace.begin() + static_cast<std::ptrdiff_t>(pos + len)));
  }
}

/// True when the engine event carries an api::Event alternative of type T.
template <typename T>
bool is(const Event& e) {
  return std::holds_alternative<T>(e.event);
}

std::vector<Event> events_of(Engine& engine, SessionId id) {
  std::vector<Event> all;
  engine.poll(all);
  std::vector<Event> mine;
  for (Event& e : all)
    if (e.session == id) mine.push_back(std::move(e));
  return mine;
}

// ------------------------------------------------------------- watchdog ---

TEST(Watchdog, NeverFedSessionResolvesWithTypedTimeout) {
  // A session that is opened but never offered a chunk and never closed
  // used to hang drain() forever; with a fatal watchdog it must resolve
  // on its own with a terminal typed ErrorEvent(kTimeout).
  Engine::Config ec;
  ec.num_threads = 2;
  Engine engine(ec);

  IngestConfig ingest;
  ingest.watchdog.stall_timeout_sec = 0.05;
  ingest.watchdog.timeout_is_fatal = true;
  const SessionId id = engine.open_session(count_spec(), std::move(ingest));

  engine.drain();  // must return — no offer(), no close_session()

  const std::vector<Event> events = events_of(engine, id);
  ASSERT_FALSE(events.empty());
  const auto* last = std::get_if<api::ErrorEvent>(&events.back().event);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->code, ErrorCode::kTimeout);
  // The advisory fired on the way down (silence passed 1x the deadline
  // before it passed 2x).
  const bool stalled =
      std::any_of(events.begin(), events.end(), is<api::StalledEvent>);
  EXPECT_TRUE(stalled);
  const auto st = engine.stats(id);
  EXPECT_TRUE(st.finished);
  EXPECT_FALSE(st.closed);
  // A dead session swallows late offers as drops instead of erroring.
  EXPECT_FALSE(engine.offer(id, CVec(kChunk, cdouble(1.0, 0.0))));
}

TEST(Watchdog, AdvisoryStallIsOneShotAndTheSessionFinishesHealthy) {
  Engine::Config ec;
  ec.num_threads = 2;
  Engine engine(ec);

  IngestConfig ingest;
  ingest.backpressure = Backpressure::kBlock;
  ingest.watchdog.stall_timeout_sec = 0.08;
  ingest.watchdog.timeout_is_fatal = false;  // advise, never kill
  const SessionId id = engine.open_session(count_spec(), std::move(ingest));

  const CVec trace = sim::synthetic_mover_trace(2048, 21, 0.4);
  const std::size_t half = (trace.size() / 2 / kChunk) * kChunk;
  for (std::size_t pos = 0; pos < half; pos += kChunk)
    engine.offer(id, CVec(trace.begin() + static_cast<std::ptrdiff_t>(pos),
                          trace.begin() + static_cast<std::ptrdiff_t>(pos + kChunk)));

  // Go silent until the watchdog notices (the advisory needs the worker
  // to find the ring empty, so under a sanitizer the backlog must drain
  // first — poll instead of sleeping a fixed amount), then well past 2x
  // the deadline: non-fatal means the watchdog must only ever advise.
  bool stalled = false;
  for (int spin = 0; spin < 60000 && !stalled; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stalled = engine.stats(id).stalled;
  }
  ASSERT_TRUE(stalled) << "the advisory never fired";
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  for (std::size_t pos = half; pos < trace.size(); pos += kChunk) {
    const std::size_t len = std::min(kChunk, trace.size() - pos);
    engine.offer(id, CVec(trace.begin() + static_cast<std::ptrdiff_t>(pos),
                          trace.begin() + static_cast<std::ptrdiff_t>(pos + len)));
  }
  engine.close_session(id);
  engine.drain();

  const std::vector<Event> events = events_of(engine, id);
  const auto stall_count =
      std::count_if(events.begin(), events.end(), is<api::StalledEvent>);
  EXPECT_EQ(stall_count, 1) << "StalledEvent must be one-shot per silence";
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(is<api::FinishedEvent>(events.back()));

  // The stall was advisory only: the output is bit-identical to an
  // uninterrupted standalone run over the same trace.
  api::Session reference(count_spec());
  reference.run(trace);
  EXPECT_EQ(engine.pipeline(id).image().columns, reference.image().columns);
  EXPECT_EQ(engine.pipeline(id).spatial_variance(),
            reference.spatial_variance());
}

// -------------------------------------------------------------- restart ---

TEST(Restart, MidTraceFailureRestartsAndEmitsRecovered) {
  Engine::Config ec;
  ec.num_threads = 2;
  Engine engine(ec);

  IngestConfig ingest;
  ingest.backpressure = Backpressure::kBlock;
  ingest.fault_hook = fault::throw_hook({5});
  ingest.restart.max_restarts = 1;
  const SessionId id = engine.open_session(count_spec(), std::move(ingest));

  const CVec trace = sim::synthetic_mover_trace(1536, 23, 0.4);
  feed_all(engine, id, trace);
  engine.close_session(id);
  engine.drain();

  // Event order: ... ErrorEvent(kStageFailure) -> RecoveredEvent -> ...
  // FinishedEvent.
  const std::vector<Event> events = events_of(engine, id);
  std::size_t i_error = events.size();
  std::size_t i_recovered = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (is<api::ErrorEvent>(events[i]) && i_error == events.size())
      i_error = i;
    if (is<api::RecoveredEvent>(events[i])) i_recovered = i;
  }
  ASSERT_LT(i_error, events.size()) << "the injected failure must surface";
  ASSERT_LT(i_recovered, events.size());
  EXPECT_LT(i_error, i_recovered) << "RecoveredEvent follows the ErrorEvent";
  EXPECT_EQ(std::get<api::ErrorEvent>(events[i_error].event).code,
            ErrorCode::kStageFailure);
  const auto& recovered =
      std::get<api::RecoveredEvent>(events[i_recovered].event);
  EXPECT_EQ(recovered.cause, ErrorCode::kStageFailure);
  EXPECT_EQ(recovered.restarts, 1);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(is<api::FinishedEvent>(events.back()));

  const auto st = engine.stats(id);
  EXPECT_TRUE(st.finished);
  EXPECT_EQ(st.restarts, 1);
  // The restarted pipeline kept consuming the stream: column accounting
  // stays monotone across the re-arm (columns from both incarnations).
  EXPECT_GT(st.columns_out, 0u);
}

TEST(Restart, ExhaustedRestartsAreTerminal) {
  Engine::Config ec;
  ec.num_threads = 2;
  Engine engine(ec);

  IngestConfig ingest;
  ingest.backpressure = Backpressure::kBlock;
  // The hook's counter spans restarts, so pushes 0, 1 and 2 each kill a
  // pipeline incarnation: failure -> restart -> failure -> dead.
  ingest.fault_hook = fault::throw_hook({0, 1, 2});
  ingest.restart.max_restarts = 1;
  const SessionId id = engine.open_session(count_spec(), std::move(ingest));

  feed_all(engine, id, sim::synthetic_mover_trace(1024, 29, 0.4));
  // The fatal throw lands asynchronously in a worker; drain() refuses
  // unresolved never-closed sessions, so wait for the death first
  // (finished-by-failure: no close_session() needed).
  for (int spin = 0; spin < 20000 && !engine.stats(id).finished; ++spin)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  ASSERT_TRUE(engine.stats(id).finished);
  engine.drain();

  const std::vector<Event> events = events_of(engine, id);
  const auto recovered =
      std::count_if(events.begin(), events.end(), is<api::RecoveredEvent>);
  EXPECT_EQ(recovered, 1) << "exactly max_restarts recoveries";
  ASSERT_FALSE(events.empty());
  const auto* last = std::get_if<api::ErrorEvent>(&events.back().event);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->code, ErrorCode::kStageFailure);
  const bool finished_event =
      std::any_of(events.begin(), events.end(), is<api::FinishedEvent>);
  EXPECT_FALSE(finished_event) << "a dead session must not finish healthy";

  const auto st = engine.stats(id);
  EXPECT_TRUE(st.finished);
  EXPECT_EQ(st.restarts, 1);
  EXPECT_FALSE(engine.offer(id, CVec(kChunk, cdouble(1.0, 0.0))));
}

// ----------------------------------------------------- input rejection ---

TEST(InputRejection, MalformedChunkIsCountedAndDoesNotPerturbTheStream) {
  Engine::Config ec;
  ec.num_threads = 2;
  Engine engine(ec);

  IngestConfig ingest;
  ingest.backpressure = Backpressure::kBlock;
  const SessionId id = engine.open_session(count_spec(), std::move(ingest));

  const CVec trace = sim::synthetic_mover_trace(1536, 31, 0.4);
  CVec bad(48, cdouble(1.0, 0.0));
  bad[17] = cdouble(std::numeric_limits<double>::quiet_NaN(), 0.0);

  std::size_t sent = 0;
  for (std::size_t pos = 0; pos < trace.size(); pos += kChunk) {
    if (sent++ == 7) engine.offer(id, CVec(bad));  // mid-stream poison
    const std::size_t len = std::min(kChunk, trace.size() - pos);
    engine.offer(id, CVec(trace.begin() + static_cast<std::ptrdiff_t>(pos),
                          trace.begin() + static_cast<std::ptrdiff_t>(pos + len)));
  }
  engine.close_session(id);
  engine.drain();

  const auto st = engine.stats(id);
  EXPECT_TRUE(st.finished);
  EXPECT_EQ(st.chunks_rejected, 1u);
  EXPECT_EQ(st.samples_rejected, bad.size());
  EXPECT_EQ(st.restarts, 0) << "a rejection must not burn a restart";

  const std::vector<Event> events = events_of(engine, id);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(is<api::FinishedEvent>(events.back()));

  // Conservation: every offered sample is seen, dropped, or rejected.
  EXPECT_EQ(engine.pipeline(id).samples_seen(),
            st.samples_in - st.samples_dropped - st.samples_rejected);

  // The rejected chunk was a pure no-op on the pipeline.
  api::Session reference(count_spec());
  reference.run(trace);
  EXPECT_EQ(engine.pipeline(id).image().columns, reference.image().columns);
  EXPECT_EQ(engine.pipeline(id).spatial_variance(),
            reference.spatial_variance());
}

// -------------------------------------------------------------- overload ---

TEST(Overload, LadderDegradesUnderDropsAndRestoresAfterQuiet) {
  Engine::Config ec;
  ec.num_threads = 1;  // one worker makes the ring easy to overwhelm
  Engine engine(ec);

  IngestConfig ingest;
  ingest.ring_capacity = 1;
  ingest.backpressure = Backpressure::kDropNewest;
  ingest.overload.degrade = true;
  ingest.overload.degrade_after_drops = 1;
  ingest.overload.degraded_fidelity = 4;
  ingest.overload.restore_after_chunks = 4;
  const SessionId id = engine.open_session(count_spec(), std::move(ingest));

  const CVec trace = sim::synthetic_mover_trace(8192, 37, 0.4);
  const auto chunk_at = [&](std::size_t i) {
    const std::size_t pos = (i * kChunk) % (trace.size() - kChunk);
    return CVec(trace.begin() + static_cast<std::ptrdiff_t>(pos),
                trace.begin() + static_cast<std::ptrdiff_t>(pos + kChunk));
  };

  // Phase 1: flood a depth-1 ring until the ladder trips (bounded loop —
  // under a sanitizer the worker is slow, so this trips almost at once).
  std::size_t i = 0;
  bool degraded = false;
  for (; i < 200000 && !degraded; ++i) {
    engine.offer(id, chunk_at(i));
    degraded = engine.stats(id).fidelity > 1;
  }
  ASSERT_TRUE(degraded) << "the overload ladder never tripped";
  EXPECT_EQ(engine.stats(id).fidelity, 4);
  EXPECT_GT(engine.stats(id).chunks_dropped, 0u);

  // Phase 2: slow to a trickle until the hysteresis restores fidelity.
  // The pace adapts: whenever a chunk still dropped, double the gap —
  // under a sanitizer a chunk takes far longer than on bare metal, and
  // a fixed pace would keep flooding the depth-1 ring forever.
  bool restored = false;
  std::int64_t gap_ms = 2;
  std::uint64_t last_drops = engine.stats(id).chunks_dropped;
  for (std::size_t j = 0; j < 600 && !restored; ++j) {
    engine.offer(id, chunk_at(i + j));
    std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
    const auto st = engine.stats(id);
    if (st.chunks_dropped > last_drops) {
      last_drops = st.chunks_dropped;
      gap_ms = std::min<std::int64_t>(gap_ms * 2, 1000);
    }
    restored = st.fidelity == 1;
  }
  EXPECT_TRUE(restored) << "full fidelity never came back";

  engine.close_session(id);
  engine.drain();

  // Both transitions were announced, in order, with the right payloads.
  const std::vector<Event> events = events_of(engine, id);
  std::size_t i_down = events.size();
  std::size_t i_up = events.size();
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto* ov = std::get_if<api::OverloadEvent>(&events[k].event);
    if (!ov) continue;
    if (ov->degraded && i_down == events.size()) i_down = k;
    if (!ov->degraded) i_up = k;
  }
  ASSERT_LT(i_down, events.size());
  ASSERT_LT(i_up, events.size());
  EXPECT_LT(i_down, i_up);
  const auto& down = std::get<api::OverloadEvent>(events[i_down].event);
  EXPECT_EQ(down.fidelity, 4);
  EXPECT_GT(down.chunks_dropped, 0u);
  EXPECT_EQ(std::get<api::OverloadEvent>(events[i_up].event).fidelity, 1);
}

// ------------------------------------------------------ loss accounting ---

TEST(LossAccounting, StatsReadAtFinishedEqualThePostDrainStats) {
  // The FinishedEvent carries no loss counters; a consumer reads them from
  // Engine::stats() when it arrives. Pin that they are already final then:
  // a drop (kDropNewest on a flooded depth-1 ring) and an InputGuard
  // rejection both land before the session finishes.
  Engine::Config ec;
  ec.num_threads = 1;
  Engine engine(ec);
  std::optional<SessionStats> at_finish;
  engine.set_callback([&](Event&& e) {
    if (is<api::FinishedEvent>(e)) at_finish = engine.stats(e.session);
  });

  IngestConfig ingest;
  ingest.ring_capacity = 1;
  ingest.backpressure = Backpressure::kDropNewest;
  const SessionId id = engine.open_session(count_spec(), std::move(ingest));

  // The poison chunk goes first, into the empty ring, so it cannot drop;
  // the flood behind it must.
  CVec bad(48, cdouble(1.0, 0.0));
  bad[5] = cdouble(std::numeric_limits<double>::infinity(), 0.0);
  ASSERT_TRUE(engine.offer(id, CVec(bad)));
  feed_all(engine, id, sim::synthetic_mover_trace(4096, 41, 0.4));
  engine.close_session(id);
  engine.drain();

  const SessionStats st = engine.stats(id);
  EXPECT_GT(st.chunks_dropped, 0u) << "flooding a depth-1 ring must drop";
  EXPECT_EQ(st.chunks_rejected, 1u);
  EXPECT_EQ(st.samples_rejected, bad.size());
  ASSERT_TRUE(at_finish.has_value()) << "no FinishedEvent was delivered";
  EXPECT_EQ(at_finish->chunks_dropped, st.chunks_dropped);
  EXPECT_EQ(at_finish->samples_dropped, st.samples_dropped);
  EXPECT_EQ(at_finish->chunks_rejected, st.chunks_rejected);
  EXPECT_EQ(at_finish->samples_rejected, st.samples_rejected);
  EXPECT_EQ(engine.pipeline(id).samples_seen(),
            st.samples_in - st.samples_dropped - st.samples_rejected);
}

// ------------------------------------------- degraded-fidelity imaging ---

TEST(Degradation, CoarseColumnsKeepTheImageShapeInvariant) {
  api::PipelineSpec spec = count_spec();
  api::Session full(spec);
  api::Session coarse(spec);
  coarse.set_fidelity(4);

  const CVec trace = sim::synthetic_mover_trace(1536, 43, 0.4);
  full.run(trace);
  coarse.run(trace);

  const auto& a = full.image();
  const auto& b = coarse.image();
  ASSERT_EQ(b.num_times(), a.num_times());
  ASSERT_EQ(b.num_angles(), a.num_angles());
  for (std::size_t t = 0; t < b.num_times(); ++t) {
    ASSERT_EQ(b.columns[t].size(), a.columns[t].size()) << "column " << t;
    // The decimated grid is anchored at both ends of the angle axis, so
    // the endpoints are exact pseudospectrum evaluations, not lerps.
    EXPECT_EQ(b.columns[t].front(), a.columns[t].front()) << "column " << t;
    EXPECT_EQ(b.columns[t].back(), a.columns[t].back()) << "column " << t;
    for (double v : b.columns[t]) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(coarse.tracker().degraded_columns(), b.num_times());
  EXPECT_EQ(full.tracker().degraded_columns(), 0u);
}

TEST(Degradation, RestoringFidelityMidStreamIsBitExactFromThereOn) {
  // Decimation only affects how a column is *evaluated*, never the
  // tracker's sliding state — so after set_fidelity(1), every further
  // column must be bit-identical to a session that never degraded.
  api::PipelineSpec spec = count_spec();
  api::Session full(spec);
  api::Session toggled(spec);
  toggled.set_fidelity(3);

  const CVec trace = sim::synthetic_mover_trace(2048, 47, 0.4);
  const std::size_t half = trace.size() / 2;
  full.push(CSpan(trace).subspan(0, half));
  toggled.push(CSpan(trace).subspan(0, half));
  const std::size_t switch_col = toggled.columns_seen();
  EXPECT_GT(switch_col, 0u) << "test needs columns on both sides";

  toggled.set_fidelity(1);
  EXPECT_EQ(toggled.fidelity(), 1);
  full.push(CSpan(trace).subspan(half));
  toggled.push(CSpan(trace).subspan(half));
  full.finish();
  toggled.finish();

  const auto& a = full.image();
  const auto& b = toggled.image();
  ASSERT_EQ(b.num_times(), a.num_times());
  ASSERT_GT(a.num_times(), switch_col);
  for (std::size_t t = switch_col; t < a.num_times(); ++t)
    EXPECT_EQ(b.columns[t], a.columns[t]) << "post-restore column " << t;
  EXPECT_EQ(toggled.tracker().degraded_columns(), switch_col);
}

}  // namespace
}  // namespace wivi::rt
