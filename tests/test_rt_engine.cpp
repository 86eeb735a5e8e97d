// rt::Engine: multi-session determinism (results independent of thread
// count and interleaving), parity with the batch pipeline through the full
// engine path, backpressure accounting, and a concurrent-producer stress
// pass. This binary is what the TSan CI job runs — every synchronisation
// edge in the engine (ring handoff, claim flag, close/finalise, event
// queue) is exercised here under real concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <variant>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/sim/synthetic.hpp"
#include "src/core/tracker.hpp"
#include "src/rt/engine.hpp"

namespace wivi {
namespace {

/// A count-stage pipeline, column events on unless `emit_columns` is false.
api::PipelineSpec count_spec(bool emit_columns = true) {
  api::PipelineSpec spec;
  spec.image.emit_columns = emit_columns;
  spec.count = api::CountStage{};
  return spec;
}

/// Ingest policy `policy` over a ring of `ring_capacity` chunks.
rt::IngestConfig ingest_of(
    rt::Backpressure policy,
    std::size_t ring_capacity = rt::IngestConfig{}.ring_capacity) {
  rt::IngestConfig ingest;
  ingest.ring_capacity = ring_capacity;
  ingest.backpressure = policy;
  return ingest;
}

std::vector<CVec> make_session_traces(std::size_t sessions, std::size_t len) {
  std::vector<CVec> traces;
  traces.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s)
    traces.push_back(
        sim::synthetic_mover_trace(len, 1000 + s, 0.3 + 0.1 * static_cast<double>(s)));
  return traces;
}

/// Feed every trace through an engine with the given thread count and
/// return each session's final image (chunk sizes vary per session so the
/// chunking itself is part of what must not matter).
std::vector<core::AngleTimeImage> run_engine(
    const std::vector<CVec>& traces, int num_threads,
    rt::Backpressure policy = rt::Backpressure::kBlock,
    std::size_t ring_capacity = 8) {
  rt::Engine::Config ec;
  ec.num_threads = num_threads;
  rt::Engine engine(ec);

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < traces.size(); ++s)
    ids.push_back(engine.open_session(count_spec(false),
                                      ingest_of(policy, ring_capacity)));
  // Round-robin feeding interleaves the sessions like concurrent sensors.
  std::vector<std::size_t> pos(traces.size(), 0);
  bool any = true;
  std::size_t round = 0;
  while (any) {
    any = false;
    for (std::size_t s = 0; s < traces.size(); ++s) {
      if (pos[s] >= traces[s].size()) continue;
      const std::size_t chunk = 16 + 13 * s + 7 * (round % 3);
      const std::size_t len = std::min(chunk, traces[s].size() - pos[s]);
      CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos[s]),
             traces[s].begin() + static_cast<std::ptrdiff_t>(pos[s] + len));
      engine.offer(ids[s], std::move(c));
      pos[s] += len;
      any = true;
    }
    ++round;
  }
  for (rt::SessionId id : ids) engine.close_session(id);
  engine.drain();

  std::vector<core::AngleTimeImage> images;
  for (rt::SessionId id : ids) {
    EXPECT_TRUE(engine.stats(id).finished);
    images.push_back(engine.pipeline(id).image());
  }
  return images;
}

void expect_images_identical(const core::AngleTimeImage& a,
                             const core::AngleTimeImage& b) {
  ASSERT_EQ(a.num_times(), b.num_times());
  ASSERT_EQ(a.num_angles(), b.num_angles());
  for (std::size_t t = 0; t < a.num_times(); ++t) {
    ASSERT_EQ(a.times_sec[t], b.times_sec[t]);
    ASSERT_EQ(a.model_orders[t], b.model_orders[t]);
    for (std::size_t x = 0; x < a.num_angles(); ++x)
      ASSERT_EQ(a.columns[t][x], b.columns[t][x]);
  }
}

TEST(Engine, MatchesBatchPipelineThroughOneSession) {
  const CVec h = sim::synthetic_mover_trace(1200, 77, 0.5);
  const core::MotionTracker tracker;
  const core::AngleTimeImage batch = tracker.process(h, 0.0);

  rt::Engine::Config ec;
  ec.num_threads = 2;
  rt::Engine engine(ec);
  const rt::SessionId id =
      engine.open_session(count_spec(), ingest_of(rt::Backpressure::kBlock));
  for (std::size_t pos = 0; pos < h.size(); pos += 100) {
    CVec c(h.begin() + static_cast<std::ptrdiff_t>(pos),
           h.begin() +
               static_cast<std::ptrdiff_t>(std::min(pos + 100, h.size())));
    EXPECT_TRUE(engine.offer(id, std::move(c)));
  }
  engine.close_session(id);
  engine.drain();

  expect_images_identical(batch, engine.pipeline(id).image());

  // The event stream carries every column exactly once, in order, plus a
  // final FinishedEvent with the batch spatial variance.
  std::vector<rt::Event> events;
  engine.poll(events);
  std::size_t next_col = 0;
  bool finished = false;
  for (const rt::Event& e : events) {
    EXPECT_EQ(e.session, id);
    if (const auto* c = std::get_if<api::ColumnEvent>(&e.event)) {
      EXPECT_EQ(c->column_index, next_col);
      EXPECT_EQ(c->time_sec, batch.times_sec[next_col]);
      ASSERT_EQ(c->column.size(), batch.num_angles());
      for (std::size_t a = 0; a < c->column.size(); ++a)
        EXPECT_EQ(c->column[a], batch.columns[next_col][a]);
      ++next_col;
    } else if (const auto* f = std::get_if<api::FinishedEvent>(&e.event)) {
      finished = true;
      EXPECT_EQ(f->spatial_variance, core::spatial_variance(batch));
      EXPECT_EQ(f->columns_seen, batch.num_times());
    }
  }
  EXPECT_EQ(next_col, batch.num_times());
  EXPECT_TRUE(finished);
}

TEST(Engine, ResultsIndependentOfThreadCountAndInterleaving) {
  const auto traces = make_session_traces(5, 900);
  const auto one = run_engine(traces, 1);
  const auto two = run_engine(traces, 2);
  const auto many = run_engine(traces, 7);  // more threads than sessions
  ASSERT_EQ(one.size(), traces.size());
  for (std::size_t s = 0; s < traces.size(); ++s) {
    expect_images_identical(one[s], two[s]);
    expect_images_identical(one[s], many[s]);
    // And each equals the batch pipeline over the same samples.
    const core::MotionTracker tracker;
    expect_images_identical(tracker.process(traces[s], 0.0), one[s]);
  }
}

TEST(Engine, ConcurrentProducersStress) {
  // One producer thread per session feeding chunks of pseudo-random size
  // while the worker pool processes and steals — the TSan target. A couple
  // of sessions use the drop policy with tiny rings so the overflow path
  // runs concurrently too.
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kLen = 700;
  const auto traces = make_session_traces(kSessions, kLen);

  rt::Engine::Config ec;
  ec.num_threads = 3;
  rt::Engine engine(ec);

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    api::PipelineSpec spec = count_spec(s % 2 == 0);
    if (s % 3 == 0) spec.gesture = api::GestureStage{};
    ids.push_back(engine.open_session(
        std::move(spec), s < 2 ? ingest_of(rt::Backpressure::kDropNewest, 2)
                               : ingest_of(rt::Backpressure::kBlock, 4)));
  }

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      Rng rng(9000 + s);
      std::size_t pos = 0;
      while (pos < traces[s].size()) {
        const std::size_t chunk =
            1 + static_cast<std::size_t>(rng() % 97);
        const std::size_t len = std::min(chunk, traces[s].size() - pos);
        CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
               traces[s].begin() + static_cast<std::ptrdiff_t>(pos + len));
        engine.offer(ids[s], std::move(c));
        pos += len;
      }
      engine.close_session(ids[s]);
    });
  }
  for (std::thread& t : producers) t.join();
  engine.drain();

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto st = engine.stats(ids[s]);
    EXPECT_TRUE(st.finished);
    // Conservation: every offered sample was either processed or dropped.
    EXPECT_EQ(engine.pipeline(ids[s]).samples_seen(),
              st.samples_in - st.samples_dropped);
    if (s >= 2) {
      EXPECT_EQ(st.samples_dropped, 0u) << "kBlock must not drop";
    }
    // Processed samples produce exactly the batch column count.
    const std::size_t n = engine.pipeline(ids[s]).samples_seen();
    const auto& cfg = engine.pipeline(ids[s]).tracker().config();
    const auto w = static_cast<std::size_t>(cfg.music.isar.window);
    const std::size_t expect_cols =
        n >= w ? (n - w) / static_cast<std::size_t>(cfg.hop) + 1 : 0;
    EXPECT_EQ(st.columns_out, expect_cols);
  }
}

TEST(Engine, CallbackDeliveryAndPerSessionOrder) {
  const auto traces = make_session_traces(3, 800);
  rt::Engine::Config ec;
  ec.num_threads = 3;
  rt::Engine engine(ec);

  std::mutex mu;
  std::map<rt::SessionId, std::vector<rt::Event>> per_session;
  engine.set_callback([&](rt::Event&& e) {
    std::lock_guard lk(mu);
    per_session[e.session].push_back(std::move(e));
  });

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < traces.size(); ++s)
    ids.push_back(
        engine.open_session(count_spec(), ingest_of(rt::Backpressure::kBlock)));
  for (std::size_t s = 0; s < traces.size(); ++s) {
    for (std::size_t pos = 0; pos < traces[s].size(); pos += 50) {
      CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
             traces[s].begin() + static_cast<std::ptrdiff_t>(
                                     std::min(pos + 50, traces[s].size())));
      engine.offer(ids[s], std::move(c));
    }
    engine.close_session(ids[s]);
  }
  engine.drain();

  // poll() is a no-op with a callback installed.
  std::vector<rt::Event> polled;
  EXPECT_EQ(engine.poll(polled), 0u);

  for (rt::SessionId id : ids) {
    const auto& events = per_session[id];
    ASSERT_FALSE(events.empty());
    // Columns arrive in index order; the last event is FinishedEvent.
    std::size_t next_col = 0;
    for (const rt::Event& e : events) {
      EXPECT_EQ(e.session, id);
      if (const auto* c = std::get_if<api::ColumnEvent>(&e.event)) {
        EXPECT_EQ(c->column_index, next_col++);
      }
    }
    EXPECT_TRUE(
        std::holds_alternative<api::FinishedEvent>(events.back().event));
    EXPECT_GT(next_col, 0u);
  }
}

TEST(Engine, ThrowingCallbackFailsOnlyItsSession) {
  const auto traces = make_session_traces(2, 600);
  rt::Engine::Config ec;
  ec.num_threads = 2;
  rt::Engine engine(ec);

  std::mutex mu;
  std::vector<rt::Event> good_events;
  rt::SessionId poison = 0;
  engine.set_callback([&](rt::Event&& e) {
    if (e.session == poison) throw std::runtime_error("downstream exploded");
    std::lock_guard lk(mu);
    good_events.push_back(std::move(e));
  });

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < traces.size(); ++s)
    ids.push_back(
        engine.open_session(count_spec(), ingest_of(rt::Backpressure::kBlock)));
  poison = ids[0];
  for (std::size_t s = 0; s < traces.size(); ++s) {
    for (std::size_t pos = 0; pos < traces[s].size(); pos += 64) {
      CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
             traces[s].begin() + static_cast<std::ptrdiff_t>(
                                     std::min(pos + 64, traces[s].size())));
      engine.offer(ids[s], std::move(c));
    }
    engine.close_session(ids[s]);
  }
  // The poisoned session dies on its first event; drain() must still
  // return and the healthy session must be untouched.
  engine.drain();
  EXPECT_TRUE(engine.stats(ids[0]).finished);
  EXPECT_TRUE(engine.stats(ids[1]).finished);

  const core::MotionTracker tracker;
  expect_images_identical(tracker.process(traces[1], 0.0),
                          engine.pipeline(ids[1]).image());
  std::lock_guard lk(mu);
  for (const rt::Event& e : good_events) EXPECT_EQ(e.session, ids[1]);
  EXPECT_TRUE(
      std::holds_alternative<api::FinishedEvent>(good_events.back().event));
}

TEST(Engine, DeadSessionNeverEmitsASecondErrorOrAnyLaterEvent) {
  // Error-path lifecycle: once a session has died (ErrorEvent delivered), no
  // worker may touch it again — in particular a stale pre-claim check must
  // not let a second worker process its still-filling ring and deliver
  // another ErrorEvent (or any event) for the already-dead id. Poisoned
  // callbacks + concurrent producers + small rings widen the race window;
  // repeated engine lifetimes cover the construction/teardown edges too.
  constexpr std::size_t kSessions = 4;
  constexpr int kRounds = 15;
  const auto traces = make_session_traces(kSessions, 500);

  for (int round = 0; round < kRounds; ++round) {
    rt::Engine::Config ec;
    ec.num_threads = 3;
    ec.chunks_per_claim = 1;  // maximise claim churn
    rt::Engine engine(ec);

    std::mutex mu;
    // Per session, whether each delivered event was an ErrorEvent.
    std::map<rt::SessionId, std::vector<bool>> seen;
    engine.set_callback([&](rt::Event&& e) {
      {
        std::lock_guard lk(mu);
        seen[e.session].push_back(
            std::holds_alternative<api::ErrorEvent>(e.event));
      }
      // Every session's first ColumnEvent poisons it.
      if (std::holds_alternative<api::ColumnEvent>(e.event))
        throw std::runtime_error("poisoned consumer");
    });

    std::vector<rt::SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s)
      ids.push_back(engine.open_session(
          count_spec(), ingest_of(rt::Backpressure::kBlock, 2)));
    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < kSessions; ++s) {
      producers.emplace_back([&, s] {
        for (std::size_t pos = 0; pos < traces[s].size(); pos += 40) {
          CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
                 traces[s].begin() + static_cast<std::ptrdiff_t>(
                                         std::min(pos + 40, traces[s].size())));
          engine.offer(ids[s], std::move(c));
        }
        engine.close_session(ids[s]);
      });
    }
    for (std::thread& t : producers) t.join();
    engine.drain();

    std::lock_guard lk(mu);
    for (rt::SessionId id : ids) {
      EXPECT_TRUE(engine.stats(id).finished);
      const auto& events = seen[id];
      const std::size_t errors = static_cast<std::size_t>(
          std::count(events.begin(), events.end(), true));
      ASSERT_EQ(errors, 1u) << "session " << id << " round " << round;
      // ErrorEvent is terminal: nothing may follow it.
      const auto first_err = std::find(events.begin(), events.end(), true);
      EXPECT_EQ(first_err + 1, events.end())
          << "session " << id << " got events after ErrorEvent";
    }
  }
}

TEST(Engine, RejectsMisuse) {
  rt::Engine engine;  // default config
  EXPECT_THROW((void)engine.stats(0), std::exception);
  const rt::SessionId id = engine.open_session(api::PipelineSpec{});
  engine.close_session(id);
  EXPECT_THROW((void)engine.offer(id, CVec(10)), std::exception);
  engine.drain();
  EXPECT_TRUE(engine.stats(id).finished);
}

/// samples_in == processed + dropped + rejected + lost, engine-wide.
void expect_samples_conserved(const rt::Engine& engine) {
  const rt::Engine::EngineStats st = engine.stats();
  EXPECT_EQ(st.samples_in, st.samples_processed + st.samples_dropped +
                               st.samples_rejected + st.samples_lost);
}

TEST(RunRecorded, RejectedTraceIsCountedAndTerminal) {
  rt::Engine engine({.num_threads = 2});
  CVec bad = sim::synthetic_mover_trace(1024, 5, 0.4);
  bad[700] = cdouble(std::numeric_limits<double>::quiet_NaN(), 0.0);
  const rt::SessionId id = engine.run_recorded(count_spec(), bad);

  const rt::SessionStats ss = engine.stats(id);
  EXPECT_TRUE(ss.finished);
  EXPECT_EQ(ss.chunks_rejected, 1u);
  EXPECT_EQ(ss.samples_rejected, bad.size());
  const rt::Engine::EngineStats st = engine.stats();
  EXPECT_EQ(st.samples_in, bad.size());
  EXPECT_EQ(st.chunks_rejected, 1u);
  EXPECT_EQ(st.samples_rejected, bad.size());
  expect_samples_conserved(engine);

  // The one event is the terminal ErrorEvent{kInvalidChunk}.
  std::vector<rt::Event> events;
  engine.poll(events);
  ASSERT_EQ(events.size(), 1u);
  const auto* err = std::get_if<api::ErrorEvent>(&events[0].event);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kInvalidChunk);
}

TEST(RunRecorded, FailedTraceCountsItsSamplesAsLost) {
  // A sink that throws on the first column kills the trace mid-push.
  rt::Engine engine({.num_threads = 2});
  engine.set_callback([](rt::Event&& e) {
    if (std::holds_alternative<api::ColumnEvent>(e.event))
      throw std::runtime_error("sink down");
  });
  const CVec h = sim::synthetic_mover_trace(1024, 6, 0.4);
  const rt::SessionId id = engine.run_recorded(count_spec(), h);
  EXPECT_TRUE(engine.stats(id).finished);
  EXPECT_TRUE(engine.pipeline(id).failed());
  EXPECT_EQ(engine.pipeline(id).error_code(), ErrorCode::kSinkFailure);
  EXPECT_EQ(engine.stats().samples_lost, h.size());
  expect_samples_conserved(engine);
}

}  // namespace
}  // namespace wivi
