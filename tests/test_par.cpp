// wivi::par — the thread pool and the column-parallel image builder.
//
// The load-bearing property is determinism: ParallelImageBuilder output
// must be bit-identical (same doubles, same model orders) for every
// thread count 1..8, for repeated builds on one instance, and to the
// streaming path, because every column is a pure function of its window
// and every workspace is numerically history-independent.
// The pool stress tests here also run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <variant>
#include <vector>

#include "src/api/session.hpp"
#include "src/core/tracker.hpp"
#include "src/par/image_builder.hpp"
#include "src/par/thread_pool.hpp"
#include "src/rt/engine.hpp"
#include "src/rt/streaming.hpp"
#include "src/sim/synthetic.hpp"
#include "src/track/multi_tracker.hpp"

namespace wivi {
namespace {

CVec make_trace(std::size_t n) {
  return sim::synthetic_mover_trace(n, 404, 0.6);
}

void expect_images_bit_identical(const core::AngleTimeImage& a,
                                 const core::AngleTimeImage& b) {
  ASSERT_EQ(a.num_times(), b.num_times());
  ASSERT_EQ(a.num_angles(), b.num_angles());
  for (std::size_t t = 0; t < a.num_times(); ++t) {
    ASSERT_EQ(a.times_sec[t], b.times_sec[t]) << "column " << t;
    ASSERT_EQ(a.model_orders[t], b.model_orders[t]) << "column " << t;
    for (std::size_t x = 0; x < a.num_angles(); ++x)
      ASSERT_EQ(a.columns[t][x], b.columns[t][x])
          << "column " << t << " angle " << x;
  }
}

// ---------------------------------------------------------- ThreadPool ---

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  par::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, pool.num_threads());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  par::ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);  // no synchronisation needed: inline execution
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ZeroCountIsANoop) {
  par::ThreadPool pool(3);
  pool.parallel_for(0, [&](std::size_t, int) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  // TSan target: the publish/claim/retire cycle repeated back to back,
  // with job sizes straddling the worker count.
  par::ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const auto count = static_cast<std::size_t>(1 + round % 9);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(count, [&](std::size_t i, int) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), count * (count + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, FirstExceptionIsRethrownAndEveryTaskStillRuns) {
  // The contract is pool-size independent: the inline (size 1) path must
  // drain the range and rethrow exactly like the threaded path.
  for (const int size : {1, 4}) {
    par::ThreadPool pool(size);
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](std::size_t i, int) {
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                            if (i % 7 == 3)
                              throw std::runtime_error("task boom");
                          }),
        std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "pool=" << size << " index " << i;
    // The pool survives a throwing job.
    std::atomic<int> ran{0};
    pool.parallel_for(8, [&](std::size_t, int) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPool, RejectsNestedParallelFor) {
  par::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   4,
                   [&](std::size_t, int) {
                     pool.parallel_for(2, [](std::size_t, int) {});
                   }),
               std::exception);
}

// ------------------------------------------------ ParallelImageBuilder ---

TEST(ParallelImageBuilder, BitIdenticalAcrossThreadCounts1To8) {
  // The acceptance-criterion sweep: one trace, eight thread counts, all
  // images equal double for double — from the builder and from a
  // Session::run at that thread count. Long enough for several blocks so
  // the partition actually fans out.
  const CVec h = make_trace(2000);
  const core::MotionTracker::Config cfg;
  const par::ParallelImageBuilder reference(cfg, 1);
  const core::AngleTimeImage ref = reference.build(h, 0.25);
  EXPECT_GT(ref.num_times(),
            par::ParallelImageBuilder::kColumnsPerBlock * 3);
  api::PipelineSpec spec;
  spec.t0 = 0.25;
  for (int threads = 1; threads <= 8; ++threads) {
    const par::ParallelImageBuilder builder(cfg, threads);
    expect_images_bit_identical(ref, builder.build(h, 0.25));
    api::Session session(spec);
    session.run(h, threads);
    expect_images_bit_identical(ref, session.image());
  }
}

TEST(ParallelImageBuilder, RepeatedBuildsOnOneInstanceAreIdentical) {
  // Workspace reuse must be numerically invisible: warm workspaces from a
  // previous build (even of a different trace) change nothing.
  const CVec h = make_trace(1200);
  const par::ParallelImageBuilder builder(core::MotionTracker::Config{}, 4);
  const core::AngleTimeImage first = builder.build(h);
  (void)builder.build(make_trace(700));  // dirty the workspaces
  expect_images_bit_identical(first, builder.build(h));
}

TEST(ParallelImageBuilder, MatchesSequentialStreamingPathBitForBit) {
  // The sequential paths — the batch tracker and a streaming tracker fed
  // odd-sized chunks (so windows straddle chunk boundaries and buffer
  // compaction) — against four workers: same columns, model orders and
  // time stamps, double for double.
  const CVec h = make_trace(6000);
  const core::MotionTracker tracker;
  const core::AngleTimeImage p =
      par::ParallelImageBuilder(tracker.config(), 4).build(h, 0.5);
  expect_images_bit_identical(tracker.process(h, 0.5), p);

  rt::StreamingTracker streaming(tracker.config(), 0.5);
  for (std::size_t pos = 0; pos < h.size(); pos += 37)
    streaming.push(CSpan(h).subspan(pos, std::min<std::size_t>(37, h.size() - pos)));
  expect_images_bit_identical(streaming.image(), p);
}

TEST(ParallelImageBuilder, ShortTraceSingleBlockStillWorks) {
  const core::MotionTracker::Config cfg;
  const auto w = static_cast<std::size_t>(cfg.music.isar.window);
  const CVec h = make_trace(w + 3 * static_cast<std::size_t>(cfg.hop));
  const core::AngleTimeImage img =
      par::ParallelImageBuilder(cfg, 8).build(h);  // workers >> blocks
  EXPECT_EQ(img.num_times(), 4u);
  expect_images_bit_identical(img,
                              par::ParallelImageBuilder(cfg, 1).build(h));
}

TEST(ParallelImageBuilder, RejectsTooShortStream) {
  const core::MotionTracker::Config cfg;
  const CVec h = make_trace(static_cast<std::size_t>(cfg.music.isar.window) - 1);
  EXPECT_THROW((void)par::ParallelImageBuilder(cfg, 2).build(h),
               std::exception);
}

// ------------------------------------------------- batch entry wiring ---

TEST(TrackTrace, MatchesManualImageThenTrack) {
  const CVec h = sim::synthetic_crossing_trace(6.0, 17);
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.track = api::TrackStage{};
  api::Session session(spec);
  session.run(h);
  const core::AngleTimeImage img =
      par::ParallelImageBuilder(spec.image.tracker, 4).build(h);
  expect_images_bit_identical(img, session.image());
  const auto want = track::track_image(img);
  const auto& got = session.multi_tracker().histories();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].state, got[i].state);
    ASSERT_EQ(want[i].angles_deg.size(), got[i].angles_deg.size());
    for (std::size_t t = 0; t < want[i].angles_deg.size(); ++t)
      EXPECT_EQ(want[i].angles_deg[t], got[i].angles_deg[t]);
  }
}

TEST(RunRecorded, MatchesBuilderOutputAndDeliversFullEventStream) {
  const CVec h = make_trace(1100);
  rt::Engine::Config ec;
  ec.num_threads = 3;
  rt::Engine engine(ec);

  api::PipelineSpec spec;
  spec.count = api::CountStage{};
  spec.t0 = 1.5;
  const rt::SessionId id = engine.run_recorded(spec, h);

  // The session is finished on return and the image is the builder's.
  EXPECT_TRUE(engine.stats(id).finished);
  const core::AngleTimeImage want =
      par::ParallelImageBuilder(spec.image.tracker, ec.num_threads)
          .build(h, spec.t0);
  expect_images_bit_identical(want, engine.pipeline(id).image());
  EXPECT_EQ(engine.pipeline(id).samples_seen(), h.size());
  EXPECT_EQ(engine.stats(id).columns_out, want.num_times());

  // Events: every column once in order, one CountEvent, then a
  // FinishedEvent with the batch spatial variance of the (parallel) image.
  std::vector<rt::Event> events;
  engine.poll(events);
  std::size_t next_col = 0;
  std::size_t counts = 0;
  bool finished = false;
  for (const rt::Event& e : events) {
    ASSERT_EQ(e.session, id);
    if (const auto* c = std::get_if<api::ColumnEvent>(&e.event)) {
      EXPECT_FALSE(finished);
      EXPECT_EQ(c->column_index, next_col);
      ASSERT_EQ(c->column.size(), want.num_angles());
      for (std::size_t a = 0; a < c->column.size(); ++a)
        EXPECT_EQ(c->column[a], want.columns[next_col][a]);
      ++next_col;
    } else if (std::holds_alternative<api::CountEvent>(e.event)) {
      ++counts;
    } else if (const auto* f = std::get_if<api::FinishedEvent>(&e.event)) {
      finished = true;
      EXPECT_EQ(f->spatial_variance, core::spatial_variance(want));
      EXPECT_EQ(f->columns_seen, want.num_times());
    }
  }
  EXPECT_EQ(next_col, want.num_times());
  EXPECT_EQ(counts, 1u);
  EXPECT_TRUE(finished);

  // A recorded session is closed: offering afterwards is an error.
  EXPECT_THROW((void)engine.offer(id, CVec(10)), std::exception);
}

TEST(RunRecorded, ColumnsEqualAPushedSessionBitForBit) {
  // The recorded fast path and a live session fed chunk by chunk deliver
  // the same column events, double for double.
  const CVec h = make_trace(1300);
  api::PipelineSpec spec;
  spec.t0 = 0.75;
  api::Session pushed(spec);
  for (std::size_t pos = 0; pos < h.size(); pos += 100)
    pushed.push(CSpan(h).subspan(pos, std::min<std::size_t>(100, h.size() - pos)));
  pushed.finish();
  std::vector<api::Event> want_events;
  pushed.poll(want_events);
  std::vector<const api::ColumnEvent*> want_cols;
  for (const api::Event& e : want_events)
    if (const auto* c = std::get_if<api::ColumnEvent>(&e)) want_cols.push_back(c);

  rt::Engine::Config ec;
  ec.num_threads = 4;
  rt::Engine engine(ec);
  const rt::SessionId id = engine.run_recorded(spec, h);
  std::vector<rt::Event> got_events;
  engine.poll(got_events);
  std::vector<const api::ColumnEvent*> got_cols;
  for (const rt::Event& e : got_events)
    if (const auto* c = std::get_if<api::ColumnEvent>(&e.event))
      got_cols.push_back(c);

  ASSERT_GT(want_cols.size(), par::ParallelImageBuilder::kColumnsPerBlock * 3);
  ASSERT_EQ(got_cols.size(), want_cols.size());
  for (std::size_t i = 0; i < want_cols.size(); ++i) {
    EXPECT_EQ(got_cols[i]->column_index, want_cols[i]->column_index);
    EXPECT_EQ(got_cols[i]->time_sec, want_cols[i]->time_sec) << "column " << i;
    EXPECT_EQ(got_cols[i]->model_order, want_cols[i]->model_order)
        << "column " << i;
    ASSERT_EQ(got_cols[i]->column, want_cols[i]->column) << "column " << i;
  }
  expect_images_bit_identical(pushed.image(), engine.pipeline(id).image());
}

TEST(RunRecorded, TrackTargetsSessionMatchesBatchTrackImage) {
  const CVec h = sim::synthetic_crossing_trace(5.0, 22);
  rt::Engine::Config ec;
  ec.num_threads = 2;
  rt::Engine engine(ec);
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.track = api::TrackStage{};
  const rt::SessionId id = engine.run_recorded(spec, h);
  EXPECT_TRUE(engine.stats(id).finished);

  const core::AngleTimeImage img =
      par::ParallelImageBuilder(spec.image.tracker, ec.num_threads).build(h);
  const auto want = track::track_image(img, spec.track->tracker);
  const auto got = engine.multi_tracker(id).histories();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].confirmed_ever, got[i].confirmed_ever);
  }
}

}  // namespace
}  // namespace wivi
