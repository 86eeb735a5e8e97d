// The wivi::api facade contract: every PipelineSpec / stage-config
// invariant rejects bad input through WIVI_REQUIRE, and the compiled
// wivi::Session is *bit-identical* to the legacy entry points in every
// execution mode — batch (core::MotionTracker / GestureDecoder /
// spatial_variance / track_image), chunked streaming, any image thread
// count (par::ParallelImageBuilder) and engine-multiplexed (rt::Engine).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <variant>

#include "src/api/session.hpp"
#include "src/common/error.hpp"
#include "src/core/counting.hpp"
#include "src/core/gesture.hpp"
#include "src/core/tracker.hpp"
#include "src/par/image_builder.hpp"
#include "src/rt/engine.hpp"
#include "src/sim/synthetic.hpp"
#include "src/track/multi_tracker.hpp"

namespace wivi {
namespace {

// ---------------------------------------------------------- test helpers ---

/// The canonical three-mover trace every parity test runs on (long enough
/// for confirmed tracks and a crossing, short enough to stay fast).
const CVec& crossing_trace() {
  static const CVec h = sim::synthetic_crossing_trace(8.0, 1234);
  return h;
}

/// A spec with every stage attached and column events on.
api::PipelineSpec full_spec() {
  api::PipelineSpec spec;
  spec.track = api::TrackStage{};
  spec.gesture = api::GestureStage{};
  spec.count = api::CountStage{};
  return spec;
}

void expect_images_identical(const core::AngleTimeImage& a,
                             const core::AngleTimeImage& b,
                             const char* label) {
  ASSERT_EQ(a.num_times(), b.num_times()) << label;
  ASSERT_EQ(a.angles_deg, b.angles_deg) << label;
  ASSERT_EQ(a.times_sec, b.times_sec) << label;
  ASSERT_EQ(a.model_orders, b.model_orders) << label;
  for (std::size_t t = 0; t < a.num_times(); ++t)
    ASSERT_EQ(a.columns[t], b.columns[t]) << label << " col " << t;
}

void expect_histories_identical(const std::vector<track::TrackHistory>& a,
                                const std::vector<track::TrackHistory>& b,
                                const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label;
    EXPECT_EQ(a[i].birth_column, b[i].birth_column) << label;
    EXPECT_EQ(a[i].state, b[i].state) << label;
    EXPECT_EQ(a[i].confirmed_ever, b[i].confirmed_ever) << label;
    EXPECT_EQ(a[i].times_sec, b[i].times_sec) << label;
    EXPECT_EQ(a[i].angles_deg, b[i].angles_deg) << label;
    EXPECT_EQ(a[i].updated, b[i].updated) << label;
  }
}

void expect_events_identical(const std::vector<api::Event>& a,
                             const std::vector<api::Event>& b,
                             const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].index(), b[i].index()) << label << " event " << i;
    std::visit(
        [&](const auto& ea) {
          using T = std::decay_t<decltype(ea)>;
          const auto& eb = std::get<T>(b[i]);
          if constexpr (std::is_same_v<T, api::ColumnEvent>) {
            EXPECT_EQ(ea.column_index, eb.column_index) << label;
            EXPECT_EQ(ea.time_sec, eb.time_sec) << label;
            EXPECT_EQ(ea.column, eb.column) << label;
            EXPECT_EQ(ea.model_order, eb.model_order) << label;
          } else if constexpr (std::is_same_v<T, api::TracksEvent>) {
            EXPECT_EQ(ea.num_confirmed, eb.num_confirmed) << label;
            EXPECT_EQ(ea.columns_seen, eb.columns_seen) << label;
            ASSERT_EQ(ea.tracks.size(), eb.tracks.size()) << label;
            for (std::size_t k = 0; k < ea.tracks.size(); ++k) {
              EXPECT_EQ(ea.tracks[k].id, eb.tracks[k].id) << label;
              EXPECT_EQ(ea.tracks[k].angle_deg, eb.tracks[k].angle_deg)
                  << label;
              EXPECT_EQ(ea.tracks[k].state, eb.tracks[k].state) << label;
            }
          } else if constexpr (std::is_same_v<T, api::BitsEvent>) {
            ASSERT_EQ(ea.bits.size(), eb.bits.size()) << label;
            for (std::size_t k = 0; k < ea.bits.size(); ++k) {
              EXPECT_EQ(ea.bits[k].value, eb.bits[k].value) << label;
              EXPECT_EQ(ea.bits[k].time_sec, eb.bits[k].time_sec) << label;
              EXPECT_EQ(ea.bits[k].snr_db, eb.bits[k].snr_db) << label;
            }
          } else if constexpr (std::is_same_v<T, api::CountEvent>) {
            EXPECT_EQ(ea.spatial_variance, eb.spatial_variance) << label;
            EXPECT_EQ(ea.columns_seen, eb.columns_seen) << label;
          } else if constexpr (std::is_same_v<T, api::FinishedEvent>) {
            EXPECT_EQ(ea.columns_seen, eb.columns_seen) << label;
            EXPECT_EQ(ea.spatial_variance, eb.spatial_variance) << label;
            EXPECT_EQ(ea.num_confirmed, eb.num_confirmed) << label;
          } else if constexpr (std::is_same_v<T, api::ErrorEvent>) {
            EXPECT_EQ(ea.message, eb.message) << label;
            EXPECT_EQ(ea.code, eb.code) << label;
          } else if constexpr (std::is_same_v<T, api::StalledEvent>) {
            EXPECT_EQ(ea.silent_sec, eb.silent_sec) << label;
            EXPECT_EQ(ea.chunks_seen, eb.chunks_seen) << label;
          } else if constexpr (std::is_same_v<T, api::RecoveredEvent>) {
            EXPECT_EQ(ea.restarts, eb.restarts) << label;
            EXPECT_EQ(ea.cause, eb.cause) << label;
            EXPECT_EQ(ea.message, eb.message) << label;
          } else if constexpr (std::is_same_v<T, api::StatsEvent>) {
            EXPECT_EQ(ea.chunks_in, eb.chunks_in) << label;
            EXPECT_EQ(ea.samples_in, eb.samples_in) << label;
            EXPECT_EQ(ea.chunks_dropped, eb.chunks_dropped) << label;
            EXPECT_EQ(ea.samples_dropped, eb.samples_dropped) << label;
            EXPECT_EQ(ea.columns_out, eb.columns_out) << label;
            EXPECT_EQ(ea.bits_out, eb.bits_out) << label;
            EXPECT_EQ(ea.restarts, eb.restarts) << label;
            EXPECT_EQ(ea.latency.count, eb.latency.count) << label;
          } else {
            static_assert(std::is_same_v<T, api::OverloadEvent>);
            EXPECT_EQ(ea.degraded, eb.degraded) << label;
            EXPECT_EQ(ea.fidelity, eb.fidelity) << label;
            EXPECT_EQ(ea.chunks_dropped, eb.chunks_dropped) << label;
            EXPECT_EQ(ea.samples_dropped, eb.samples_dropped) << label;
          }
        },
        a[i]);
  }
}

// ------------------------------------------------------- spec validation ---

TEST(PipelineSpecValidation, RejectsBadImageStage) {
  {
    api::PipelineSpec s;
    s.image.tracker.hop = 0;
    EXPECT_THROW(s.validate(), InvalidArgument);
    EXPECT_THROW(api::Session{s}, InvalidArgument);
  }
  {
    api::PipelineSpec s;
    s.image.tracker.angle_step_deg = 0.0;
    EXPECT_THROW(s.validate(), InvalidArgument);
    EXPECT_THROW(api::Session{s}, InvalidArgument);
  }
  {
    api::PipelineSpec s;
    s.image.tracker.music.subarray = 1;
    EXPECT_THROW(s.validate(), InvalidArgument);
    EXPECT_THROW(api::Session{s}, InvalidArgument);
  }
  {
    api::PipelineSpec s;
    s.image.tracker.music.max_sources = 0;
    EXPECT_THROW(s.validate(), InvalidArgument);
    EXPECT_THROW(api::Session{s}, InvalidArgument);
  }
}

TEST(PipelineSpecValidation, RejectsBadTrackStage) {
  const auto invalid = [](auto&& mutate) {
    api::PipelineSpec s;
    s.track = api::TrackStage{};
    mutate(s.track->tracker);
    EXPECT_THROW(s.validate(), InvalidArgument);
    EXPECT_THROW(api::Session{s}, InvalidArgument);
  };
  invalid([](auto& t) { t.gate_deg = 0.0; });
  invalid([](auto& t) { t.confirm_columns = 0; });
  invalid([](auto& t) { t.max_coast_columns = -1; });
  invalid([](auto& t) { t.tentative_max_misses = 0; });
  invalid([](auto& t) { t.detector.max_detections = 0; });
  invalid([](auto& t) { t.detector.min_separation_deg = -1.0; });
  invalid([](auto& t) { t.detector.peaks.min_peak_db = -1.0; });
  invalid([](auto& t) { t.detector.peaks.dc_exclusion_deg = 95.0; });
}

TEST(PipelineSpecValidation, RejectsBadGestureStage) {
  {
    api::PipelineSpec s;
    s.gesture = api::GestureStage{};
    s.gesture->gesture.decode_interval_cols = 0;
    EXPECT_THROW(s.validate(), InvalidArgument);
    EXPECT_THROW(api::Session{s}, InvalidArgument);
  }
  {
    api::PipelineSpec s;
    s.gesture = api::GestureStage{};
    s.gesture->gesture.decoder.dc_exclusion_deg = -1.0;
    EXPECT_THROW(s.validate(), InvalidArgument);
    EXPECT_THROW(api::Session{s}, InvalidArgument);
  }
}

TEST(PipelineSpecValidation, RejectsBadCountStage) {
  api::PipelineSpec s;
  s.count = api::CountStage{0.0};
  EXPECT_THROW(s.validate(), InvalidArgument);
  EXPECT_THROW(api::Session{s}, InvalidArgument);
}

TEST(PipelineSpecValidation, AcceptsTheFullDefaultSpec) {
  api::PipelineSpec s = full_spec();
  EXPECT_NO_THROW(s.validate());
  EXPECT_NO_THROW(api::Session{s});
}

// ----------------------------------------------------------- batch parity ---

TEST(SessionBatch, BitIdenticalToLegacyEntryPoints) {
  const CVec& h = crossing_trace();
  api::Session session(full_spec());
  session.run(h);
  ASSERT_TRUE(session.finished());
  ASSERT_FALSE(session.failed());

  // Image == core::MotionTracker::process.
  const core::AngleTimeImage batch_img =
      core::MotionTracker().process(h, 0.0);
  expect_images_identical(batch_img, session.image(), "batch image");

  // Count == core::spatial_variance.
  EXPECT_EQ(session.spatial_variance(), core::spatial_variance(batch_img));

  // Tracks == track::track_image.
  expect_histories_identical(track::track_image(batch_img),
                             session.multi_tracker().histories(),
                             "batch tracks");

  // Gesture == core::GestureDecoder::decode (the synthetic trace holds no
  // gestures, so this pins the *whole result*, not just the bits).
  const auto batch_dec = core::GestureDecoder().decode(batch_img);
  const auto& facade_dec = session.gesture_result();
  ASSERT_EQ(facade_dec.bits.size(), batch_dec.bits.size());
  ASSERT_EQ(facade_dec.symbols.size(), batch_dec.symbols.size());
  EXPECT_EQ(facade_dec.matched_output, batch_dec.matched_output);
  EXPECT_EQ(facade_dec.noise_sigma, batch_dec.noise_sigma);
}

// ------------------------------------------------------- streaming parity ---

TEST(SessionStreaming, BitIdenticalToBatchAcrossChunkSizes) {
  const CVec& h = crossing_trace();
  api::Session batch(full_spec());
  batch.run(h);
  std::vector<api::Event> batch_events;
  batch.poll(batch_events);

  for (const std::size_t chunk :
       {std::size_t{64}, std::size_t{311}, h.size()}) {
    api::Session streaming(full_spec());
    for (std::size_t pos = 0; pos < h.size(); pos += chunk)
      streaming.push(CSpan(h).subspan(pos, std::min(chunk, h.size() - pos)));
    streaming.finish();

    const std::string label = "chunk=" + std::to_string(chunk);
    expect_images_identical(batch.image(), streaming.image(), label.c_str());
    EXPECT_EQ(streaming.spatial_variance(), batch.spatial_variance()) << label;
    expect_histories_identical(batch.multi_tracker().histories(),
                               streaming.multi_tracker().histories(),
                               label.c_str());

    // The ColumnEvent stream is chunking-invariant (stage-update events
    // arrive per chunk by design, so only their *final* values are pinned
    // above).
    std::vector<api::Event> streamed_events;
    streaming.poll(streamed_events);
    const auto columns_only = [](const std::vector<api::Event>& in) {
      std::vector<api::Event> out;
      for (const api::Event& e : in)
        if (std::holds_alternative<api::ColumnEvent>(e)) out.push_back(e);
      return out;
    };
    expect_events_identical(columns_only(batch_events),
                            columns_only(streamed_events), label.c_str());
  }
}

TEST(SessionStreaming, CallbackSinkSeesTheSameSequenceAsPoll) {
  const CVec& h = crossing_trace();
  api::Session polled(full_spec());
  std::vector<api::Event> poll_events;
  for (std::size_t pos = 0; pos < h.size(); pos += 128) {
    polled.push(CSpan(h).subspan(pos, std::min<std::size_t>(128, h.size() - pos)));
    polled.poll(poll_events);
  }
  polled.finish();
  polled.poll(poll_events);

  api::Session called(full_spec());
  std::vector<api::Event> cb_events;
  called.set_callback([&cb_events](api::Event&& e) {
    cb_events.push_back(std::move(e));
  });
  for (std::size_t pos = 0; pos < h.size(); pos += 128)
    called.push(CSpan(h).subspan(pos, std::min<std::size_t>(128, h.size() - pos)));
  called.finish();

  expect_events_identical(poll_events, cb_events, "poll vs callback");
}

// -------------------------------------------------- thread-count parity ---

TEST(SessionParallel, BitIdenticalToTheParallelBuilder) {
  const CVec& h = crossing_trace();
  const core::AngleTimeImage built =
      par::ParallelImageBuilder(core::MotionTracker::Config{}, 2).build(h);

  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.track = api::TrackStage{};
  api::Session session(std::move(spec));
  session.run(h, 2);

  expect_images_identical(built, session.image(), "parallel image");
  // The tracking pass over that image equals the batch pass.
  expect_histories_identical(track::track_image(built),
                             session.multi_tracker().histories(),
                             "parallel tracks");
}

/// Everything a caller can observe of one run(trace, n): the event
/// sequence, the stats (counters, and which stages recorded how many
/// spans), the fault-hook calls and the degraded-column count.
struct RunRecord {
  std::vector<api::Event> events;
  api::PipelineStats stats;
  std::vector<std::size_t> hook_calls;
  std::size_t degraded = 0;
  bool rejected = false;
};

RunRecord run_with_threads(CSpan trace, int threads, int fidelity = 1) {
  RunRecord r;
  api::Session session(full_spec());
  session.set_fault_hook([&r](std::size_t i) { r.hook_calls.push_back(i); });
  session.set_fidelity(fidelity);
  try {
    session.run(trace, threads);
  } catch (const TypedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidChunk);
    EXPECT_FALSE(session.failed()) << "a rejected trace must not poison";
    r.rejected = true;
  }
  session.poll(r.events);
  r.stats = session.stats();
  r.degraded = session.tracker().degraded_columns();
  return r;
}

void expect_runs_identical(const RunRecord& a, const RunRecord& b,
                           const char* label) {
  expect_events_identical(a.events, b.events, label);
  EXPECT_EQ(a.stats.chunks_in, b.stats.chunks_in) << label;
  EXPECT_EQ(a.stats.chunks_rejected, b.stats.chunks_rejected) << label;
  EXPECT_EQ(a.stats.samples_seen, b.stats.samples_seen) << label;
  EXPECT_EQ(a.stats.columns_seen, b.stats.columns_seen) << label;
  EXPECT_EQ(a.stats.bits_emitted, b.stats.bits_emitted) << label;
  EXPECT_EQ(a.stats.events_emitted, b.stats.events_emitted) << label;
  ASSERT_EQ(a.stats.stages.size(), b.stats.stages.size()) << label;
  for (std::size_t i = 0; i < a.stats.stages.size(); ++i) {
    EXPECT_STREQ(a.stats.stages[i].stage, b.stats.stages[i].stage) << label;
    EXPECT_EQ(a.stats.stages[i].latency.count,
              b.stats.stages[i].latency.count)
        << label << " stage " << a.stats.stages[i].stage;
  }
  EXPECT_EQ(a.hook_calls, b.hook_calls) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  EXPECT_EQ(a.rejected, b.rejected) << label;
}

TEST(SessionParallel, EveryThreadCountIsTheSameRun) {
  // run(trace, n) is guard + push + finish at every n: the thread count
  // only decides which cores compute the image columns.
  const CVec& h = crossing_trace();
  CVec bad = h;
  bad[700] = cdouble(std::numeric_limits<double>::quiet_NaN(), 0.0);

  const RunRecord one = run_with_threads(h, 1);
  ASSERT_EQ(one.hook_calls, std::vector<std::size_t>{0});
  ASSERT_GT(one.stats.columns_seen,
            3 * par::ParallelImageBuilder::kColumnsPerBlock);
  const RunRecord one_degraded = run_with_threads(h, 1, 4);
  EXPECT_EQ(one_degraded.degraded, one_degraded.stats.columns_seen);
  const RunRecord one_bad = run_with_threads(bad, 1);
  EXPECT_TRUE(one_bad.rejected);
  EXPECT_EQ(one_bad.stats.chunks_rejected, 1u);
  EXPECT_EQ(one_bad.stats.chunks_in, 0u);
  EXPECT_TRUE(one_bad.hook_calls.empty());

  for (const int n : {2, 3, 0}) {
    const std::string label = "threads=" + std::to_string(n);
    expect_runs_identical(one, run_with_threads(h, n), label.c_str());
    expect_runs_identical(one_degraded, run_with_threads(h, n, 4),
                          (label + " fidelity=4").c_str());
    expect_runs_identical(one_bad, run_with_threads(bad, n),
                          (label + " non-finite").c_str());
  }
}

TEST(SessionParallel, MultiThreadedRunContinuesAPushedStream) {
  // run(rest, n) on a session that already holds a partial window: the
  // first parallel columns straddle the buffered samples and the trace.
  const CVec& h = crossing_trace();
  api::Session whole(full_spec());
  whole.push(h);
  whole.finish();

  api::Session split(full_spec());
  split.push(CSpan(h).subspan(0, 128));
  split.run(CSpan(h).subspan(128), 3);

  expect_images_identical(whole.image(), split.image(), "128 + run(rest, 3)");
  expect_histories_identical(whole.multi_tracker().histories(),
                             split.multi_tracker().histories(),
                             "128 + run(rest, 3)");
  EXPECT_EQ(split.spatial_variance(), whole.spatial_variance());
  EXPECT_EQ(split.samples_seen(), h.size());
}

// ----------------------------------------------------- engine multiplexed ---

/// Samples [pos, pos + n) of `h`, clipped to its end, as an offerable chunk.
CVec slice(const CVec& h, std::size_t pos, std::size_t n) {
  const CSpan c = CSpan(h).subspan(pos, std::min(n, h.size() - pos));
  return CVec(c.begin(), c.end());
}

TEST(EngineFacadeParity, MultiplexedEqualsStandaloneSession) {
  // Two sessions with different traces, specs and chunkings share one
  // engine and are fed interleaved, so their events interleave in the
  // engine's queue and only the session tag tells them apart.
  const CVec& h = crossing_trace();
  const CVec g = sim::synthetic_mover_trace(1500, 4321, 0.6);
  api::PipelineSpec count_spec;
  count_spec.count = api::CountStage{};

  // Standalone facade sessions, chunked exactly as the engine will see them.
  api::Session standalone(full_spec());
  api::Session standalone2(count_spec);
  for (std::size_t pos = 0; pos < h.size(); pos += 96)
    standalone.push(slice(h, pos, 96));
  for (std::size_t pos = 0; pos < g.size(); pos += 64)
    standalone2.push(slice(g, pos, 64));
  standalone.finish();
  standalone2.finish();
  std::vector<api::Event> standalone_events, standalone2_events;
  standalone.poll(standalone_events);
  standalone2.poll(standalone2_events);

  rt::Engine engine({.num_threads = 2});
  rt::IngestConfig ingest;
  ingest.backpressure = rt::Backpressure::kBlock;
  const rt::SessionId id = engine.open_session(full_spec(), ingest);
  const rt::SessionId id2 = engine.open_session(count_spec, ingest);
  for (std::size_t a = 0, b = 0; a < h.size() || b < g.size();
       a += 96, b += 64) {
    if (a < h.size()) engine.offer(id, slice(h, a, 96));
    if (b < g.size()) engine.offer(id2, slice(g, b, 64));
  }
  engine.close_session(id);
  engine.close_session(id2);
  engine.drain();

  expect_images_identical(standalone.image(), engine.pipeline(id).image(),
                          "engine image");
  expect_histories_identical(standalone.multi_tracker().histories(),
                             engine.multi_tracker(id).histories(),
                             "engine tracks");
  EXPECT_EQ(engine.pipeline(id).spatial_variance(),
            standalone.spatial_variance());
  expect_images_identical(standalone2.image(), engine.pipeline(id2).image(),
                          "second engine image");

  // Filtered on its session tag, each engine stream is exactly its
  // standalone session's stream.
  std::vector<rt::Event> events;
  engine.poll(events);
  std::vector<api::Event> engine_events, engine2_events;
  for (rt::Event& e : events) {
    ASSERT_TRUE(e.session == id || e.session == id2) << e.session;
    (e.session == id ? engine_events : engine2_events)
        .push_back(std::move(e.event));
  }
  expect_events_identical(standalone_events, engine_events, "engine events");
  expect_events_identical(standalone2_events, engine2_events,
                          "second engine events");
}

TEST(EngineFacadeParity, RunRecordedEqualsParallelRun) {
  // run_recorded is Session::run(trace, engine threads): the same image
  // and the same event sequence, session tag aside.
  const CVec& h = crossing_trace();
  rt::Engine engine({.num_threads = 2});
  const rt::SessionId id = engine.run_recorded(full_spec(), h);
  ASSERT_TRUE(engine.stats(id).finished);

  api::Session session(full_spec());
  session.run(h, engine.num_threads());
  expect_images_identical(session.image(), engine.pipeline(id).image(),
                          "run_recorded");
  EXPECT_EQ(engine.pipeline(id).spatial_variance(),
            session.spatial_variance());

  std::vector<api::Event> want;
  session.poll(want);
  std::vector<rt::Event> tagged;
  engine.poll(tagged);
  std::vector<api::Event> got;
  for (rt::Event& e : tagged) {
    ASSERT_EQ(e.session, id);
    got.push_back(std::move(e.event));
  }
  expect_events_identical(want, got, "run_recorded events");
}

// ------------------------------------------------------- lifecycle/errors ---

TEST(SessionLifecycle, RejectsUseAfterFinish) {
  api::PipelineSpec spec;
  api::Session session(spec);
  session.finish();
  EXPECT_TRUE(session.finished());
  EXPECT_FALSE(session.failed());
  const CVec h(8, cdouble{0.0, 0.0});
  EXPECT_THROW(session.push(h), InvalidArgument);
  EXPECT_THROW(session.finish(), InvalidArgument);
  EXPECT_THROW(session.run(h), InvalidArgument);
}

TEST(SessionLifecycle, AccessorsRequireTheirStage) {
  api::PipelineSpec spec;  // image only
  api::Session session(spec);
  EXPECT_THROW((void)session.multi_tracker(), InvalidArgument);
  EXPECT_THROW((void)session.gesture_result(), InvalidArgument);
  EXPECT_THROW((void)session.spatial_variance(), InvalidArgument);
}

TEST(SessionLifecycle, CallbackMustBeInstalledFresh) {
  const CVec& h = crossing_trace();
  api::PipelineSpec spec;
  api::Session session(spec);
  session.push(CSpan(h).subspan(0, 128));
  EXPECT_THROW(session.set_callback([](api::Event&&) {}), InvalidArgument);
}

TEST(SessionLifecycle, TakeAccessorsMoveResultsOutOfAFinishedSession) {
  const CVec& h = crossing_trace();
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.gesture = api::GestureStage{};
  api::Session session(spec);
  EXPECT_THROW((void)session.take_image(), InvalidArgument);  // still open
  session.run(h);

  const core::AngleTimeImage batch = core::MotionTracker().process(h, 0.0);
  const core::AngleTimeImage taken = session.take_image();
  expect_images_identical(batch, taken, "take_image");
  EXPECT_EQ(session.image().num_times(), 0u);
  // The moved-out columns stay counted.
  EXPECT_EQ(session.columns_seen(), batch.num_times());

  const auto batch_dec = core::GestureDecoder().decode(batch);
  const auto taken_dec = session.take_gesture_result();
  EXPECT_EQ(taken_dec.matched_output, batch_dec.matched_output);
  EXPECT_TRUE(session.gesture_result().matched_output.empty());
}

TEST(SessionErrors, ThrowingCallbackFailsTheSessionWithAnErrorEvent) {
  const CVec& h = crossing_trace();
  api::PipelineSpec spec;  // column events on
  api::Session session(spec);
  std::string error_seen;
  session.set_callback([&error_seen](api::Event&& e) {
    if (const auto* err = std::get_if<api::ErrorEvent>(&e)) {
      error_seen = err->message;
      return;  // the error report itself is accepted
    }
    throw std::runtime_error("poisoned sink");
  });
  // Enough samples to complete a column -> the callback fires and throws.
  EXPECT_THROW(session.push(CSpan(h).subspan(0, 512)), std::runtime_error);
  EXPECT_TRUE(session.failed());
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.error(), "poisoned sink");
  EXPECT_EQ(error_seen, "poisoned sink");
  // A dead session rejects further input.
  EXPECT_THROW(session.push(CSpan(h).subspan(0, 8)), InvalidArgument);
}

}  // namespace
}  // namespace wivi
