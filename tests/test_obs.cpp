// wivi::obs — histogram bucket math against exact references, clock
// swapping (FakeClock), registry aggregation, JSON/Prometheus/Chrome-trace
// export formats, the per-stage pipeline instrumentation through a live
// api::Session, engine-wide sample conservation, and every disable path
// (run-time set_enabled + per-session ObsConfig::timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/api/session.hpp"
#include "src/common/random.hpp"
#include "src/obs/obs.hpp"
#include "src/rt/engine.hpp"
#include "src/sim/synthetic.hpp"

namespace wivi {
namespace {

// ------------------------------------------------------- bucket math ---

TEST(ObsHistogramBuckets, IdentityBelowSubBucketCount) {
  for (std::uint64_t v = 0; v < obs::kHistSub; ++v) {
    EXPECT_EQ(obs::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(obs::bucket_lower(static_cast<int>(v)), v);
  }
}

TEST(ObsHistogramBuckets, IndexIsMonotoneAndLowerBoundsAreTight) {
  int prev = -1;
  for (std::uint64_t v = 0; v < 100000; v = v < 16 ? v + 1 : v + v / 7) {
    const int idx = obs::bucket_index(v);
    ASSERT_GE(idx, prev) << "v=" << v;
    ASSERT_LT(idx, obs::kHistBuckets) << "v=" << v;
    // v falls inside [lower(idx), lower(idx+1)).
    ASSERT_LE(obs::bucket_lower(idx), v) << "v=" << v;
    ASSERT_GT(obs::bucket_lower(idx + 1), v) << "v=" << v;
    prev = idx;
  }
}

TEST(ObsHistogramBuckets, RelativeErrorBoundedByLogLinearResolution) {
  // Log-linear with 8 sub-buckets: the bucket width is at most 1/8 of the
  // value's magnitude, so lower(idx) is within 12.5% of any v in bucket.
  for (std::uint64_t v = obs::kHistSub; v < (std::uint64_t{1} << 40);
       v = v + 1 + v / 3) {
    const std::uint64_t lo = obs::bucket_lower(obs::bucket_index(v));
    ASSERT_LE(static_cast<double>(v - lo) / static_cast<double>(v), 0.125 + 1e-12)
        << "v=" << v;
  }
}

TEST(ObsHistogramBuckets, HugeValuesStayInRange) {
  const std::uint64_t top = ~std::uint64_t{0};
  const int idx = obs::bucket_index(top);
  EXPECT_LT(idx, obs::kHistBuckets);
  EXPECT_LE(obs::bucket_lower(idx), top);
}

// --------------------------------------------------------- quantiles ---

/// Exact reference quantile: value of rank ceil(q*n) in sorted order.
std::uint64_t exact_quantile(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

TEST(ObsHistogramQuantiles, MatchExactReferenceWithinBucketResolution) {
  Rng rng(42);
  std::vector<std::uint64_t> values;
  obs::LocalHistogram h;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform spread across 6 decades, the shape of latency data.
    const double u = rng.uniform(0.0, 6.0);
    const auto v = static_cast<std::uint64_t>(std::pow(10.0, u));
    values.push_back(v);
    h.record(v);
  }
  const obs::HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, values.size());
  for (const auto& [q, got] :
       {std::pair{0.50, s.p50}, {0.90, s.p90}, {0.99, s.p99}}) {
    const auto exact = static_cast<double>(exact_quantile(values, q));
    // The histogram returns a bucket lower bound: at most one bucket
    // (12.5%) below the exact rank statistic, never above the next bucket.
    EXPECT_LE(static_cast<double>(got), exact * 1.15) << "q=" << q;
    EXPECT_GE(static_cast<double>(got), exact * 0.85) << "q=" << q;
  }
  std::uint64_t sum = 0;
  for (std::uint64_t v : values) sum += v;
  EXPECT_EQ(s.sum, sum);
  EXPECT_GE(s.max, exact_quantile(values, 1.0));
}

TEST(ObsHistogramQuantiles, SingleValueSnapshotIsThatBucket) {
  obs::LocalHistogram h;
  h.record(1000);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 1000u);
  EXPECT_EQ(s.p50, s.p99);
  EXPECT_LE(s.p50, 1000u);
  EXPECT_GE(s.max, 1000u);
}

TEST(ObsHistogramQuantiles, EmptySnapshotIsAllZero) {
  const obs::HistogramSnapshot s = obs::LocalHistogram().snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(ObsHistogramMerge, MergedEqualsRecordingEverythingIntoOne) {
  obs::LocalHistogram a, b, all;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.uniform(0.0, 1e7));
    (i % 2 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  const obs::HistogramSnapshot sa = a.snapshot(), sall = all.snapshot();
  EXPECT_EQ(sa.count, sall.count);
  EXPECT_EQ(sa.sum, sall.sum);
  EXPECT_EQ(sa.p50, sall.p50);
  EXPECT_EQ(sa.p90, sall.p90);
  EXPECT_EQ(sa.p99, sall.p99);
  EXPECT_EQ(sa.max, sall.max);
}

TEST(ObsHistogramSharded, AggregatesAcrossSlotsExactly) {
  obs::Histogram h(4);
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
}

// ------------------------------------------------------------- clock ---

TEST(ObsClock, DefaultClockAdvances) {
  const std::int64_t a = obs::now_ns();
  const std::int64_t b = obs::now_ns();
  EXPECT_GE(b, a);
  EXPECT_GT(a, 0);
}

TEST(ObsClock, FakeClockControlsNowAndRestoresOnDestruction) {
  const std::int64_t real_before = obs::now_ns();
  {
    obs::FakeClock fake(5'000);
    EXPECT_EQ(obs::now_ns(), 5'000);
    fake.advance_ns(123);
    EXPECT_EQ(obs::now_ns(), 5'123);
    fake.advance_sec(2.0);
    EXPECT_EQ(obs::now_ns(), 5'123 + 2'000'000'000);
    EXPECT_EQ(fake.now(), obs::now_ns());
  }
  EXPECT_GE(obs::now_ns(), real_before);  // steady clock is back
}

// ------------------------------------------------- counters + registry ---

TEST(ObsCounter, AddAndValue) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAddValue) {
  obs::Gauge g;
  g.set(10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
}

TEST(ObsRegistry, SameNameReturnsSameMetric) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x_total");
  obs::Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  obs::Histogram& ha = reg.histogram("y_ns");
  obs::Histogram& hb = reg.histogram("y_ns");
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsRegistry, SnapshotCarriesEveryRegisteredMetric) {
  obs::Registry reg;
  reg.counter("a_total").add(7);
  reg.gauge("depth").set(3);
  reg.histogram("lat_ns").record(100);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("a_total"), 7u);
  EXPECT_EQ(snap.counter_value("depth"), 3u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "lat_ns");
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);
}

TEST(ObsEnabled, RuntimeDisableStopsRecordingEverywhere) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c_total");
  obs::Histogram& h = reg.histogram("h_ns");
  obs::set_enabled(false);
  c.add(5);
  h.record(5);
  obs::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add(1);
  h.record(1);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(h.count(), 1u);
}

// ----------------------------------------------------------- exporters ---

TEST(ObsSnapshotExport, JsonContainsVersionCountersAndQuantiles) {
  obs::Registry reg;
  reg.counter("wivi_demo_total").add(9);
  for (std::uint64_t v = 1; v <= 100; ++v) reg.histogram("wivi_demo_ns").record(v);
  std::ostringstream os;
  obs::write_snapshot(os, reg.snapshot());
  const std::string j = os.str();
  EXPECT_NE(j.find("\"version\":1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"wivi_demo_total\":9"), std::string::npos) << j;
  EXPECT_NE(j.find("\"wivi_demo_ns\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"p99\""), std::string::npos) << j;
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '\n');
}

TEST(ObsSnapshotExport, PrometheusTextExposition) {
  obs::Registry reg;
  reg.counter("wivi_demo_total").add(4);
  reg.histogram("wivi_demo_ns").record(50);
  std::ostringstream os;
  obs::write_snapshot(os, reg.snapshot(), obs::ExportFormat::kPrometheus);
  const std::string p = os.str();
  EXPECT_NE(p.find("# TYPE wivi_demo_total counter"), std::string::npos) << p;
  EXPECT_NE(p.find("wivi_demo_total 4"), std::string::npos) << p;
  EXPECT_NE(p.find("# TYPE wivi_demo_ns summary"), std::string::npos) << p;
  EXPECT_NE(p.find("quantile=\"0.99\""), std::string::npos) << p;
  EXPECT_NE(p.find("wivi_demo_ns_count 1"), std::string::npos) << p;
}

// --------------------------------------------------------------- trace ---

TEST(ObsTraceBuffer, BoundedRingEvictsOldestFirst) {
  obs::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i)
    buf.push(obs::TraceRecord{"span", i * 100, 10});
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total(), 10u);
  const std::vector<obs::TraceRecord> r = buf.records();
  ASSERT_EQ(r.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[static_cast<std::size_t>(i)].start_ns, (6 + i) * 100);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ObsTraceBuffer, ZeroCapacityDropsEverything) {
  obs::TraceBuffer buf(0);
  buf.push(obs::TraceRecord{"span", 0, 1});
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ObsChromeTrace, EmitsWellFormedCompleteEvents) {
  obs::TraceBuffer buf(8);
  buf.push(obs::TraceRecord{"stft_doppler", 1'000, 2'500});
  buf.push(obs::TraceRecord{"music", 4'000, 1'000});
  std::ostringstream os;
  obs::write_chrome_trace(os, buf, "session0");
  const std::string t = os.str();
  EXPECT_EQ(t.rfind("{\"traceEvents\":[", 0), 0u) << t;
  EXPECT_NE(t.find("\"ph\":\"M\""), std::string::npos) << t;
  EXPECT_NE(t.find("\"process_name\""), std::string::npos) << t;
  EXPECT_NE(t.find("\"name\":\"stft_doppler\""), std::string::npos) << t;
  EXPECT_NE(t.find("\"ph\":\"X\""), std::string::npos) << t;
  EXPECT_NE(t.find("\"ts\":1.000"), std::string::npos) << t;   // 1000 ns = 1 us
  EXPECT_NE(t.find("\"dur\":2.500"), std::string::npos) << t;
  EXPECT_NE(t.find("\"displayTimeUnit\":\"ms\""), std::string::npos) << t;
}

TEST(ObsPipelineObserver, RecordsStagesAndHonoursDisable) {
  obs::PipelineObserver on(/*timing=*/true, /*trace_capacity=*/16);
  {
    obs::ScopedSpan span(&on, obs::Stage::kMusic);
  }
  EXPECT_EQ(on.stage(obs::Stage::kMusic).count(), 1u);
  EXPECT_EQ(on.trace().size(), 1u);

  obs::PipelineObserver off(/*timing=*/false, /*trace_capacity=*/16);
  {
    obs::ScopedSpan span(&off, obs::Stage::kMusic);
  }
  EXPECT_EQ(off.stage(obs::Stage::kMusic).count(), 0u);
  EXPECT_EQ(off.trace().size(), 0u);

  obs::ScopedSpan null_ok(nullptr, obs::Stage::kEmit);  // must be a no-op
}

TEST(ObsPipelineObserver, StopEndsTheSpanEarly) {
  obs::FakeClock fake(0);
  obs::PipelineObserver o(true, 4);
  {
    obs::ScopedSpan span(&o, obs::Stage::kDetect);
    fake.advance_ns(500);
    span.stop();
    fake.advance_ns(10'000);  // after stop(): not part of the span
  }
  const std::vector<obs::TraceRecord> r = o.trace().records();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].dur_ns, 500);
  EXPECT_EQ(o.stage(obs::Stage::kDetect).count(), 1u);
}

// ------------------------------------------------------- api::Session ---

api::PipelineSpec obs_spec(bool timing = true, std::size_t trace_cap = 0) {
  api::PipelineSpec spec;
  spec.image.emit_columns = true;
  spec.count = api::CountStage{};
  spec.obs.timing = timing;
  spec.obs.trace_capacity = trace_cap;
  return spec;
}

TEST(SessionObs, StatsCountChunksColumnsAndStageLatencies) {
  const CVec h = sim::synthetic_mover_trace(1500);
  api::Session session(obs_spec(true, 1024));
  std::size_t chunks = 0;
  for (std::size_t pos = 0; pos < h.size(); pos += 100, ++chunks)
    session.push(CSpan(h).subspan(pos, std::min<std::size_t>(100, h.size() - pos)));
  const api::PipelineStats st = session.stats();
  EXPECT_EQ(st.chunks_in, chunks);
  EXPECT_EQ(st.samples_seen, h.size());
  EXPECT_GT(st.columns_seen, 0u);
  EXPECT_GT(st.events_emitted, 0u);
  EXPECT_EQ(st.chunks_rejected, 0u);
  // Real stages ran, so their histograms must be populated with real time.
  ASSERT_FALSE(st.stages.empty());
  bool saw_stft = false, saw_chunk = false;
  for (const api::StageLatency& sl : st.stages) {
    EXPECT_GT(sl.latency.count, 0u) << sl.stage;
    if (std::string(sl.stage) == "stft_doppler") {
      saw_stft = true;
      EXPECT_GT(sl.latency.p50, 0u);
      EXPECT_GE(sl.latency.p99, sl.latency.p50);
    }
    if (std::string(sl.stage) == "chunk") saw_chunk = true;
  }
  EXPECT_TRUE(saw_stft);
  EXPECT_TRUE(saw_chunk);

  // The exported snapshot mirrors the same counters under wivi_session_*.
  const obs::Snapshot snap = session.snapshot();
  EXPECT_EQ(snap.counter_value("wivi_session_chunks_in_total"), chunks);
  EXPECT_EQ(snap.counter_value("wivi_session_samples_seen_total"), h.size());

  // And the trace ring holds Chrome-trace-renderable spans.
  std::ostringstream os;
  session.write_trace(os);
  EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(SessionObs, TimingOffLeavesStagesEmptyAndOutputIdentical) {
  const CVec h = sim::synthetic_mover_trace(1000);
  api::Session timed(obs_spec(true));
  api::Session untimed(obs_spec(false));
  timed.run(h);
  untimed.run(h);
  EXPECT_EQ(untimed.stats().stages.size(), 0u);
  EXPECT_GT(timed.stats().stages.size(), 0u);
  // Instrumentation must not perturb the numbers.
  EXPECT_EQ(timed.spatial_variance(), untimed.spatial_variance());
  EXPECT_EQ(timed.stats().columns_seen, untimed.stats().columns_seen);
}

TEST(SessionObs, GuardRejectionsAreCountedAndDoNotPolluteChunkLatency) {
  api::Session session(obs_spec(true));
  CVec bad(64, cdouble(std::nan(""), 0.0));
  EXPECT_THROW(session.push(bad), TypedError);
  const api::PipelineStats st = session.stats();
  EXPECT_EQ(st.chunks_rejected, 1u);
  for (const api::StageLatency& sl : st.stages) {
    if (std::string(sl.stage) == "chunk") {
      EXPECT_EQ(sl.latency.count, 0u);
    }
  }
}

// --------------------------------------------------------- rt::Engine ---

TEST(EngineObs, SampleConservationAcrossDropsAndRejections) {
  rt::Engine::Config ec;
  ec.num_threads = 2;
  rt::Engine engine(ec);
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  rt::IngestConfig ingest;
  ingest.ring_capacity = 2;
  ingest.backpressure = rt::Backpressure::kDropNewest;
  const rt::SessionId id = engine.open_session(spec, ingest);

  // The malformed chunk goes first, onto an empty ring: its push cannot
  // fail, so the worker is guaranteed to pop it and the guard to reject it.
  CVec bad(32, cdouble(std::nan(""), 0.0));
  EXPECT_TRUE(engine.offer(id, std::move(bad)));
  std::uint64_t offered_samples = 32, offered_chunks = 1;
  const CVec h = sim::synthetic_mover_trace(4000);
  for (std::size_t pos = 0; pos < h.size(); pos += 64) {
    const std::size_t len = std::min<std::size_t>(64, h.size() - pos);
    CVec c(h.begin() + static_cast<std::ptrdiff_t>(pos),
           h.begin() + static_cast<std::ptrdiff_t>(pos + len));
    engine.offer(id, std::move(c));  // tiny kDropNewest ring: many drop
    offered_samples += len;
    ++offered_chunks;
  }
  engine.close_session(id);
  engine.drain();

  const auto st = engine.stats();
  EXPECT_EQ(st.chunks_in, offered_chunks);
  EXPECT_EQ(st.samples_in, offered_samples);
  // Conservation: every offered sample is processed, dropped, rejected or
  // lost — nothing vanishes, nothing is double-counted.
  EXPECT_EQ(st.samples_in, st.samples_processed + st.samples_dropped +
                               st.samples_rejected + st.samples_lost);
  EXPECT_EQ(st.samples_rejected, 32u);
  EXPECT_EQ(st.chunks_rejected, 1u);
  EXPECT_EQ(st.sessions, 1u);
  EXPECT_EQ(st.sessions_finished, 1u);
  EXPECT_GT(st.ingress_wait.count, 0u);
  EXPECT_GT(st.chunk_latency.count, 0u);

  // The exported snapshot agrees with the typed stats and adds the ring
  // counters (pushes = pops + drops for a drained engine).
  const obs::Snapshot snap = engine.snapshot();
  EXPECT_EQ(snap.counter_value("wivi_engine_samples_in_total"), st.samples_in);
  EXPECT_EQ(snap.counter_value("wivi_engine_samples_in_total"),
            snap.counter_value("wivi_engine_samples_processed_total") +
                snap.counter_value("wivi_engine_samples_dropped_total") +
                snap.counter_value("wivi_engine_samples_rejected_total") +
                snap.counter_value("wivi_engine_samples_lost_total"));
  // A drained engine has consumed everything it accepted, and every offer
  // either entered the ring or bumped its drop counter.
  EXPECT_EQ(snap.counter_value("wivi_ring_pushes_total"),
            snap.counter_value("wivi_ring_pops_total"));
  EXPECT_EQ(snap.counter_value("wivi_ring_pushes_total") +
                snap.counter_value("wivi_ring_drops_total"),
            offered_chunks);

  std::ostringstream os;
  engine.write_snapshot(os);
  EXPECT_NE(os.str().find("wivi_engine_chunks_in_total"), std::string::npos);
}

TEST(EngineObs, PeriodicStatsEventsCarryLiveCounters) {
  rt::Engine::Config ec;
  ec.num_threads = 1;
  rt::Engine engine(ec);
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  rt::IngestConfig ingest;
  ingest.backpressure = rt::Backpressure::kBlock;
  ingest.stats_interval_sec = 0.01;
  const rt::SessionId id = engine.open_session(spec, ingest);

  const CVec h = sim::synthetic_mover_trace(3000);
  for (std::size_t pos = 0; pos < h.size(); pos += 50) {
    const std::size_t len = std::min<std::size_t>(50, h.size() - pos);
    CVec c(h.begin() + static_cast<std::ptrdiff_t>(pos),
           h.begin() + static_cast<std::ptrdiff_t>(pos + len));
    engine.offer(id, std::move(c));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.close_session(id);
  engine.drain();

  std::vector<rt::Event> events;
  engine.poll(events);
  std::vector<const api::StatsEvent*> stats_events;
  for (const rt::Event& e : events)
    if (const auto* st = std::get_if<api::StatsEvent>(&e.event))
      stats_events.push_back(st);
  ASSERT_FALSE(stats_events.empty()) << "no StatsEvents in "
                                     << events.size() << " events";
  const api::StatsEvent& last = *stats_events.back();
  EXPECT_GT(last.chunks_in, 0u);
  EXPECT_EQ(last.samples_in, h.size());
  EXPECT_GT(last.latency.count, 0u);
  // Counters only grow across successive stats events.
  for (std::size_t i = 1; i < stats_events.size(); ++i)
    EXPECT_GE(stats_events[i]->chunks_in, stats_events[i - 1]->chunks_in);
}

TEST(EngineObs, FakeClockMakesTheWatchdogDeterministic) {
  // Install the fake clock BEFORE the engine exists so every internal
  // now_ns() — session birth, feed timestamps, deadline checks — reads it.
  obs::FakeClock fake(1'000'000);
  rt::Engine::Config ec;
  ec.num_threads = 1;
  rt::Engine engine(ec);
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  rt::IngestConfig ingest;
  ingest.watchdog.stall_timeout_sec = 3600.0;  // one real hour: never fires
  ingest.watchdog.timeout_is_fatal = true;
  const rt::SessionId id = engine.open_session(spec, ingest);

  // Below the fatal deadline (2x the stall timeout) nothing terminal
  // happens no matter how long we really wait.
  fake.advance_sec(3599.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(engine.stats(id).finished);

  // Two fake hours of silence later the fatal timeout must fire.
  fake.advance_sec(3602.0);
  engine.drain();
  const rt::SessionStats st = engine.stats(id);
  EXPECT_TRUE(st.finished);

  std::vector<rt::Event> events;
  engine.poll(events);
  const bool timed_out = std::any_of(
      events.begin(), events.end(), [](const rt::Event& e) {
        const auto* err = std::get_if<api::ErrorEvent>(&e.event);
        return err && err->code == ErrorCode::kTimeout;
      });
  EXPECT_TRUE(timed_out);
}

}  // namespace
}  // namespace wivi
