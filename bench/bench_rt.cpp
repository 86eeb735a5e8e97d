// Streaming-runtime microbenchmarks (google-benchmark): SPSC ring cost,
// per-column streaming cost, and the headline engine scaling curve —
// session throughput from 1 worker thread up to the machine's core count.
// Sessions outnumber workers, so on a multi-core box the curve should be
// near-linear until threads reach the core count (the CI acceptance bar:
// >= 3x at 4 threads vs 1). On a single-core machine the curve is flat.
//
//   ./bench_rt --benchmark_format=json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/core/isar.hpp"
#include "src/rt/engine.hpp"
#include "src/rt/spsc_ring.hpp"
#include "src/rt/streaming.hpp"
#include "src/sim/synthetic.hpp"

using namespace wivi;

namespace {

constexpr std::size_t kSessions = 8;
constexpr std::size_t kTraceLen = 1000;  // 3.2 s per session at 312.5 Hz
constexpr std::size_t kChunk = 125;      // 0.4 s of stream per chunk

const std::vector<CVec>& session_traces() {
  static const std::vector<CVec> traces = [] {
    std::vector<CVec> t;
    for (std::size_t s = 0; s < kSessions; ++s)
      t.push_back(sim::synthetic_mover_trace(kTraceLen, 7000 + s,
                             0.3 + 0.1 * static_cast<double>(s)));
    return t;
  }();
  return traces;
}

void BM_SpscRingPushPop(benchmark::State& state) {
  rt::SpscRing<std::size_t> ring(1024);
  std::size_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(std::size_t{42}));
    benchmark::DoNotOptimize(ring.try_pop(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingPushPop);

void BM_StreamingTrackerColumn(benchmark::State& state) {
  const CVec h = sim::synthetic_mover_trace(1 << 18, 5, 0.5);
  rt::StreamingTracker tracker;
  const auto hop = static_cast<std::size_t>(tracker.config().hop);
  // Warm up past the first window so steady state is one column per hop.
  std::size_t pos = static_cast<std::size_t>(tracker.config().music.isar.window);
  tracker.push(CSpan(h).subspan(0, pos));
  for (auto _ : state) {
    if (pos + hop > h.size()) {  // wrap: restart the stream
      state.PauseTiming();
      tracker.reset();
      pos = static_cast<std::size_t>(tracker.config().music.isar.window);
      tracker.push(CSpan(h).subspan(0, pos));
      state.ResumeTiming();
    }
    tracker.push(CSpan(h).subspan(pos, hop));
    pos += hop;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamingTrackerColumn)->Unit(benchmark::kMillisecond);

/// The headline: total wall time to stream kSessions sessions to
/// completion with a given worker count. Rings are deep enough that
/// feeding never blocks, so this isolates the pool's processing scaling.
void BM_EngineSessionThroughput(benchmark::State& state) {
  const auto& traces = session_traces();
  const auto w = static_cast<std::size_t>(core::IsarConfig{}.window);
  const std::size_t cols_per_session =
      (kTraceLen - w) /
          static_cast<std::size_t>(core::MotionTracker::Config{}.hop) +
      1;
  for (auto _ : state) {
    rt::Engine::Config ec;
    ec.num_threads = static_cast<int>(state.range(0));
    rt::Engine engine(ec);
    api::PipelineSpec spec;
    spec.image.emit_columns = false;
    spec.count = api::CountStage{};
    rt::IngestConfig ingest;
    ingest.ring_capacity = kTraceLen / kChunk + 1;
    ingest.backpressure = rt::Backpressure::kBlock;
    std::vector<rt::SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s)
      ids.push_back(engine.open_session(spec, ingest));
    for (std::size_t pos = 0; pos < kTraceLen; pos += kChunk)
      for (std::size_t s = 0; s < kSessions; ++s)
        engine.offer(
            ids[s],
            CVec(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
                 traces[s].begin() + static_cast<std::ptrdiff_t>(
                                         std::min(pos + kChunk, kTraceLen))));
    for (rt::SessionId id : ids) engine.close_session(id);
    engine.drain();
  }
  const auto total_cols =
      static_cast<std::int64_t>(kSessions * cols_per_session) *
      static_cast<std::int64_t>(state.iterations());
  state.SetItemsProcessed(total_cols);
  state.counters["columns_per_sec"] = benchmark::Counter(
      static_cast<double>(total_cols), benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(kSessions);
}
BENCHMARK(BM_EngineSessionThroughput)
    ->Apply([](benchmark::internal::Benchmark* b) {
      b->Arg(1)->Arg(2)->Arg(4);
      const auto hw = std::max(1u, std::thread::hardware_concurrency());
      if (hw > 4u) b->Arg(static_cast<int>(hw));
    })
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
