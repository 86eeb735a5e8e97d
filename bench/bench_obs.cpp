// Observability-overhead microbenchmarks: the wivi::obs instrumentation is
// always-on by default, so its hot-path cost must stay within 1% of the
// uninstrumented pipeline (the DESIGN.md §10 overhead budget). CI only
// smoke-runs it; judge the ratio from interleaved runs on one machine.
//
// BM_SessionPushObsOff / BM_SessionPushObsOn / BM_SessionPushObsTrace run
// the identical workload — same synthetic trace, same chunking, a fresh
// session per iteration — differing only in the spec's ObsConfig, so their
// ratios are the timing and tracing overheads. The primitive costs
// (Counter::add, Histogram::record, LocalHistogram::record, now_ns) are
// measured separately in nanoseconds.
#include <benchmark/benchmark.h>

#include "src/api/session.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/synthetic.hpp"

namespace wivi {
namespace {

constexpr std::size_t kTraceLen = 2000;  // ~77 columns at hop 25
constexpr std::size_t kChunk = 100;      // 4 columns per chunk

const CVec& trace() {
  static const CVec h = sim::synthetic_mover_trace(kTraceLen);
  return h;
}

void push_chunked(api::Session& session) {
  const CVec& h = trace();
  for (std::size_t pos = 0; pos < h.size(); pos += kChunk)
    benchmark::DoNotOptimize(
        session.push(CSpan(h).subspan(pos, std::min(kChunk, h.size() - pos))));
}

void run_session(benchmark::State& state, bool timing,
                 std::size_t trace_capacity) {
  for (auto _ : state) {
    api::PipelineSpec spec;
    spec.image.emit_columns = false;
    spec.obs.timing = timing;
    spec.obs.trace_capacity = trace_capacity;
    api::Session session(std::move(spec));
    push_chunked(session);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTraceLen / kChunk));
}

/// Baseline: stage timing disabled (spec.obs.timing = false).
void BM_SessionPushObsOff(benchmark::State& state) {
  run_session(state, /*timing=*/false, /*trace_capacity=*/0);
}
BENCHMARK(BM_SessionPushObsOff)->Unit(benchmark::kMillisecond);

/// The default: per-stage histograms filling, no trace ring. The ratio to
/// ObsOff is the instrumentation overhead (pinned <= 1%).
void BM_SessionPushObsOn(benchmark::State& state) {
  run_session(state, /*timing=*/true, /*trace_capacity=*/0);
}
BENCHMARK(BM_SessionPushObsOn)->Unit(benchmark::kMillisecond);

/// Timing plus a bounded trace ring retaining the most recent 4096 spans.
void BM_SessionPushObsTrace(benchmark::State& state) {
  run_session(state, /*timing=*/true, /*trace_capacity=*/4096);
}
BENCHMARK(BM_SessionPushObsTrace)->Unit(benchmark::kMillisecond);

/// One sharded-counter bump (private slot: relaxed load + store).
void BM_CounterAdd(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench_counter");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

/// One concurrent-histogram record (bucket index + two relaxed RMWs).
void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench_hist");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

/// One single-writer histogram record (plain array increment).
void BM_LocalHistogramRecord(benchmark::State& state) {
  obs::LocalHistogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_LocalHistogramRecord);

/// One clock read through the pluggable indirection (span start/stop cost).
void BM_NowNs(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(obs::now_ns());
}
BENCHMARK(BM_NowNs);

}  // namespace
}  // namespace wivi

BENCHMARK_MAIN();
