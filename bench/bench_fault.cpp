// Fault-path overhead microbenchmarks: the robustness layer (DESIGN.md §9)
// must be ~free on the healthy path. Two pins:
//
//  * BM_SessionPushGuardOff vs BM_SessionPushGuardOn run the identical
//    push workload with the InputGuard's finite scan off and on — their
//    ratio is the cost of validating every chunk at the trust boundary,
//    pinned <= 1% of pipeline cost (the scan is one predictable pass over
//    data the FFT stage is about to touch anyway).
//  * BM_ChunkedTraceNext vs BM_FaultyFeederPassThrough replay the same
//    trace raw and through a zero-fault FaultyFeeder — the feeder wrapper
//    must cost nothing measurable next to actual signal processing, so
//    chaos-mode runs measure the faults, not the harness.
//
// CI runs this as a smoke check (no timing gate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "src/api/session.hpp"
#include "src/fault/fault.hpp"
#include "src/sim/feeder.hpp"
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
    session.push(CSpan(h).subspan(pos, std::min(kChunk, h.size() - pos)));
}

api::PipelineSpec image_only_spec() {
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  return spec;
}

/// Baseline: ingress validation reduced to the structural checks (no
/// finite scan — the pre-validated-replay configuration).
void BM_SessionPushGuardOff(benchmark::State& state) {
  for (auto _ : state) {
    api::PipelineSpec spec = image_only_spec();
    spec.guard.check_finite = false;
    api::Session session(std::move(spec));
    push_chunked(session);
    benchmark::DoNotOptimize(session.columns_seen());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTraceLen / kChunk));
}
BENCHMARK(BM_SessionPushGuardOff)->Unit(benchmark::kMillisecond);

/// The default trust boundary: every chunk scanned for NaN/Inf plus the
/// structural checks. The delta against GuardOff is the fault-path
/// overhead on the healthy path — pinned <= 1%.
void BM_SessionPushGuardOn(benchmark::State& state) {
  for (auto _ : state) {
    api::Session session(image_only_spec());
    push_chunked(session);
    benchmark::DoNotOptimize(session.columns_seen());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTraceLen / kChunk));
}
BENCHMARK(BM_SessionPushGuardOn)->Unit(benchmark::kMillisecond);

sim::ChunkedTrace make_feed() {
  sim::TraceResult tr;
  tr.h = trace();
  tr.sample_rate_hz = 312.5;
  return sim::ChunkedTrace(std::move(tr), kChunk);
}

/// Baseline: replaying a recorded trace chunk by chunk, no fault layer.
void BM_ChunkedTraceNext(benchmark::State& state) {
  sim::ChunkedTrace feed = make_feed();
  CVec chunk;
  for (auto _ : state) {
    feed.rewind();
    while (feed.next(chunk)) benchmark::DoNotOptimize(chunk.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTraceLen / kChunk));
}
BENCHMARK(BM_ChunkedTraceNext);

/// The same replay through a zero-fault FaultyFeeder: the chaos harness's
/// own overhead (per-chunk hash draws + the delivery queue).
void BM_FaultyFeederPassThrough(benchmark::State& state) {
  fault::FaultyFeeder feeder(make_feed(), FaultSpec{});
  CVec chunk;
  for (auto _ : state) {
    feeder.rewind();
    while (feeder.next(chunk) == fault::FaultAction::kDeliver)
      benchmark::DoNotOptimize(chunk.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTraceLen / kChunk));
}
BENCHMARK(BM_FaultyFeederPassThrough);

/// A fully loaded fault plan, for scale: even drawing every fault kind
/// per chunk stays trivial next to one MUSIC column.
void BM_FaultyFeederAllFaults(benchmark::State& state) {
  FaultSpec spec;
  spec.drop_prob = 0.05;
  spec.duplicate_prob = 0.05;
  spec.reorder_prob = 0.05;
  spec.truncate_prob = 0.05;
  spec.corrupt_prob = 0.05;
  spec.gap_prob = 0.05;
  fault::FaultyFeeder feeder(make_feed(), spec);
  CVec chunk;
  for (auto _ : state) {
    feeder.rewind();
    for (;;) {
      const fault::FaultAction a = feeder.next(chunk);
      if (a == fault::FaultAction::kEnd) break;
      if (a == fault::FaultAction::kDeliver)
        benchmark::DoNotOptimize(chunk.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTraceLen / kChunk));
}
BENCHMARK(BM_FaultyFeederAllFaults);

}  // namespace
}  // namespace wivi

BENCHMARK_MAIN();
