// Multi-sensor monitoring service: N Wi-Vi sensors watching N rooms, all
// multiplexed through one rt::Engine worker pool — the production-scale
// shape the ROADMAP aims at, in miniature.
//
// Each session gets an independently seeded scene (its own room occupancy
// and walking subjects). The service replays every capture in live-sized
// chunks through the engine, polls the event stream, and prints per-room
// occupancy estimates plus engine throughput.
//
// With --stats the service dumps the engine's full telemetry snapshot
// (every wivi_engine_* / wivi_ring_* counter plus latency quantiles) as
// JSON on exit; with --trace FILE it keeps a per-session span ring and
// writes a Chrome trace-event file loadable in ui.perfetto.dev.
//
//   ./multi_sensor_service --sessions 8 --threads 4 --duration 10
//                          [--seed 42] [--chunk 64] [--stats]
//                          [--trace spans.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <wivi/wivi.hpp>

#include "examples/example_cli.hpp"

int main(int argc, char** argv) {
  using namespace wivi;
  examples::Cli cli(argc, argv,
                    "N simulated sensors streaming into one rt::Engine");
  const int sessions = cli.get_int("sessions", 6, "concurrent sensor sessions");
  const int threads = cli.get_int("threads", 0, "worker threads (0 = all cores)");
  const double duration = cli.get_double("duration", 8.0, "trace seconds per sensor");
  const std::uint64_t seed = cli.get_seed("seed", 42, "base scene seed");
  const int chunk = cli.get_int("chunk", 64, "samples per ingest chunk");
  const bool stats =
      cli.get_flag("stats", "dump the engine telemetry snapshot (JSON)");
  const std::string trace_file = cli.get_string(
      "trace", "", "write a Chrome trace of recent spans to this file");
  if (!cli.ok()) return 2;

  std::printf("Wi-Vi multi-sensor service\n==========================\n");
  std::printf("simulating %d independent rooms (%.0f s each)...\n", sessions,
              duration);

  // --- Stage 1: record every sensor's capture (independently seeded
  // scenes; generation parallelises trivially since scenes are isolated).
  std::vector<sim::TraceResult> traces(static_cast<std::size_t>(sessions));
  std::vector<int> true_counts(static_cast<std::size_t>(sessions));
  {
    std::vector<std::thread> gen;
    const int gen_threads = std::min<int>(
        sessions, static_cast<int>(
                      std::max(1u, std::thread::hardware_concurrency())));
    std::atomic<int> next{0};
    for (int g = 0; g < gen_threads; ++g) {
      gen.emplace_back([&] {
        for (int s = next.fetch_add(1); s < sessions; s = next.fetch_add(1)) {
          sim::SessionScenario sc;
          sc.room.name = "room " + std::to_string(s);
          sc.num_humans = 1 + s % 3;
          sc.duration_sec = duration;
          sc.seed = seed + static_cast<std::uint64_t>(1000 * s);
          true_counts[static_cast<std::size_t>(s)] = sc.num_humans;
          traces[static_cast<std::size_t>(s)] = sim::record_session_trace(sc);
        }
      });
    }
    for (std::thread& t : gen) t.join();
  }

  // --- Stage 2: stream everything through the engine.
  rt::Engine::Config ec;
  ec.num_threads = threads;
  rt::Engine engine(ec);
  std::printf("engine: %d worker thread(s)\n\n", engine.num_threads());

  std::vector<rt::SessionId> ids;
  std::vector<sim::ChunkedTrace> feeds;
  for (int s = 0; s < sessions; ++s) {
    // Each sensor runs the same declarative pipeline: image + counting
    // (variance updates suffice for an occupancy service, so no columns).
    PipelineSpec spec;
    spec.t0 = traces[static_cast<std::size_t>(s)].t0;
    spec.image.emit_columns = false;
    spec.count = api::CountStage{};
    if (!trace_file.empty()) spec.obs.trace_capacity = 4096;
    rt::IngestConfig ingest;
    ingest.backpressure = rt::Backpressure::kBlock;  // replay: lossless
    ids.push_back(engine.open_session(std::move(spec), ingest));
    feeds.emplace_back(std::move(traces[static_cast<std::size_t>(s)]),
                       static_cast<std::size_t>(chunk));
  }

  const auto start = std::chrono::steady_clock::now();
  bool feeding = true;
  std::vector<rt::Event> events;
  std::vector<double> last_variance(static_cast<std::size_t>(sessions), 0.0);
  std::uint64_t count_updates = 0;
  while (feeding) {
    feeding = false;
    for (int s = 0; s < sessions; ++s) {
      CVec c;
      if (feeds[static_cast<std::size_t>(s)].next(c)) {
        engine.offer(ids[static_cast<std::size_t>(s)], std::move(c));
        feeding = true;
      }
    }
    events.clear();
    engine.poll(events);
    // Each engine event is a typed api::Event tagged with its session;
    // dispatch on the variant.
    for (const rt::Event& e : events) {
      if (const auto* c = std::get_if<api::CountEvent>(&e.event)) {
        last_variance[e.session] = c->spatial_variance;
        ++count_updates;
      }
    }
  }
  for (rt::SessionId id : ids) engine.close_session(id);
  engine.drain();
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  events.clear();
  engine.poll(events);
  for (const rt::Event& e : events) {
    if (const auto* c = std::get_if<api::CountEvent>(&e.event)) {
      ++count_updates;
      last_variance[e.session] = c->spatial_variance;
    } else if (const auto* f = std::get_if<api::FinishedEvent>(&e.event)) {
      last_variance[e.session] = f->spatial_variance;
    }
  }

  // --- Report. The variance -> count mapping uses thresholds in the same
  // form a trained core::VarianceClassifier produces (see
  // intrusion_counter for actual training).
  std::printf("%-8s %-8s %-10s %-12s %-9s\n", "room", "movers", "columns",
              "variance", "nulling");
  std::uint64_t total_columns = 0;
  std::uint64_t total_samples = 0;
  for (int s = 0; s < sessions; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const auto st = engine.stats(ids[si]);
    total_columns += st.columns_out;
    total_samples += st.samples_in;
    std::printf("%-8d %-8d %-10llu %-12.2e %6.1f dB\n", s, true_counts[si],
                static_cast<unsigned long long>(st.columns_out),
                last_variance[si],
                feeds[si].trace().effective_nulling_db);
  }
  std::printf("\nprocessed %llu columns (%llu samples, %llu count updates) "
              "in %.2f s wall\n",
              static_cast<unsigned long long>(total_columns),
              static_cast<unsigned long long>(total_samples),
              static_cast<unsigned long long>(count_updates), wall_sec);
  std::printf("throughput: %.0f columns/s, %.1fx realtime across %d sensors\n",
              static_cast<double>(total_columns) / wall_sec,
              static_cast<double>(sessions) * duration / wall_sec, sessions);

  if (stats) {
    std::printf("\nengine telemetry snapshot:\n");
    engine.write_snapshot(std::cout);
  }
  if (!trace_file.empty()) {
    std::ofstream f(trace_file);
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_file.c_str());
      return 1;
    }
    engine.write_trace(f);
    std::printf("wrote span trace to %s (load in ui.perfetto.dev)\n",
                trace_file.c_str());
  }
  return 0;
}
