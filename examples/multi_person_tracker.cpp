// Multi-person tracking demo (paper §5.2, Figs. 5-3 / 7-2): three synthetic
// movers — two of them crossing in angle mid-trace — streamed chunk by
// chunk through one wivi::Session, with the track stage assigning stable
// identities through the crossing.
//
// With --stats the demo prints the per-stage latency histograms and the
// session telemetry snapshot (JSON); with --trace FILE it records every
// pipeline span into a bounded ring and writes a Chrome trace-event file
// loadable in chrome://tracing or ui.perfetto.dev.
//
//   ./multi_person_tracker [--duration S] [--seed N] [--chunk SAMPLES]
//                          [--stats] [--trace spans.json]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include <wivi/wivi.hpp>

#include "examples/example_cli.hpp"

int main(int argc, char** argv) {
  using namespace wivi;
  examples::Cli cli(argc, argv, "three movers, one crossing, stable track ids");
  const double duration = cli.get_double("duration", 12.0, "trace seconds");
  const std::uint64_t seed = cli.get_seed("seed", 1234, "noise seed");
  const int chunk = cli.get_int("chunk", 96, "streaming chunk size (samples)");
  const int threads = cli.get_int(
      "threads", 0, "batch image-build workers (0 = all cores)");
  const bool stats =
      cli.get_flag("stats", "print per-stage latencies + snapshot (JSON)");
  const std::string trace_file = cli.get_string(
      "trace", "", "write a Chrome trace of pipeline spans to this file");
  if (!cli.ok()) return 2;
  if (duration < 2.0 || chunk < 1 || threads < 0) {
    std::fprintf(stderr,
                 "--duration must be >= 2, --chunk >= 1, --threads >= 0\n");
    return 1;
  }

  const CVec h = sim::synthetic_crossing_trace(duration, seed);
  std::printf("Wi-Vi multi-person tracker\n==========================\n");
  std::printf("3 synthetic movers, %.1f s, %zu channel samples; movers 1+2 "
              "cross mid-trace\n\n", duration, h.size());

  // One declarative pipeline: image + multi-target tracking. Stream the
  // trace through it exactly as a live session would see it and read the
  // live snapshots off the typed event stream.
  PipelineSpec spec;
  spec.image.emit_columns = false;  // TracksEvents are all this demo needs
  spec.track = api::TrackStage{};
  if (!trace_file.empty()) spec.obs.trace_capacity = 8192;
  Session session(std::move(spec));

  const double report_every_sec = 1.0;
  double next_report = 0.0;
  std::vector<api::Event> events;
  for (std::size_t pos = 0; pos < h.size(); pos += static_cast<std::size_t>(chunk)) {
    const std::size_t len =
        std::min<std::size_t>(static_cast<std::size_t>(chunk), h.size() - pos);
    session.push(CSpan(h).subspan(pos, len));
    events.clear();
    session.poll(events);
    for (const api::Event& e : events) {
      const auto* update = std::get_if<api::TracksEvent>(&e);
      if (update == nullptr || update->columns_seen == 0) continue;
      const auto& snaps = update->tracks;
      const double now = snaps.empty()
                             ? session.image().times_sec.back()
                             : snaps.front().time_sec;
      if (now < next_report) continue;
      next_report = now + report_every_sec;
      std::printf("t=%5.1fs  ", now);
      if (snaps.empty()) std::printf("(no tracks)");
      for (const auto& s : snaps) {
        if (s.state == track::TrackState::kTentative) continue;
        std::printf("[#%d %s %+5.1f deg %+5.1f deg/s%s] ", s.id,
                    track::to_string(s.state), s.angle_deg, s.velocity_dps,
                    s.updated ? "" : " (coast)");
      }
      std::printf("\n");
    }
  }
  session.finish();

  std::printf("\n%s\n", core::render_ascii(session.image()).c_str());

  // Batch pass over the finished image: must match the streamed result
  // bit for bit (the facade inherits the rt parity contract).
  const auto batch = track::track_image(session.image());
  const auto streamed = session.multi_tracker().histories();
  bool parity = batch.size() == streamed.size();
  for (std::size_t i = 0; parity && i < batch.size(); ++i)
    parity = batch[i].id == streamed[i].id &&
             batch[i].angles_deg == streamed[i].angles_deg;
  std::printf("streaming == batch: %s\n\n", parity ? "yes (bit for bit)" : "NO");

  // The batch-throughput route for the same trace: the same spec, run as
  // one push of the whole trace with its image columns computed on
  // `threads` cores. Every column is a pure function of its window, so
  // the image is the streamed one bit for bit and the track picture must
  // agree.
  PipelineSpec parallel_spec;
  parallel_spec.image.emit_columns = false;
  parallel_spec.track = api::TrackStage{};
  Session parallel_session(std::move(parallel_spec));
  parallel_session.run(h, threads);
  int parallel_confirmed = 0;
  for (const auto& tr : parallel_session.multi_tracker().histories())
    parallel_confirmed += tr.confirmed_ever;
  std::printf("batch run, %d image thread(s) (0 = all cores): "
              "%d confirmed tracks\n\n", threads, parallel_confirmed);

  std::printf("track summary (confirmed tracks only):\n");
  int confirmed = 0;
  for (const auto& tr : streamed) {
    if (!tr.confirmed_ever) continue;
    ++confirmed;
    std::printf("  #%d  %5.1fs..%5.1fs  angle %+5.1f -> %+5.1f deg  "
                "(%zu columns, %s)\n",
                tr.id, tr.times_sec.front(), tr.times_sec.back(),
                tr.angles_deg.front(), tr.angles_deg.back(),
                tr.angles_deg.size(), track::to_string(tr.state));
  }
  std::printf("\n%d confirmed tracks for 3 movers%s\n", confirmed,
              confirmed == 3 ? " — stable ids through the crossing" : "");

  if (stats) {
    const api::PipelineStats ps = session.stats();
    std::printf("\nper-stage latency (us, p50/p99 over %llu chunks):\n",
                static_cast<unsigned long long>(ps.chunks_in));
    for (const api::StageLatency& sl : ps.stages)
      std::printf("  %-13s %8.1f / %8.1f  (%llu spans)\n", sl.stage,
                  static_cast<double>(sl.latency.p50) / 1e3,
                  static_cast<double>(sl.latency.p99) / 1e3,
                  static_cast<unsigned long long>(sl.latency.count));
    std::printf("\nsession telemetry snapshot:\n");
    obs::write_snapshot(std::cout, session.snapshot());
  }
  if (!trace_file.empty()) {
    std::ofstream f(trace_file);
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_file.c_str());
      return 1;
    }
    session.write_trace(f);
    std::printf("wrote span trace to %s (load in ui.perfetto.dev)\n",
                trace_file.c_str());
  }
  return confirmed == 3 && parity ? 0 : 1;
}
