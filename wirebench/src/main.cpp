// wirebench: the wire-to-event benchmark program.
//
//   wirebench --workload <live_wire|replay_fleet|archive_batch>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints one line per metric ("name value unit"), the deterministic
// counts, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the workload untraced and traced, adds the
// single-thread decomposition pass, reports the per-layer metrics and
// writes the spans as a Chrome trace. Exits 1 when an output check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace wirebench {
namespace {

// The metric sets BENCHMARK.json declares, in report order.
const char* const kEndToEnd[] = {
    "setup_s", "stream_x", "wire_to_event_p50_ms", "cpu_ms_per_stream_s",
    "chunks_ok_frac", "ospa_deg", "rss_peak_mb"};

const char* const kPerLayer[] = {
    "wire_to_event_p99_ms",
    "net.send_us_per_chunk", "net.rx_cpu_us_per_frame",
    "net.frame_to_ring_p99_us", "net.frames_in", "net.frames_rejected",
    "net.chunk_gaps", "net.ring_full_drops",
    "rt.ingress_wait_p50_us", "rt.ingress_wait_p99_us",
    "rt.chunk_latency_p99_us", "rt.offer_blocked_ms", "rt.worker_cpu_frac",
    "rt.events_out", "rt.chunks_dropped",
    "api.guard_us_p50", "api.stft_doppler_us_p50", "api.music_us_p50",
    "api.music_us_p99", "api.detect_us_p50", "api.emit_us_p50",
    "api.chunk_us_p50",
    "core.corr_slide_us_per_col", "core.corr_rebuild_us_per_col",
    "linalg.eig_us_per_col", "core.music_us_per_col", "core.scan_us_per_col",
    "linalg.eig_calls", "core.model_order_mean", "core.scan_cmacs",
    "track.step_us_per_col", "track.confirmed_tracks",
    "par.build_ms_1t", "par.build_ms_4t", "par.speedup_4t",
    "plan.builds", "plan.hits", "plan.misses",
    "bench.gen_late_p99_ms", "bench.trace_overhead_frac",
    "bench.chunk_loss_frac", "bench.columns", "bench.chunks"};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stoi(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--trace-out") o.trace_out = v;
    else throw std::invalid_argument("unknown flag " + a);
  }
  if (o.workload != "live_wire" && o.workload != "replay_fleet" &&
      o.workload != "archive_batch")
    throw std::invalid_argument("--workload must be live_wire, replay_fleet "
                                "or archive_batch");
  if (o.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return o;
}

/// The workload's primary end-to-end time: event latency for the open
/// loop, wall time per sensor-second for the closed loops.
double primary_time(const Options& o, const RunResult& r) {
  if (o.workload == "live_wire") return r.e2e.at("wire_to_event_p50_ms").value;
  return 1.0 / r.e2e.at("stream_x").value;
}

int run(const Options& o) {
  const auto [num_worlds, scale] = world_plan(o);
  const std::vector<World> worlds = make_worlds(o.seed, num_worlds, scale);
  std::printf("workload %s seed %llu seconds %d trace %d worlds %zu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, worlds.size());
  std::printf("count inputs_hash %016llx\n",
              static_cast<unsigned long long>(inputs_hash(worlds)));

  RunResult r = run_workload(o, worlds, false);
  const std::map<std::string, Metric>* metrics = &r.e2e;
  const char* const* names = kEndToEnd;
  std::size_t num_names = std::size(kEndToEnd);
  if (o.trace) {
    const double untraced = primary_time(o, r);
    RunResult traced = run_workload(o, worlds, true);
    decompose(worlds, traced);
    traced.layer["bench.trace_overhead_frac"] = {
        (primary_time(o, traced) - untraced) / untraced, "ratio"};
    if (!r.correct)
      for (auto& p : r.problems) traced.fail("untraced pass: " + p);
    if (!o.trace_out.empty()) {
      write_chrome_trace(o.trace_out, traced.lanes, traced.spans);
      std::printf("trace %s (%zu spans)\n", o.trace_out.c_str(),
                  traced.spans.size());
    }
    r = std::move(traced);
    metrics = &r.layer;
    names = kPerLayer;
    num_names = std::size(kPerLayer);
  }

  for (const auto& p : r.problems) std::printf("problem %s\n", p.c_str());
  for (const auto& [name, v] : r.counts)
    std::printf("count %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(v));
  std::printf("count ospa_deg %.17g\n", r.e2e.at("ospa_deg").value);
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < num_names; ++i) {
    const auto it = metrics->find(names[i]);
    if (it == metrics->end())
      throw std::logic_error(std::string("metric not measured: ") + names[i]);
    char num[64];
    std::snprintf(num, sizeof num, "%.12g", it->second.value);
    std::printf("metric %-28s %16s %s\n", names[i], num,
                it->second.unit.c_str());
    json += i > 0 ? ", \"" : "\"";
    json += names[i];
    json += "\": {\"value\": ";
    json += num;
    json += ", \"unit\": \"" + it->second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  try {
    return wirebench::run(wirebench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: %s\n", e.what());
    return 2;
  }
}
