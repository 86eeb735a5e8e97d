// Shared types of the wire-to-event benchmark (see wirebench/README.md).
//
// The benchmark drives generated Wi-Vi worlds through the serving stack
//   sim::generate_scenario -> net::Sender -> UDP loopback -> net::Receiver
//   -> net::EngineBinding -> rt::Engine -> api::Session -> event sink
// and times only its own calls into the library's public functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/api/events.hpp"
#include "src/api/spec.hpp"
#include "src/rt/engine.hpp"
#include "src/sim/scenario.hpp"

namespace wirebench {

using namespace wivi;

/// Samples per offered chunk: one image hop, so after the first window
/// every chunk completes exactly one image column.
inline constexpr std::size_t kChunkLen = 25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs only)
};

// ------------------------------------------------------------- clocks ---

std::int64_t now_ns() noexcept;         ///< steady clock
std::int64_t thread_cpu_ns() noexcept;  ///< CLOCK_THREAD_CPUTIME_ID
std::int64_t process_cpu_ns() noexcept; ///< CLOCK_PROCESS_CPUTIME_ID
double rss_peak_mib() noexcept;         ///< getrusage ru_maxrss

/// Word-wise 64-bit mixing hash: equal inputs give equal hashes, so two
/// column streams with equal hashes are bit-identical (up to collisions).
class Hasher {
 public:
  void add(std::uint64_t w) noexcept {
    h_ ^= w + 0x9E3779B97F4A7C15ull + (h_ << 6) + (h_ >> 2);
    h_ *= 0xBF58476D1CE4E5B9ull;
  }
  void add(double v) noexcept;
  void add_bytes(const void* p, std::size_t n) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x6A09E667F3BCC908ull;
};

// -------------------------------------------------------------- spans ---

/// One span of the benchmark's own call into a layer. `sensor` and
/// `chunk_seq` tie together the spans of one chunk across threads
/// (-1 = not chunk-specific).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int lane = 0;  ///< thread lane (Chrome trace tid)
  std::int64_t sensor = -1;
  std::int64_t chunk_seq = -1;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
};

/// Per-thread span buffer: only its owning thread appends, so recording
/// takes no lock. Disabled logs record nothing.
class SpanLog {
 public:
  SpanLog(int lane, bool on) : lane_(lane), on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }
  std::uint64_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::int64_t sensor = -1, std::int64_t chunk_seq = -1,
                    std::uint64_t parent = 0);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  std::vector<Span>& spans() noexcept { return spans_; }

 private:
  int lane_;
  bool on_;
  std::uint64_t next_ = 1;
  std::vector<Span> spans_;
};

/// Write spans as Chrome trace-event JSON (loads in Perfetto): one
/// complete ("X") event per span with its tags as args, plus a flow
/// arrow chaining the spans of each (sensor, chunk_seq).
void write_chrome_trace(const std::string& path,
                        const std::vector<std::pair<int, std::string>>& lanes,
                        const std::vector<Span>& spans);

// ------------------------------------------------------------- inputs ---

/// One generated world: a scenario from sim::scenario_families(seed).
using World = sim::GeneratedScenario;

/// Image columns the pipeline produces from the world's trace.
std::size_t expected_columns(const World& w) noexcept;

/// The first `count` non-faulted scenarios of sim::scenario_families(seed),
/// taken round-robin across families so any prefix mixes walkers,
/// crossings, 1-5 mover counts, clutter and interference. Durations are
/// multiplied by `duration_scale` (archive traces are long).
std::vector<World> make_worlds(std::uint64_t seed, std::size_t count,
                               double duration_scale);

/// Hash of every generated input sample (determinism check).
std::uint64_t inputs_hash(const std::vector<World>& worlds);

/// The pipeline every session runs: smoothed MUSIC image with column
/// events plus the multi-target TrackStage; default ObsConfig.
api::PipelineSpec pipeline_spec();

// -------------------------------------------------------------- sink ----

/// What the event sink saw for one engine session. Events of one session
/// arrive one at a time, but from whichever worker holds it; the mutex
/// makes the hand-off to the checking thread explicit.
struct SessionLog {
  std::mutex mu;
  Hasher columns_hash;
  std::size_t columns = 0;
  std::vector<std::int64_t> column_rx_ns;  ///< receipt instant per column
  bool finished = false;
  bool error = false;
  std::string error_message;
  std::vector<Span> spans;  ///< sink-receipt spans (traced runs)
};

/// The event sink: one log per engine session id.
class Sink {
 public:
  Sink(std::size_t max_sessions, bool trace);
  /// Engine callback entry point (worker threads).
  void on_engine_event(rt::Event&& e);
  SessionLog& log(rt::SessionId id) { return *logs_.at(id); }

 private:
  void on_event(rt::SessionId id, api::Event&& e);
  std::vector<std::unique_ptr<SessionLog>> logs_;
  bool trace_;
};

/// Column/track digest of one image + tracker run, computed the same way
/// the sink digests the engine's column events.
void hash_column(Hasher& h, std::size_t index, double time_sec,
                 int model_order, const RVec& column);
std::uint64_t hash_histories(const std::vector<track::TrackHistory>& hs);

// ------------------------------------------------------------ results ---

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one pass of a workload measured.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::uint64_t> counts;  ///< deterministic counts
  std::vector<Span> spans;
  std::vector<std::pair<int, std::string>> lanes;
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// One measured pass of `o.workload` (traced when `traced`).
RunResult run_workload(const Options& o, const std::vector<World>& worlds,
                       bool traced);

/// How many worlds the workload uses and their duration scale.
std::pair<std::size_t, double> world_plan(const Options& o);

/// Single-thread per-layer decomposition over the workload's traces:
/// correlation slide/rebuild, eig, pseudospectrum scan, tracker step,
/// and the 1- vs 4-thread ParallelImageBuilder build.
void decompose(const std::vector<World>& worlds, RunResult& out);

// ------------------------------------------------------------ helpers ---

/// Nearest-rank quantile of `v` (sorted copy); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

}  // namespace wirebench
