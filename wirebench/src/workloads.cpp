// The three workloads (live_wire, replay_fleet, archive_batch), the event
// sink, and the output checks shared by all of them.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "bench.hpp"
#include "src/net/ingest.hpp"
#include "src/net/receiver.hpp"
#include "src/net/sender.hpp"
#include "src/obs/snapshot.hpp"
#include "src/plan/registry.hpp"
#include "src/rt/compat.hpp"
#include "src/sim/evaluate.hpp"

namespace wirebench {

namespace {

// Set-up is repeated this many times per pass (plan registry cleared
// each time) and reported as the median.
constexpr int kSetupReps = 25;

// live_wire: an open loop of kLiveSensors sensors, each replaying its
// streams at kLivePace x real time (312.5 Hz), i.e. a fixed offered load
// of 8 x 4 x 12.5 = 400 image columns/s -- about half of what two engine
// workers sustain on the reference machine. Never derived at run time.
constexpr std::size_t kLiveSensors = 8;
constexpr double kLivePace = 4.0;
constexpr int kLiveWorkers = 2;

// replay_fleet: a closed loop, one feeder keeping kFleetSensors sessions
// fed through kBlock rings as fast as kFleetWorkers workers drain them.
constexpr std::size_t kFleetSensors = 12;
constexpr std::size_t kFleetRing = 4;
constexpr int kFleetWorkers = 3;
constexpr double kFleetStreamsPerSecond = 20.0;

// archive_batch: long recorded traces through Engine::run_recorded, the
// image built column-parallel over kArchiveWorkers.
constexpr int kArchiveWorkers = 4;
constexpr double kArchiveScale = 3.0;  // 24 s worlds, 297 columns each
constexpr double kArchiveTracesPerSecond = 7.0;

// Distinct worlds are capped at the non-faulted family catalogue size;
// longer runs cycle through them. Long archive worlds are capped lower:
// each one costs two reference analyses in the checks.
constexpr std::size_t kMaxWorlds = 86;
constexpr std::size_t kArchiveWorlds = 43;

// Lanes (Chrome trace thread rows).
constexpr int kLaneMain = 0;
constexpr int kLaneGenerator = 1;
constexpr int kLanePoll = 2;
constexpr int kLaneSink = 3;

constexpr double kParityTol = 1e-9;

// rt::Engine::Config::max_sessions (default): every stream is a session.
constexpr std::size_t kMaxSessions = 1024;

std::size_t streams_for(const Options& o) {
  const auto secs = static_cast<double>(o.seconds);
  if (o.workload == "live_wire") {
    // One 8 s world lasts 8 / kLivePace s of wall time per sensor.
    return static_cast<std::size_t>(std::lround(
        secs * static_cast<double>(kLiveSensors) * kLivePace / 8.0));
  }
  if (o.workload == "replay_fleet")
    return static_cast<std::size_t>(std::lround(secs * kFleetStreamsPerSecond));
  if (o.workload == "archive_batch")
    return static_cast<std::size_t>(
        std::lround(secs * kArchiveTracesPerSecond));
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

/// A thread whose exception is kept and rethrown by join(), so a failed
/// send/offer/check ends the run with an error instead of terminating.
class Worker {
 public:
  explicit Worker(std::function<void()> fn)
      : thread_([this, fn = std::move(fn)] {
          try {
            fn();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~Worker() {
    if (thread_.joinable()) thread_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
  std::thread thread_;
};

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

/// One sensor stream: a world replayed as one engine session.
struct Stream {
  std::size_t world = 0;
  std::uint32_t sensor = 0;  ///< wire sensor id (stream index + 1)
  std::optional<rt::SessionId> session;
  std::size_t chunks = 0;  ///< chunks offered (archive: the whole trace)
  /// Per chunk: the instant it was due (live_wire), or the instant its
  /// offer began (replay_fleet, archive_batch).
  std::vector<std::int64_t> start_ns;
  std::int64_t done_ns = 0;  ///< archive_batch: run_recorded returned
};

/// Sustained rate of a stream of completions: the sorted completion
/// instants are cut into consecutive blocks of kRateBlock, each block's
/// rate is kRateBlock x `unit` over its time span, and the median block
/// rate is returned (the total rate when there are fewer than three
/// blocks). A stall of the shared machine then moves one block, not the
/// figure.
double block_rate(std::vector<std::int64_t> t, double unit, double fallback) {
  constexpr std::size_t kRateBlock = 1000;
  std::sort(t.begin(), t.end());
  std::vector<double> rates;
  for (std::size_t i = 0; i + kRateBlock < t.size(); i += kRateBlock) {
    const auto span_ns = static_cast<double>(t[i + kRateBlock] - t[i]);
    if (span_ns > 0.0)
      rates.push_back(static_cast<double>(kRateBlock) * unit * 1e9 / span_ns);
  }
  return rates.size() < 3 ? fallback : median(std::move(rates));
}

/// The chunk whose arrival completes image column `k` (the column's
/// window ends in it).
std::size_t completing_chunk(std::size_t k) {
  const core::MotionTracker::Config cfg;
  const auto win = static_cast<std::size_t>(cfg.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  return (k * hop + win - 1) / kChunkLen;
}

std::size_t num_chunks(const World& w) {
  return (w.h.size() + kChunkLen - 1) / kChunkLen;
}

CSpan chunk_of(const World& w, std::size_t c) {
  const std::size_t lo = c * kChunkLen;
  const std::size_t n = std::min(kChunkLen, w.h.size() - lo);
  return CSpan(w.h.data() + lo, n);
}

double stage_us_p50(const std::vector<obs::LocalHistogram>& h, obs::Stage s) {
  return static_cast<double>(h[static_cast<std::size_t>(s)].snapshot().p50) /
         1e3;
}

/// Everything a pass shares between set-up, the measured phase and the
/// checks.
struct Pass {
  const Options& o;
  const std::vector<World>& worlds;
  bool traced;
  Sink sink;
  std::vector<Stream> streams;
  std::vector<double> setup_s;
  std::int64_t t_start = 0;  ///< measured window
  std::int64_t t_end = 0;
  std::int64_t proc_cpu = 0;       ///< process CPU over the window
  std::int64_t generator_cpu = 0;  ///< the benchmark's generator thread
  std::int64_t bench_cpu = 0;      ///< all benchmark-driven threads
  std::int64_t offer_ns = 0;       ///< time inside Engine::offer calls
  std::vector<double> late_ms;     ///< generator lateness (live_wire)
  SpanLog main_log{kLaneMain, traced};

  Pass(const Options& opt, const std::vector<World>& w, bool t)
      : o(opt), worlds(w), traced(t), sink(kMaxSessions, t) {
    const std::size_t n = streams_for(o);
    if (n > kMaxSessions)
      throw std::invalid_argument("--seconds too large: " + std::to_string(n) +
                                  " streams exceed the engine's " +
                                  std::to_string(kMaxSessions) + " sessions");
    streams.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      streams[j].world = j % worlds.size();
      streams[j].sensor = static_cast<std::uint32_t>(j + 1);
    }
  }
};

// ------------------------------------------------------------- checks ---

/// Per-world reference (api::Session::run on the trace) compared with
/// every stream that replayed the world; plus the world's OSPA from
/// sim::Evaluator. Runs on up to four threads after the measured phase.
void check_outputs(Pass& p, rt::Engine& engine, RunResult& r) {
  const bool archive = p.o.workload == "archive_batch";
  std::vector<std::vector<std::size_t>> by_world(p.worlds.size());
  for (std::size_t j = 0; j < p.streams.size(); ++j)
    by_world[p.streams[j].world].push_back(j);

  std::vector<double> ospa(p.worlds.size(), 0.0);
  std::vector<std::string> bad(p.streams.size());
  std::vector<std::uint64_t> lost(p.streams.size(), 0);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    const sim::Evaluator evaluator;
    for (std::size_t wi; (wi = next.fetch_add(1)) < p.worlds.size();) {
      const World& w = p.worlds[wi];
      ospa[wi] = evaluator.score(w).ospa_deg;
      api::Session ref(pipeline_spec());
      ref.set_callback([](api::Event&&) {});
      ref.run(w.h);
      const core::AngleTimeImage& img = ref.image();
      Hasher ref_cols;
      for (std::size_t t = 0; t < img.num_times(); ++t)
        hash_column(ref_cols, t, img.times_sec[t], img.model_orders[t],
                    img.columns[t]);
      const std::uint64_t ref_hist =
          hash_histories(ref.multi_tracker().histories());

      for (std::size_t j : by_world[wi]) {
        const Stream& s = p.streams[j];
        if (!s.session) {
          lost[j] = s.chunks;
          continue;
        }
        const rt::SessionId id = *s.session;
        const rt::SessionStats st = engine.stats(id);
        const std::uint64_t processed =
            st.chunks_in - st.chunks_dropped - st.chunks_rejected;
        lost[j] = s.chunks - std::min<std::uint64_t>(processed, s.chunks);
        SessionLog& log = p.sink.log(id);
        std::lock_guard<std::mutex> lock(log.mu);
        const std::string tag = "stream " + std::to_string(j) + " (" +
                                w.spec.name + ")";
        if (log.error) {
          bad[j] = tag + ": session failed: " + log.error_message;
          continue;
        }
        if (!log.finished) {
          bad[j] = tag + ": no Finished event";
          continue;
        }
        if (archive) {
          // Rebuild-per-block image vs the sliding reference: the 1e-9
          // parity contract on 1/A', identical orders and time stamps;
          // and the delivered column events must equal the held image.
          const core::AngleTimeImage& got = engine.pipeline(id).image();
          Hasher held;
          for (std::size_t t = 0; t < got.num_times(); ++t)
            hash_column(held, t, got.times_sec[t], got.model_orders[t],
                        got.columns[t]);
          if (got.num_times() != img.num_times() ||
              log.columns != img.num_times()) {
            bad[j] = tag + ": column count differs from the reference";
          } else if (held.value() != log.columns_hash.value()) {
            bad[j] = tag + ": delivered columns differ from the session image";
          } else {
            for (std::size_t t = 0; t < img.num_times() && bad[j].empty();
                 ++t) {
              if (got.times_sec[t] != img.times_sec[t] ||
                  got.model_orders[t] != img.model_orders[t]) {
                bad[j] = tag + ": column " + std::to_string(t) +
                         " time/model order differs from the reference";
              }
              for (std::size_t a = 0; a < img.num_angles() && bad[j].empty();
                   ++a) {
                if (!(std::abs(1.0 / got.columns[t][a] -
                               1.0 / img.columns[t][a]) <= kParityTol))
                  bad[j] = tag + ": column " + std::to_string(t) +
                           " beyond the 1e-9 parity bound";
              }
            }
          }
          continue;
        }
        if (lost[j] != 0) continue;  // a lossy live stream is not comparable
        if (log.columns != img.num_times() ||
            log.columns_hash.value() != ref_cols.value()) {
          bad[j] = tag + ": columns not bit-identical to Session::run";
        } else if (hash_histories(engine.multi_tracker(id).histories()) !=
                   ref_hist) {
          bad[j] = tag + ": track histories not bit-identical to Session::run";
        }
      }
    }
  };
  std::vector<std::unique_ptr<Worker>> pool;
  for (int t = 0; t < 4; ++t) pool.push_back(std::make_unique<Worker>(work));
  for (auto& t : pool) t->join();

  double ospa_sum = 0.0;
  for (double v : ospa) ospa_sum += v;
  r.e2e["ospa_deg"] = {ospa_sum / static_cast<double>(ospa.size()), "deg"};
  r.attempted = 0;
  r.failed = 0;
  std::uint64_t lost_total = 0;
  for (std::size_t j = 0; j < p.streams.size(); ++j) {
    r.attempted += p.streams[j].chunks;
    lost_total += lost[j];
    if (!bad[j].empty()) {
      r.fail(bad[j]);
      r.failed += p.streams[j].chunks;  // every chunk of a failed check
    } else {
      r.failed += lost[j];
    }
  }
  r.layer["bench.chunk_loss_frac"] = {
      static_cast<double>(lost_total) / static_cast<double>(r.attempted),
      "ratio"};
}

/// Conservation laws on the exported counters, after drain.
void check_conservation(rt::Engine& engine, bool net, RunResult& r) {
  const rt::Engine::EngineStats st = engine.stats();
  if (st.samples_in != st.samples_processed + st.samples_dropped +
                           st.samples_rejected + st.samples_lost)
    r.fail("engine sample conservation violated");
  if (!net) return;
  if (st.net_frames_in != st.net_frames_accepted + st.net_frames_rejected)
    r.fail("net wire conservation violated (in != accepted + rejected)");
  const obs::Snapshot snap = engine.snapshot();
  auto c = [&](const char* name) { return snap.counter_value(name); };
  const std::uint64_t terminal =
      c("wivi_net_frames_delivered_total") + c("wivi_net_frames_dup_total") +
      c("wivi_net_frames_stale_total") + c("wivi_net_frames_evicted_total") +
      c("wivi_net_frames_decode_failed_total") +
      c("wivi_net_frames_sink_dropped_total") +
      c("wivi_net_frames_control_total") + c("wivi_net_frames_in_flight");
  if (c("wivi_net_frames_accepted_total") != terminal)
    r.fail("net reassembly conservation violated");
}

// ------------------------------------------------------------ metrics ---

void collect_metrics(Pass& p, rt::Engine& engine, int workers,
                     RunResult& r) {
  const double window_s = static_cast<double>(p.t_end - p.t_start) / 1e9;
  const auto hop = static_cast<std::size_t>(core::MotionTracker::Config{}.hop);

  std::vector<double> lat_ms;
  double sensor_s = 0.0;
  std::uint64_t columns = 0;
  std::vector<std::int64_t> completions;  // column receipt instants
  std::vector<double> trace_rates;        // archive: per-trace sensor-s/s
  std::vector<obs::LocalHistogram> stages(obs::kStageCount);
  for (Stream& s : p.streams) {
    const World& w = p.worlds[s.world];
    const std::size_t expect = expected_columns(w);
    const SessionLog* log = s.session ? &p.sink.log(*s.session) : nullptr;
    const std::size_t got = log ? log->column_rx_ns.size() : 0;
    columns += got;
    if (s.session) {
      const rt::SessionStats st = engine.stats(*s.session);
      const double stream_s =
          static_cast<double>(st.samples_in - st.samples_dropped -
                              st.samples_rejected) /
          w.sample_rate_hz;
      sensor_s += stream_s;
      if (s.done_ns > s.start_ns.front())
        trace_rates.push_back(stream_s * 1e9 /
                              static_cast<double>(s.done_ns - s.start_ns.front()));
      if (log)
        completions.insert(completions.end(), log->column_rx_ns.begin(),
                           log->column_rx_ns.end());
      const obs::PipelineObserver& ob = engine.pipeline(*s.session).observer();
      for (int k = 0; k < obs::kStageCount; ++k)
        stages[static_cast<std::size_t>(k)].merge(
            ob.stage(static_cast<obs::Stage>(k)));
    }
    for (std::size_t k = 0; k < expect; ++k) {
      const std::size_t c = s.start_ns.size() == 1 ? 0 : completing_chunk(k);
      // A column that never arrived counts as late by the whole run.
      const double ms =
          k < got ? static_cast<double>(log->column_rx_ns[k] - s.start_ns[c]) /
                        1e6
                  : window_s * 1e3;
      lat_ms.push_back(ms);
    }
  }

  const rt::Engine::EngineStats st = engine.stats();
  r.e2e["setup_s"] = {median(p.setup_s), "s"};
  // Closed and open loops: the median rate over blocks of completed
  // columns (each one hop of stream). archive_batch delivers a whole
  // trace's columns at once, so there it is the median per-trace rate.
  const double fs = p.worlds.front().sample_rate_hz;
  r.e2e["stream_x"] = {
      trace_rates.empty()
          ? block_rate(std::move(completions),
                          static_cast<double>(hop) / fs, sensor_s / window_s)
          : median(trace_rates),
      "sensor-s/s"};
  r.e2e["wire_to_event_p50_ms"] = {quantile(lat_ms, 0.50), "ms"};
  r.e2e["cpu_ms_per_stream_s"] = {
      static_cast<double>(p.proc_cpu - p.generator_cpu) / 1e6 / sensor_s,
      "ms"};
  r.e2e["chunks_ok_frac"] = {
      1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted),
      "ratio"};
  r.e2e["rss_peak_mb"] = {rss_peak_mib(), "MiB"};

  auto& L = r.layer;
  // The tail carries no bound: hypervisor steal on a shared machine moves
  // it several-fold from run to run.
  L["wire_to_event_p99_ms"] = {quantile(std::move(lat_ms), 0.99), "ms"};
  const bool live = p.o.workload == "live_wire";
  const obs::Snapshot snap = engine.snapshot();
  obs::HistogramSnapshot f2r;
  for (const auto& h : snap.histograms)
    if (h.name == "wivi_net_frame_to_ring_ns") f2r = h.hist;
  // live_wire overwrites the sender/receiver figures; elsewhere net is idle.
  L["net.send_us_per_chunk"] = {0.0, "us"};
  L["net.rx_cpu_us_per_frame"] = {0.0, "us"};
  L["net.frames_in"] = {static_cast<double>(st.net_frames_in), "count"};
  L["net.frames_rejected"] = {static_cast<double>(st.net_frames_rejected),
                              "count"};
  L["net.chunk_gaps"] = {static_cast<double>(st.net_chunk_gaps), "count"};
  L["net.ring_full_drops"] = {static_cast<double>(st.net_ring_full_drops),
                              "count"};
  L["net.frame_to_ring_p99_us"] = {static_cast<double>(f2r.p99) / 1e3, "us"};
  L["rt.ingress_wait_p50_us"] = {
      static_cast<double>(st.ingress_wait.p50) / 1e3, "us"};
  L["rt.ingress_wait_p99_us"] = {
      static_cast<double>(st.ingress_wait.p99) / 1e3, "us"};
  L["rt.chunk_latency_p99_us"] = {
      static_cast<double>(st.chunk_latency.p99) / 1e3, "us"};
  L["rt.offer_blocked_ms"] = {static_cast<double>(p.offer_ns) / 1e6, "ms"};
  L["rt.worker_cpu_frac"] = {
      static_cast<double>(p.proc_cpu - p.bench_cpu) / 1e9 /
          (window_s * workers),
      "ratio"};
  L["rt.events_out"] = {static_cast<double>(st.events_out), "count"};
  L["rt.chunks_dropped"] = {static_cast<double>(st.chunks_dropped), "count"};
  L["api.guard_us_p50"] = {stage_us_p50(stages, obs::Stage::kGuard), "us"};
  L["api.stft_doppler_us_p50"] = {stage_us_p50(stages, obs::Stage::kStft),
                                  "us"};
  L["api.music_us_p50"] = {stage_us_p50(stages, obs::Stage::kMusic), "us"};
  L["api.music_us_p99"] = {
      static_cast<double>(
          stages[static_cast<std::size_t>(obs::Stage::kMusic)].snapshot().p99) /
          1e3,
      "us"};
  L["api.detect_us_p50"] = {stage_us_p50(stages, obs::Stage::kDetect), "us"};
  L["api.emit_us_p50"] = {stage_us_p50(stages, obs::Stage::kEmit), "us"};
  L["api.chunk_us_p50"] = {stage_us_p50(stages, obs::Stage::kChunk), "us"};
  L["plan.builds"] = {static_cast<double>(st.plan_builds), "count"};
  L["plan.hits"] = {static_cast<double>(st.plan_hits), "count"};
  L["plan.misses"] = {static_cast<double>(st.plan_misses), "count"};
  L["bench.gen_late_p99_ms"] = {live ? quantile(p.late_ms, 0.99) : 0.0, "ms"};
  L["bench.columns"] = {static_cast<double>(columns), "count"};
  L["bench.chunks"] = {static_cast<double>(r.attempted), "count"};

  r.counts["columns"] = columns;
  r.counts["chunks"] = r.attempted;
  r.counts["plan.builds"] = st.plan_builds;
  r.counts["rt.events_out"] = st.events_out;
  r.counts["frames"] = 0;
}

/// Re-tag sink spans (recorded against session id and column index) with
/// the stream's sensor id and the chunk that completed the column, so one
/// chunk's send/offer/sink spans share (sensor, chunk_seq).
void gather_spans(Pass& p, RunResult& r, std::vector<SpanLog*> logs) {
  if (!p.traced) return;
  const bool archive = p.o.workload == "archive_batch";
  for (const Stream& s : p.streams) {
    if (!s.session) continue;
    for (Span sp : p.sink.log(*s.session).spans) {
      const auto k = static_cast<std::size_t>(sp.chunk_seq);
      sp.sensor = s.sensor;
      sp.chunk_seq = archive ? 0 : static_cast<std::int64_t>(completing_chunk(k));
      r.spans.push_back(sp);
    }
  }
  logs.push_back(&p.main_log);
  for (SpanLog* l : logs)
    r.spans.insert(r.spans.end(), l->spans().begin(), l->spans().end());
  r.lanes.emplace_back(kLaneMain, "main");
  r.lanes.emplace_back(kLaneSink, "sink (engine workers)");
}

void start_window(Pass& p) {
  p.t_start = now_ns();
  p.proc_cpu = process_cpu_ns();
}

void end_window(Pass& p) {
  p.t_end = now_ns();
  p.proc_cpu = process_cpu_ns() - p.proc_cpu;
}

std::unique_ptr<rt::Engine> make_engine(Pass& p, int workers) {
  rt::Engine::Config ec;
  ec.num_threads = workers;
  auto engine = std::make_unique<rt::Engine>(ec);
  engine->set_callback(
      [&sink = p.sink](rt::Event&& e) { sink.on_engine_event(std::move(e)); });
  return engine;
}

// ---------------------------------------------------------- live_wire ---

struct LiveRig {
  std::unique_ptr<rt::Engine> engine;
  std::unique_ptr<net::EngineBinding> binding;
  std::unique_ptr<net::Receiver> rx;
  std::unique_ptr<net::Sender> tx;
};

/// Receiver-thread state: the receiver's chunk sink wraps the binding's
/// so the benchmark can time (and trace) the hand-off into the engine.
struct PollState {
  SpanLog log;
  std::int64_t offer_ns = 0;
  net::ChunkSink inner;
};

LiveRig live_setup(Pass& p, PollState& ps) {
  plan::registry().clear();
  const std::int64_t t0 = now_ns();
  LiveRig rig;
  rig.engine = make_engine(p, kLiveWorkers);
  rt::IngestConfig ingest;
  ingest.backpressure = rt::Backpressure::kDropNewest;
  rig.binding = std::make_unique<net::EngineBinding>(
      *rig.engine, net::EngineBinding::Config{pipeline_spec(), ingest, true});
  ps.inner = rig.binding->sink();
  net::ReceiverConfig rc;
  rc.enable_tcp = false;
  rc.registry = &rig.engine->registry();
  rig.rx = std::make_unique<net::Receiver>(
      rc,
      [&ps](std::uint32_t sensor, std::uint64_t seq, CVec&& chunk) {
        const std::int64_t a = now_ns();
        const bool ok = ps.inner(sensor, seq, std::move(chunk));
        const std::int64_t b = now_ns();
        ps.offer_ns += b - a;
        ps.log.add("rt.offer", a, b, sensor, static_cast<std::int64_t>(seq));
        return ok;
      },
      rig.binding->end_sink());
  net::Sender::Config sc;
  sc.transport = net::Transport::kUdp;
  sc.port = rig.rx->udp_port();
  rig.tx = std::make_unique<net::Sender>(sc);
  p.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return rig;
}

struct Send {
  std::int64_t due_ns;
  std::uint32_t stream;
  std::uint32_t chunk;  ///< == chunks of the stream: the end-of-stream mark
};

void run_live(Pass& p, RunResult& r) {
  PollState ps{SpanLog(kLanePoll, p.traced), 0, {}};
  for (int i = 1; i < kSetupReps; ++i) live_setup(p, ps);
  LiveRig rig = live_setup(p, ps);

  // The fixed schedule: sensor slot s plays streams s, s+S, s+2S, ...
  // back to back; slots are staggered by a fraction of the chunk period.
  const double fs = p.worlds.front().sample_rate_hz;
  const auto period_ns = static_cast<std::int64_t>(
      std::llround(static_cast<double>(kChunkLen) / fs / kLivePace * 1e9));
  const std::int64_t stagger_ns =
      period_ns / static_cast<std::int64_t>(kLiveSensors);
  const std::int64_t t0 = now_ns() + 50'000'000;  // threads up and parked
  std::vector<Send> sched;
  std::vector<std::int64_t> slot_next(kLiveSensors, 0);
  for (std::size_t j = 0; j < p.streams.size(); ++j) {
    Stream& s = p.streams[j];
    const std::size_t slot = j % kLiveSensors;
    s.chunks = num_chunks(p.worlds[s.world]);
    for (std::size_t c = 0; c <= s.chunks; ++c) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(slot) * stagger_ns +
          (slot_next[slot] + static_cast<std::int64_t>(c)) * period_ns;
      if (c < s.chunks) s.start_ns.push_back(due);
      sched.push_back({due, static_cast<std::uint32_t>(j),
                       static_cast<std::uint32_t>(c)});
    }
    slot_next[slot] += static_cast<std::int64_t>(s.chunks) + 1;
  }
  std::sort(sched.begin(), sched.end(), [](const Send& a, const Send& b) {
    return a.due_ns < b.due_ns;
  });

  std::atomic<bool> gen_done{false};
  std::atomic<std::uint64_t> frames_sent{0};
  std::int64_t send_ns = 0;
  std::int64_t gen_cpu = 0;
  std::int64_t poll_cpu = 0;
  SpanLog gen_log(kLaneGenerator, p.traced);
  start_window(p);
  Worker generator([&] {
    // Done even if a send throws, so the receiver thread stops waiting.
    struct Done {
      std::atomic<bool>& flag;
      ~Done() { flag.store(true, std::memory_order_release); }
    } done{gen_done};
    const std::int64_t cpu0 = thread_cpu_ns();
    p.late_ms.reserve(sched.size());
    for (const Send& e : sched) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(e.due_ns)));
      const std::int64_t a = now_ns();
      p.late_ms.push_back(static_cast<double>(a - e.due_ns) / 1e6);
      const Stream& s = p.streams[e.stream];
      const World& w = p.worlds[s.world];
      if (e.chunk < s.chunks)
        rig.tx->send_chunk(s.sensor, chunk_of(w, e.chunk));
      else
        rig.tx->send_end(s.sensor);
      const std::int64_t b = now_ns();
      send_ns += b - a;
      gen_log.add("net.send", a, b, s.sensor, e.chunk);
    }
    frames_sent.store(rig.tx->frames_sent(), std::memory_order_relaxed);
    gen_cpu = thread_cpu_ns() - cpu0;
  });
  Worker poller([&] {
    const std::int64_t cpu0 = thread_cpu_ns();
    std::int64_t give_up = 0;
    for (;;) {
      const std::size_t mark = ps.log.spans().size();
      const std::int64_t a = now_ns();
      const std::size_t n = rig.rx->poll_once(2);
      if (n > 0 && ps.log.on()) {
        const std::uint64_t id = ps.log.add("net.poll", a, now_ns());
        for (std::size_t i = mark; i + 1 < ps.log.spans().size(); ++i)
          ps.log.spans()[i].parent = id;
      }
      if (!gen_done.load(std::memory_order_acquire)) continue;
      if (rig.rx->wire_stats().frames_in >=
          frames_sent.load(std::memory_order_relaxed))
        break;
      // Frames the kernel dropped never arrive; stop waiting for them.
      if (give_up == 0) give_up = now_ns() + 2'000'000'000;
      if (now_ns() > give_up) break;
    }
    rig.rx->flush();
    poll_cpu = thread_cpu_ns() - cpu0;
  });
  poller.join();
  generator.join();
  rig.binding->close_all();
  rig.engine->drain();
  end_window(p);

  p.generator_cpu = gen_cpu;
  p.bench_cpu = gen_cpu + poll_cpu;
  p.offer_ns = ps.offer_ns;
  for (Stream& s : p.streams) s.session = rig.binding->session(s.sensor);

  check_outputs(p, *rig.engine, r);
  check_conservation(*rig.engine, true, r);
  if (rig.engine->stats().net_frames_in != frames_sent.load())
    r.problems.push_back("kernel dropped " +
                         std::to_string(frames_sent.load() -
                                        rig.engine->stats().net_frames_in) +
                         " datagrams (counted as lost chunks)");
  collect_metrics(p, *rig.engine, kLiveWorkers, r);
  const auto frames_in = rig.engine->stats().net_frames_in;
  r.layer["net.send_us_per_chunk"] = {
      static_cast<double>(send_ns) / 1e3 / static_cast<double>(sched.size()),
      "us"};
  r.layer["net.rx_cpu_us_per_frame"] = {
      frames_in == 0 ? 0.0
                     : static_cast<double>(poll_cpu) / 1e3 /
                           static_cast<double>(frames_in),
      "us"};
  r.counts["frames"] = frames_sent.load();
  gather_spans(p, r, {&gen_log, &ps.log});
  r.lanes.emplace_back(kLaneGenerator, "generator (net::Sender)");
  r.lanes.emplace_back(kLanePoll, "receiver poll (net::Receiver)");
}

// ------------------------------------------------------- replay_fleet ---

std::unique_ptr<rt::Engine> fleet_setup(Pass& p) {
  plan::registry().clear();
  const std::int64_t t0 = now_ns();
  auto engine = make_engine(p, kFleetWorkers);
  rt::IngestConfig ingest;
  ingest.ring_capacity = kFleetRing;
  ingest.backpressure = rt::Backpressure::kBlock;
  for (Stream& s : p.streams)
    s.session = engine->open_session(pipeline_spec(), ingest);
  p.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return engine;
}

void run_fleet(Pass& p, RunResult& r) {
  for (int i = 1; i < kSetupReps; ++i) fleet_setup(p);
  std::unique_ptr<rt::Engine> engine = fleet_setup(p);
  for (Stream& s : p.streams) {
    s.chunks = num_chunks(p.worlds[s.world]);
    s.start_ns.assign(s.chunks, 0);
  }

  std::int64_t feeder_cpu = 0;
  SpanLog feed_log(kLaneGenerator, p.traced);
  start_window(p);
  Worker feeder([&] {
    const std::int64_t cpu0 = thread_cpu_ns();
    // Round-robin over the active sensor slots, one chunk per visit; a
    // slot whose stream ends closes it and takes the next stream.
    struct Slot {
      std::size_t stream;
      std::size_t chunk = 0;
    };
    std::vector<Slot> slots;
    std::size_t next = 0;
    while (slots.size() < kFleetSensors && next < p.streams.size())
      slots.push_back({next++});
    while (!slots.empty()) {
      for (std::size_t i = 0; i < slots.size();) {
        Slot& sl = slots[i];
        Stream& s = p.streams[sl.stream];
        const CSpan span = chunk_of(p.worlds[s.world], sl.chunk);
        CVec chunk(span.begin(), span.end());
        const std::int64_t a = now_ns();
        s.start_ns[sl.chunk] = a;
        engine->offer(*s.session, std::move(chunk));
        const std::int64_t b = now_ns();
        p.offer_ns += b - a;
        feed_log.add("rt.offer", a, b, s.sensor,
                     static_cast<std::int64_t>(sl.chunk));
        if (++sl.chunk < s.chunks) {
          ++i;
          continue;
        }
        engine->close_session(*s.session);
        if (next < p.streams.size()) {
          sl = Slot{next++};
          ++i;
        } else {
          slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
    feeder_cpu = thread_cpu_ns() - cpu0;
  });
  feeder.join();
  engine->drain();
  end_window(p);
  p.generator_cpu = feeder_cpu;
  p.bench_cpu = feeder_cpu;

  check_outputs(p, *engine, r);
  check_conservation(*engine, false, r);
  collect_metrics(p, *engine, kFleetWorkers, r);
  gather_spans(p, r, {&feed_log});
  r.lanes.emplace_back(kLaneGenerator, "feeder (rt::Engine::offer)");
}

// ------------------------------------------------------ archive_batch ---

std::unique_ptr<rt::Engine> archive_setup(Pass& p) {
  plan::registry().clear();
  const std::int64_t t0 = now_ns();
  auto engine = make_engine(p, kArchiveWorkers);
  p.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return engine;
}

void run_archive(Pass& p, RunResult& r) {
  for (int i = 1; i < kSetupReps; ++i) archive_setup(p);
  std::unique_ptr<rt::Engine> engine = archive_setup(p);
  start_window(p);
  for (Stream& s : p.streams) {
    s.chunks = 1;
    const std::int64_t a = now_ns();
    s.start_ns.assign(1, a);
    s.session = engine->run_recorded(pipeline_spec(), p.worlds[s.world].h);
    const std::int64_t b = now_ns();
    s.done_ns = b;
    p.main_log.add("rt.run_recorded", a, b, s.sensor, 0);
  }
  engine->drain();
  end_window(p);

  check_outputs(p, *engine, r);
  check_conservation(*engine, false, r);
  collect_metrics(p, *engine, kArchiveWorkers, r);
  gather_spans(p, r, {});
}

}  // namespace

// --------------------------------------------------------------- sink ---

Sink::Sink(std::size_t max_sessions, bool trace) : trace_(trace) {
  logs_.reserve(max_sessions);
  for (std::size_t i = 0; i < max_sessions; ++i)
    logs_.push_back(std::make_unique<SessionLog>());
}

void Sink::on_engine_event(rt::Event&& e) {
  // The one place that reads the deprecated rt::Event: everything past
  // this line consumes the typed api::Event.
  const rt::SessionId id = e.session;
  on_event(id, rt::to_api_event(e));
}

void Sink::on_event(rt::SessionId id, api::Event&& e) {
  const std::int64_t t = now_ns();
  SessionLog& log = *logs_.at(id);
  std::lock_guard<std::mutex> lock(log.mu);
  std::visit(
      Overloaded{
          [&](const api::ColumnEvent& c) {
            hash_column(log.columns_hash, c.column_index, c.time_sec,
                        c.model_order, c.column);
            log.column_rx_ns.push_back(t);
            ++log.columns;
            if (trace_)
              log.spans.push_back(
                  {"sink.column", t, now_ns(), kLaneSink, id,
                   static_cast<std::int64_t>(c.column_index),
                   (std::uint64_t{kLaneSink} << 40) |
                       (std::uint64_t{id} << 20) | c.column_index,
                   0});
          },
          [&](const api::FinishedEvent&) { log.finished = true; },
          [&](const api::ErrorEvent& err) {
            log.error = true;
            log.error_message = err.message;
          },
          [](const auto&) {},
      },
      e);
}

// -------------------------------------------------------------- entry ---

std::pair<std::size_t, double> world_plan(const Options& o) {
  const bool archive = o.workload == "archive_batch";
  const std::size_t n =
      std::min(archive ? kArchiveWorlds : kMaxWorlds, streams_for(o));
  return {std::max<std::size_t>(n, 1), archive ? kArchiveScale : 1.0};
}

RunResult run_workload(const Options& o, const std::vector<World>& worlds,
                       bool traced) {
  RunResult r;
  Pass p(o, worlds, traced);
  if (o.workload == "live_wire")
    run_live(p, r);
  else if (o.workload == "replay_fleet")
    run_fleet(p, r);
  else
    run_archive(p, r);
  return r;
}

}  // namespace wirebench
