/// @file
/// The streaming runtime engine: N live sensor sessions multiplexed over a
/// shared worker pool.
///
/// Since the wivi::api facade landed, the Engine is a *thin multiplexer*:
/// each session owns a lock-free SPSC ring of sample chunks plus one
/// compiled wivi::Session pipeline; a pool of workers drains the rings —
/// each worker walks its own shard (session id mod thread count) first and
/// steals from any other shard when its own is idle. A per-session claim
/// flag guarantees at most one worker touches a session's pipeline at a
/// time, so per-session results are in stream order and independent of
/// thread count and interleaving (pinned by test_rt_engine). Results come
/// back either through poll() or a caller-supplied callback (invoked on
/// worker threads).
///
/// Sessions are opened from an api::PipelineSpec plus an IngestConfig (the
/// ring/backpressure knobs that only exist in the multiplexed setting), and
/// every result is the pipeline's own typed api::Event tagged with its
/// SessionId (rt::Event).
///
/// Ownership/threading rules are spelled out in DESIGN.md §4. The short
/// version: one producer thread per session at a time; Engine owns every
/// Session; a session's pipeline is only ever touched under its claim
/// flag.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/api/session.hpp"
#include "src/obs/metrics.hpp"
#include "src/rt/spsc_ring.hpp"
#include "src/rt/streaming.hpp"

namespace wivi::rt {

/// Handle identifying one sensor session within an Engine.
using SessionId = std::uint32_t;

/// What to do when a session's ring is full at offer() time.
enum class Backpressure {
  /// Drop the offered chunk (and count it). Keeps the producer real-time
  /// at the cost of stream gaps — the live-capture default.
  kDropNewest,
  /// Make offer() wait (yield-spin) until the ring has room. Lossless and
  /// deterministic; for replayed traces and tests.
  kBlock,
};

/// Bounded-retry recovery of a failed multiplexed session (DESIGN.md §9):
/// when a pipeline stage, sink or fault hook throws, the engine re-arms
/// the session with a freshly compiled pipeline (same spec) instead of
/// killing it — up to `max_restarts` times, each restart announced by a
/// RecoveredEvent following the failure's ErrorEvent. The restarted
/// pipeline starts a new image (earlier columns are lost, column indices
/// restart from 0) and continues consuming the ring where the dead one
/// stopped. With the default `max_restarts == 0` every failure is
/// terminal, exactly the single-ErrorEvent contract.
struct RestartPolicy {
  /// Restarts allowed over the session's lifetime (0 = never restart).
  int max_restarts = 0;
  /// Delay before restart r resumes processing: backoff_sec * 2^(r-1)
  /// (exponential). 0 resumes immediately.
  double backoff_sec = 0.0;
};

/// Per-session liveness watchdog (DESIGN.md §9): when the feeder goes
/// silent for `stall_timeout_sec`, the engine emits one advisory
/// StalledEvent (re-armed by the next offer()); if silence reaches twice the
/// deadline and `timeout_is_fatal`, the session dies with a terminal
/// ErrorEvent of ErrorCode::kTimeout — which is also how a session that was
/// opened but never fed nor closed resolves instead of hanging drain().
struct WatchdogConfig {
  /// Liveness deadline in seconds; 0 disables the watchdog.
  double stall_timeout_sec = 0.0;
  /// Kill the session (ErrorEvent, ErrorCode::kTimeout) when silence reaches
  /// 2 * stall_timeout_sec. When false the watchdog only ever advises.
  bool timeout_is_fatal = true;
};

/// Graceful degradation under overload (DESIGN.md §9): when a kDropNewest
/// session keeps losing chunks to a full ring, the engine steps the
/// session down to a coarser MUSIC angle grid
/// (wivi::Session::set_fidelity) so each column costs less and the worker
/// catches up; after a hysteresis window of drop-free input it restores
/// full fidelity. Both transitions are announced with OverloadEvents.
struct OverloadPolicy {
  /// Master switch; false leaves fidelity alone no matter the drops.
  bool degrade = false;
  /// Enter degraded mode after this many chunks dropped since the last
  /// transition (the ladder's trip point).
  std::uint64_t degrade_after_drops = 8;
  /// Angle-grid decimation while degraded (>= 2 to be a real step down).
  int degraded_fidelity = 4;
  /// Restore full fidelity after this many consecutively processed chunks
  /// with no new drops (the hysteresis that prevents flapping).
  std::uint64_t restore_after_chunks = 64;
};

/// The ingestion-edge knobs of one multiplexed session — everything about
/// *feeding* the pipeline that has no meaning for a standalone
/// wivi::Session (which is handed its chunks directly).
struct IngestConfig {
  /// Ingest ring depth in chunks (rounded up to a power of two).
  std::size_t ring_capacity = 256;
  /// What offer() does when the ring is full.
  Backpressure backpressure = Backpressure::kDropNewest;
  /// Bounded-retry recovery of pipeline failures (default: none).
  RestartPolicy restart;
  /// Feeder-liveness watchdog (default: disabled).
  WatchdogConfig watchdog;
  /// Degrade-under-overload ladder (default: disabled).
  OverloadPolicy overload;
  /// Chaos-engineering failpoint forwarded to
  /// wivi::Session::set_fault_hook on every (re)armed pipeline — how the
  /// fault-injection suites script stage exceptions at exact chunk
  /// indices inside a multiplexed session (fault::throw_hook).
  std::function<void(std::size_t)> fault_hook;
  /// Emit a periodic StatsEvent carrying the session's SessionStats
  /// (cumulative counters + chunk-latency summary) at least this many
  /// seconds apart — in-band telemetry a sink can watch without polling
  /// Engine::stats(). Emitted from whichever worker holds the session's
  /// claim, including on idle sessions, plus one closing StatsEvent with
  /// the final counters just before the FinishedEvent. 0 (the default)
  /// disables it.
  double stats_interval_sec = 0.0;
};

/// Point-in-time per-session counters (see Engine::stats(SessionId)).
struct SessionStats {
  std::uint64_t chunks_in = 0;         ///< chunks offered
  std::uint64_t samples_in = 0;        ///< samples offered
  std::uint64_t chunks_dropped = 0;    ///< chunks lost to backpressure
  std::uint64_t samples_dropped = 0;   ///< samples lost to backpressure
  std::uint64_t chunks_rejected = 0;   ///< chunks the InputGuard rejected
  std::uint64_t samples_rejected = 0;  ///< samples in rejected chunks
  std::uint64_t columns_out = 0;       ///< image columns produced
  std::uint64_t bits_out = 0;          ///< gesture bits emitted
  int restarts = 0;                    ///< RestartPolicy restarts consumed
  int fidelity = 1;                    ///< angle decimation in effect
  bool stalled = false;                ///< watchdog advisory in effect
  bool closed = false;                 ///< close_session() called
  bool finished = false;               ///< drained and finalised (or dead)
  /// Offer→processed chunk latency summary, nanoseconds (fills only while
  /// obs recording is enabled).
  obs::HistogramSnapshot latency;
};

/// One unit of output, delivered via poll() or the callback: the typed
/// api::Event a session's pipeline (or the engine on its behalf) emitted,
/// tagged with the session it belongs to. Per-session event order is
/// deterministic; the interleaving across sessions is not.
struct Event {
  /// Session this event belongs to.
  SessionId session = 0;
  /// The payload: pipeline output (ColumnEvent, TracksEvent, BitsEvent,
  /// CountEvent, FinishedEvent, ErrorEvent) or an engine-only health
  /// event (StalledEvent, RecoveredEvent, OverloadEvent, StatsEvent).
  api::Event event;
};

/// The session table plus worker pool: opens sessions, ingests chunks,
/// drains them through their compiled pipelines and delivers Events.
class Engine {
 public:
  /// Engine-wide (not per-session) configuration.
  struct Config {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    int num_threads = 0;
    /// Session table size (fixed at start so the lock-free reader side
    /// never chases a reallocating vector).
    std::size_t max_sessions = 1024;
    /// Chunks a worker processes per claim: the work-stealing granularity
    /// and the bound on how long one session monopolises a worker.
    int chunks_per_claim = 4;
  };

  /// Engine-wide cumulative telemetry (see stats() with no argument):
  /// sums over every session this engine has ever opened.
  struct EngineStats {
    std::uint64_t sessions = 0;           ///< sessions opened
    std::uint64_t sessions_finished = 0;  ///< sessions drained or dead
    std::uint64_t chunks_in = 0;          ///< chunks offered, all sessions
    std::uint64_t samples_in = 0;         ///< samples offered
    std::uint64_t chunks_dropped = 0;     ///< chunks lost to backpressure
    std::uint64_t samples_dropped = 0;    ///< samples lost to backpressure
    std::uint64_t chunks_rejected = 0;    ///< InputGuard rejections
    std::uint64_t samples_rejected = 0;   ///< samples in rejected chunks
    std::uint64_t samples_processed = 0;  ///< samples fully processed
    std::uint64_t samples_lost = 0;       ///< samples in chunks dying mid-failure
    std::uint64_t columns_out = 0;        ///< image columns produced
    std::uint64_t bits_out = 0;           ///< gesture bits emitted
    std::uint64_t events_out = 0;         ///< events delivered
    std::uint64_t stalls = 0;             ///< watchdog advisories fired
    std::uint64_t timeouts = 0;           ///< fatal watchdog timeouts
    std::uint64_t restarts = 0;           ///< RestartPolicy restarts
    std::uint64_t overload_transitions = 0;  ///< degradation-ladder moves
    // Shared-plan registry counters (process-wide wivi::plan cache — every
    // session's steering tables, FFT plans, window tables, angle grids).
    std::uint64_t plan_hits = 0;         ///< acquires served by a resident plan
    std::uint64_t plan_misses = 0;       ///< acquires that found no resident plan
    std::uint64_t plan_builds = 0;       ///< artifacts actually constructed
    std::uint64_t plan_evictions = 0;    ///< residents demoted by the ARC cache
    std::uint64_t plan_ghost_hits = 0;   ///< misses that matched an evicted key
    std::uint64_t plan_resident_plans = 0;  ///< gauge: plans resident now
    std::uint64_t plan_resident_bytes = 0;  ///< gauge: bytes resident now
    // Network-ingress counters: the `wivi_net_*` family a net::Receiver
    // registers when constructed with this engine's registry() (all zero
    // when no receiver is bound). The wire boundary obeys
    // frames_in == accepted + rejected; accepted frames then follow the
    // reassembly conservation law (src/net/reassembler.hpp).
    std::uint64_t net_frames_in = 0;        ///< frames presented to the parser
    std::uint64_t net_frames_accepted = 0;  ///< frames parsed and routed
    std::uint64_t net_frames_rejected = 0;  ///< typed parse rejections
    std::uint64_t net_frames_dup = 0;       ///< duplicate fragment arrivals
    std::uint64_t net_frames_evicted = 0;   ///< frames lost to window evictions
    std::uint64_t net_frames_in_flight = 0; ///< gauge: frames in partial chunks
    std::uint64_t net_chunks_delivered = 0; ///< complete chunks handed to sinks
    std::uint64_t net_chunk_gaps = 0;       ///< chunk sequence numbers never seen
    std::uint64_t net_ring_full_drops = 0;  ///< chunks refused by a full ring
    std::uint64_t net_bytes_in = 0;         ///< wire bytes received
    obs::HistogramSnapshot ingress_wait;  ///< offer→pop ring wait, ns
    obs::HistogramSnapshot chunk_latency; ///< offer→processed latency, ns
  };

  Engine();  ///< Start an engine with the default Config.
  /// Start the worker pool with the given configuration.
  explicit Engine(Config cfg);
  /// Stops the workers; queued-but-unprocessed chunks are discarded.
  ~Engine();

  Engine(const Engine&) = delete;             ///< Non-copyable.
  Engine& operator=(const Engine&) = delete;  ///< Non-copyable.

  /// Number of worker threads actually running.
  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }
  /// Number of sessions opened so far.
  [[nodiscard]] std::size_t num_sessions() const noexcept {
    return session_count_.load(std::memory_order_acquire);
  }

  /// Register a new session running the given compiled-on-open pipeline
  /// spec, fed through a ring with the given ingestion policy.
  /// Thread-safe.
  SessionId open_session(api::PipelineSpec spec, IngestConfig ingest = {});

  /// Offline fast path for a fully recorded trace: open a session and
  /// execute its pipeline in the parallel-offline mode
  /// (wivi::Session::run(trace, Parallelism) — the image built
  /// column-parallel over this engine's thread count), delivering the same
  /// per-session event sequence a kBlock replay would — except that
  /// CountEvent/TracksEvent/BitsEvent land once (after all columns)
  /// instead of once per chunk; the columns themselves are bit-identical
  /// to a pushed session's (see DESIGN.md §7). Blocks the calling
  /// thread for the whole computation (events are delivered from it) and
  /// returns the finished session's id; offer() on it is an error.
  /// Thread-safe, and concurrent callers parallelise independently.
  SessionId run_recorded(api::PipelineSpec spec, CSpan trace);

  /// Ingest one chunk (one producer thread per session at a time). Returns
  /// false iff the chunk was dropped: kDropNewest with a full ring, or —
  /// under either policy — the engine being stopped or the session already
  /// finished (it failed, timed out, or exhausted its restarts; no worker
  /// will ever drain its ring again). kBlock otherwise waits for ring
  /// space and returns true. Every offer also feeds the session's
  /// liveness watchdog.
  bool offer(SessionId id, CVec chunk);

  /// End of stream: after the ring drains, the session is finalised (final
  /// gesture flush, FinishedEvent). offer() afterwards is an error.
  void close_session(SessionId id);

  /// Block until every session is closed, drained and finalised. Requires
  /// every session to have been close_session()ed — or to carry a fatal
  /// watchdog (WatchdogConfig with timeout_is_fatal), whose timeout
  /// guarantees the session resolves even if its feeder never shows up
  /// (else drain() would never return — enforced).
  void drain();

  /// Move all queued events into `out` (appended); returns how many. No-op
  /// when a callback is installed.
  std::size_t poll(std::vector<Event>& out);

  /// Deliver events through `cb` (on worker threads, one event at a time
  /// per session) instead of the poll() queue. Install before the first
  /// open_session(). A throwing callback fails the session it was
  /// reporting on (ErrorEvent, best effort) — it never crashes the engine.
  void set_callback(std::function<void(Event&&)> cb);

  /// Point-in-time counters for a session (safe while the session runs;
  /// exact once it is finished).
  [[nodiscard]] SessionStats stats(SessionId id) const;

  /// Engine-wide cumulative telemetry: the registry counters plus sums of
  /// the per-session counters. Safe any time; exact once quiet.
  [[nodiscard]] EngineStats stats() const;

  /// The engine's telemetry as one exportable obs::Snapshot: every
  /// registry metric (`wivi_engine_*`, `wivi_ingress_wait_ns`,
  /// `wivi_chunk_latency_ns`) plus the ring cursor sums
  /// (`wivi_ring_{pushes,pops,drops}_total`) and per-session output sums.
  /// Feed it to obs::write_snapshot, or use write_snapshot() directly.
  [[nodiscard]] obs::Snapshot snapshot() const;

  /// Render snapshot() to `os` as JSON (default) or Prometheus text.
  void write_snapshot(std::ostream& os,
                      obs::ExportFormat format = obs::ExportFormat::kJson) const;

  /// Write every session's retained pipeline trace spans as one Chrome
  /// trace-event JSON, one track (pid = session id) per session — only
  /// sessions whose spec set api::ObsConfig::trace_capacity contribute.
  /// Call once the engine is quiet (post-drain): the trace rings are
  /// claim-protected and this reads them unclaimed.
  void write_trace(std::ostream& os) const;

  /// The engine's metric registry — counters/histograms for everything the
  /// engine observes; extend it with caller-owned metrics if desired.
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }

  /// The session's compiled pipeline — safe to read once the session is
  /// finished (FinishedEvent observed or drain() returned).
  [[nodiscard]] const api::Session& pipeline(SessionId id) const;

  /// The session's streaming image stage — safe to read once the session
  /// is finished, like pipeline().
  [[nodiscard]] const StreamingTracker& tracker(SessionId id) const;
  /// Final gesture decode (sessions with a gesture stage; post-drain).
  [[nodiscard]] const core::GestureDecoder::Result& gesture_result(
      SessionId id) const;
  /// The session's multi-target tracker (sessions with a track stage) —
  /// safe to read once the session is finished, like pipeline().
  [[nodiscard]] const track::MultiTargetTracker& multi_tracker(
      SessionId id) const;

 private:
  /// One ring slot: the offered chunk stamped with its offer instant
  /// (obs::now_ns), so the draining worker can attribute ring wait and
  /// end-to-end chunk latency.
  struct Ingested {
    CVec samples;
    std::int64_t ingress_ns = 0;
  };

  struct Session {
    Session(Engine* engine, SessionId id_, api::PipelineSpec spec_,
            IngestConfig ingest_);

    /// (Re)compile `spec` into a fresh pipeline and wire it up: the
    /// conversion sink, the fault hook and the currently commanded
    /// fidelity. Runs at open and, under the claim flag, at every
    /// RestartPolicy restart.
    void arm_pipeline(Engine* engine);

    SessionId id;
    IngestConfig ingest;
    /// The spec, kept beyond compilation so a restart can re-arm an
    /// identical pipeline (api::Session is neither copyable nor movable).
    api::PipelineSpec spec;
    std::optional<api::Session> pipeline;
    SpscRing<Ingested> ring;

    std::atomic<bool> closed{false};
    std::atomic<bool> finished{false};
    /// Claim flag: exchange(true, acquire) to take the session, store
    /// (false, release) to hand it back. The acquire/release pair carries
    /// the pipeline state (and the ring's consumer cache) between
    /// workers.
    std::atomic<bool> busy{false};

    // Producer-side counters.
    std::atomic<std::uint64_t> chunks_in{0};
    std::atomic<std::uint64_t> samples_in{0};
    std::atomic<std::uint64_t> chunks_dropped{0};
    std::atomic<std::uint64_t> samples_dropped{0};
    // Worker-side counters (relaxed atomics: read by stats() while live).
    std::atomic<std::uint64_t> columns_out{0};
    std::atomic<std::uint64_t> bits_out{0};
    std::atomic<std::uint64_t> chunks_rejected{0};
    std::atomic<std::uint64_t> samples_rejected{0};

    // Watchdog state: last producer activity (steady-clock ns) and
    // whether the advisory StalledEvent for the current silence has fired.
    std::atomic<std::int64_t> last_activity_ns{0};
    std::atomic<bool> stall_flagged{false};
    // Restart state: restarts consumed, and the steady-clock instant
    // before which workers must leave the session alone (backoff).
    std::atomic<int> restarts{0};
    std::atomic<std::int64_t> resume_at_ns{0};
    /// Columns produced by pre-restart pipeline incarnations, so
    /// columns_out stays monotone across restarts. Claim-protected.
    std::uint64_t columns_base = 0;

    // Overload-ladder state, claim-protected except the mirrored
    // fidelity (read by stats() while live).
    std::atomic<int> fidelity{1};
    std::uint64_t drops_acked = 0;   ///< drops already reacted to
    std::uint64_t clean_chunks = 0;  ///< drop-free chunks since last drop

    /// Offer→processed chunk latency. Single-slot: the claim flag already
    /// serializes every writer, so sharding would only waste cache lines.
    obs::Histogram latency{1};
    /// Next StatsEvent emission instant (stats_interval_sec; claim-checked).
    std::atomic<std::int64_t> next_stats_ns{0};
  };

  /// The engine's named metrics, interned once so the hot path records
  /// through cached references (DESIGN.md §10 naming scheme).
  struct Metrics {
    explicit Metrics(obs::Registry& r);
    obs::Counter& chunks_in;
    obs::Counter& samples_in;
    obs::Counter& chunks_dropped;
    obs::Counter& samples_dropped;
    obs::Counter& chunks_rejected;
    obs::Counter& samples_rejected;
    obs::Counter& samples_processed;
    obs::Counter& samples_lost;
    obs::Counter& events;
    obs::Counter& stalls;
    obs::Counter& timeouts;
    obs::Counter& restarts;
    obs::Counter& overload_transitions;
    obs::Counter& sessions_opened;
    obs::Counter& sessions_finished;
    obs::Histogram& ingress_wait_ns;
    obs::Histogram& chunk_latency_ns;
  };

  void worker_loop(int wid);
  bool try_process(Session& s);
  void process_chunk(Session& s, Ingested in);
  void check_overload(Session& s);
  void check_watchdog(Session& s, std::int64_t now_ns);
  void maybe_emit_stats(Session& s, std::int64_t now_ns);
  void emit_stats(Session& s);
  void finalize(Session& s);
  void handle_failure(Session& s, ErrorCode code, const char* what) noexcept;
  void fail_session(Session& s, ErrorCode code, const char* what) noexcept;
  void deliver(Event&& e);
  void wake_workers() noexcept;
  [[nodiscard]] Session& session(SessionId id) const;

  Config cfg_;
  int num_threads_ = 1;

  // Telemetry: the registry owns every named engine metric; m_ caches the
  // interned references for the hot paths (declared after registry_ —
  // construction order matters).
  obs::Registry registry_;
  Metrics m_{registry_};

  // Fixed-size table: slots are filled once under register_mu_ and then
  // only read; workers learn about new sessions via the release/acquire
  // on session_count_.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<std::size_t> session_count_{0};
  std::mutex register_mu_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  std::function<void(Event&&)> callback_;
  std::mutex events_mu_;
  std::vector<Event> events_;
};

}  // namespace wivi::rt
