#include "src/rt/engine.hpp"

#include <algorithm>
#include <chrono>
#include <variant>

#include "src/common/error.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/trace.hpp"
#include "src/plan/registry.hpp"

namespace wivi::rt {

namespace {

/// Monotonic now in nanoseconds — the watchdog/backoff/latency time base.
/// Routed through obs::now_ns so tests can install an obs::FakeClock and
/// drive watchdog deadlines deterministically.
std::int64_t now_ns() noexcept { return obs::now_ns(); }

std::int64_t sec_to_ns(double sec) noexcept {
  return static_cast<std::int64_t>(sec * 1e9);
}

}  // namespace

Engine::Metrics::Metrics(obs::Registry& r)
    : chunks_in(r.counter("wivi_engine_chunks_in_total")),
      samples_in(r.counter("wivi_engine_samples_in_total")),
      chunks_dropped(r.counter("wivi_engine_chunks_dropped_total")),
      samples_dropped(r.counter("wivi_engine_samples_dropped_total")),
      chunks_rejected(r.counter("wivi_engine_chunks_rejected_total")),
      samples_rejected(r.counter("wivi_engine_samples_rejected_total")),
      samples_processed(r.counter("wivi_engine_samples_processed_total")),
      samples_lost(r.counter("wivi_engine_samples_lost_total")),
      events(r.counter("wivi_engine_events_total")),
      stalls(r.counter("wivi_engine_stalls_total")),
      timeouts(r.counter("wivi_engine_timeouts_total")),
      restarts(r.counter("wivi_engine_restarts_total")),
      overload_transitions(
          r.counter("wivi_engine_overload_transitions_total")),
      sessions_opened(r.counter("wivi_engine_sessions_opened_total")),
      sessions_finished(r.counter("wivi_engine_sessions_finished_total")),
      ingress_wait_ns(r.histogram("wivi_ingress_wait_ns")),
      chunk_latency_ns(r.histogram("wivi_chunk_latency_ns")) {}

Engine::Session::Session(Engine* engine, SessionId id_,
                         api::PipelineSpec spec_, IngestConfig ingest_)
    : id(id_),
      ingest(std::move(ingest_)),
      spec(std::move(spec_)),
      ring(ingest.ring_capacity) {
  arm_pipeline(engine);
  const std::int64_t now = now_ns();
  last_activity_ns.store(now, std::memory_order_relaxed);
  if (ingest.stats_interval_sec > 0.0)
    next_stats_ns.store(now + sec_to_ns(ingest.stats_interval_sec),
                        std::memory_order_relaxed);
}

void Engine::Session::arm_pipeline(Engine* engine) {
  pipeline.emplace(api::PipelineSpec(spec));
  // The session sink: every typed event the pipeline emits is delivered
  // as-is, tagged with this session's id. Runs under the session's claim
  // flag (the pipeline is only driven from there), so the counter update
  // and delivery order stay per-session sequential. With periodic stats
  // on, the FinishedEvent is preceded by one closing StatsEvent: every
  // counter is final by then (finish() has flushed its last bits), and a
  // sink watching StatsEvents would otherwise end on whatever snapshot
  // the last interval happened to catch.
  pipeline->set_callback([engine, this](api::Event&& e) {
    if (const auto* b = std::get_if<api::BitsEvent>(&e)) {
      bits_out.fetch_add(b->bits.size(), std::memory_order_relaxed);
    } else if (std::holds_alternative<api::FinishedEvent>(e) &&
               ingest.stats_interval_sec > 0.0) {
      columns_out.store(columns_base + pipeline->columns_seen(),
                        std::memory_order_relaxed);
      engine->emit_stats(*this);
    }
    engine->deliver({id, std::move(e)});
  });
  if (ingest.fault_hook) pipeline->set_fault_hook(ingest.fault_hook);
  const int f = fidelity.load(std::memory_order_relaxed);
  if (f > 1) pipeline->set_fidelity(f);
}

Engine::Engine() : Engine(Config{}) {}

Engine::Engine(Config cfg) : cfg_(cfg) {
  WIVI_REQUIRE(cfg_.max_sessions >= 1, "max_sessions must be >= 1");
  WIVI_REQUIRE(cfg_.chunks_per_claim >= 1, "chunks_per_claim must be >= 1");
  num_threads_ = cfg_.num_threads > 0
                     ? cfg_.num_threads
                     : static_cast<int>(
                           std::max(1u, std::thread::hardware_concurrency()));
  sessions_.resize(cfg_.max_sessions);
  workers_.reserve(static_cast<std::size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

Engine::~Engine() {
  stop_.store(true, std::memory_order_release);
  wake_workers();
  for (std::thread& t : workers_) t.join();
}

Engine::Session& Engine::session(SessionId id) const {
  WIVI_REQUIRE(id < session_count_.load(std::memory_order_acquire),
               "unknown session id");
  return *sessions_[id];
}

SessionId Engine::open_session(api::PipelineSpec spec, IngestConfig ingest) {
  WIVI_REQUIRE(ingest.restart.max_restarts >= 0,
               "restart.max_restarts must be >= 0");
  WIVI_REQUIRE(ingest.restart.backoff_sec >= 0.0,
               "restart.backoff_sec must be >= 0");
  WIVI_REQUIRE(ingest.watchdog.stall_timeout_sec >= 0.0,
               "watchdog.stall_timeout_sec must be >= 0");
  WIVI_REQUIRE(!ingest.overload.degrade ||
                   (ingest.overload.degraded_fidelity >= 2 &&
                    ingest.overload.degrade_after_drops >= 1 &&
                    ingest.overload.restore_after_chunks >= 1),
               "overload policy: degraded_fidelity >= 2 and both "
               "thresholds >= 1");
  WIVI_REQUIRE(ingest.stats_interval_sec >= 0.0,
               "stats_interval_sec must be >= 0");
  m_.sessions_opened.add();
  std::lock_guard lk(register_mu_);
  const std::size_t n = session_count_.load(std::memory_order_relaxed);
  WIVI_REQUIRE(n < cfg_.max_sessions, "session table full");
  sessions_[n] = std::make_unique<Session>(this, static_cast<SessionId>(n),
                                           std::move(spec), std::move(ingest));
  session_count_.store(n + 1, std::memory_order_release);
  return static_cast<SessionId>(n);
}

SessionId Engine::run_recorded(api::PipelineSpec spec, CSpan trace) {
  const SessionId id = open_session(std::move(spec), IngestConfig{});
  Session& s = session(id);
  // Claim the session for this thread. It is freshly opened with an empty
  // ring and no close flag, so no worker ever contends for it — the
  // exchange documents that this thread now plays the worker role. Closed
  // only once claimed: a worker seeing closed + empty ring would
  // otherwise race to finalise it.
  while (s.busy.exchange(true, std::memory_order_acquire))
    std::this_thread::yield();
  s.closed.store(true, std::memory_order_release);
  const std::int64_t ingress = now_ns();
  s.chunks_in.fetch_add(1, std::memory_order_relaxed);
  s.samples_in.fetch_add(trace.size(), std::memory_order_relaxed);
  m_.chunks_in.add();
  m_.samples_in.add(trace.size());
  try {
    if (!trace.empty()) process_chunk(s, trace, ingress, num_threads_);
    finalize(s);
  } catch (const TypedError& e) {
    // Includes an InputGuard rejection of the whole trace (counted by
    // process_chunk): the trace *is* the stream, so it is terminal here.
    fail_session(s, e.code(), e.what());
  } catch (const std::exception& e) {
    fail_session(s, ErrorCode::kStageFailure, e.what());
  } catch (...) {
    fail_session(s, ErrorCode::kStageFailure, "unknown exception");
  }
  s.busy.store(false, std::memory_order_release);
  return id;
}

bool Engine::offer(SessionId id, CVec chunk) {
  Session& s = session(id);
  WIVI_REQUIRE(!s.closed.load(std::memory_order_relaxed),
               "offer() on a closed session");
  const std::uint64_t samples = chunk.size();
  const std::int64_t now = now_ns();
  s.chunks_in.fetch_add(1, std::memory_order_relaxed);
  s.samples_in.fetch_add(samples, std::memory_order_relaxed);
  m_.chunks_in.add();
  m_.samples_in.add(samples);
  // Feed the watchdog: any offer — accepted or dropped — is proof the
  // producer is alive, and re-arms the one-shot StalledEvent advisory.
  s.last_activity_ns.store(now, std::memory_order_relaxed);
  s.stall_flagged.store(false, std::memory_order_relaxed);
  // A finished session (failed, timed out, restarts exhausted) has no
  // consumer left; pushing to its ring would strand the chunk outside
  // every counter, so count it as a drop up front.
  if (s.finished.load(std::memory_order_acquire)) {
    s.chunks_dropped.fetch_add(1, std::memory_order_relaxed);
    s.samples_dropped.fetch_add(samples, std::memory_order_relaxed);
    m_.chunks_dropped.add();
    m_.samples_dropped.add(samples);
    return false;
  }

  Ingested in{std::move(chunk), now};
  if (s.ingest.backpressure == Backpressure::kBlock) {
    while (!s.ring.try_push(std::move(in))) {
      // A stopped engine — or a failed (finished) session, whose ring no
      // worker will ever drain again — would leave this loop spinning
      // forever; fall through to the drop path instead.
      if (stop_.load(std::memory_order_acquire) ||
          s.finished.load(std::memory_order_acquire)) {
        s.chunks_dropped.fetch_add(1, std::memory_order_relaxed);
        s.samples_dropped.fetch_add(samples, std::memory_order_relaxed);
        m_.chunks_dropped.add();
        m_.samples_dropped.add(samples);
        return false;
      }
      wake_workers();
      std::this_thread::yield();
    }
    wake_workers();
    return true;
  }
  if (!s.ring.try_push(std::move(in))) {
    s.chunks_dropped.fetch_add(1, std::memory_order_relaxed);
    s.samples_dropped.fetch_add(samples, std::memory_order_relaxed);
    m_.chunks_dropped.add();
    m_.samples_dropped.add(samples);
    return false;
  }
  wake_workers();
  return true;
}

void Engine::close_session(SessionId id) {
  session(id).closed.store(true, std::memory_order_release);
  wake_workers();
}

void Engine::set_callback(std::function<void(Event&&)> cb) {
  WIVI_REQUIRE(session_count_.load(std::memory_order_acquire) == 0,
               "install the callback before opening sessions");
  callback_ = std::move(cb);
}

void Engine::deliver(Event&& e) {
  m_.events.add();
  if (callback_) {
    callback_(std::move(e));
    return;
  }
  std::lock_guard lk(events_mu_);
  events_.push_back(std::move(e));
}

std::size_t Engine::poll(std::vector<Event>& out) {
  std::lock_guard lk(events_mu_);
  const std::size_t n = events_.size();
  if (n > 0) {
    out.insert(out.end(), std::make_move_iterator(events_.begin()),
               std::make_move_iterator(events_.end()));
    events_.clear();
  }
  return n;
}

SessionStats Engine::stats(SessionId id) const {
  const Session& s = session(id);
  SessionStats st;
  st.chunks_in = s.chunks_in.load(std::memory_order_relaxed);
  st.samples_in = s.samples_in.load(std::memory_order_relaxed);
  st.chunks_dropped = s.chunks_dropped.load(std::memory_order_relaxed);
  st.samples_dropped = s.samples_dropped.load(std::memory_order_relaxed);
  st.chunks_rejected = s.chunks_rejected.load(std::memory_order_relaxed);
  st.samples_rejected = s.samples_rejected.load(std::memory_order_relaxed);
  st.columns_out = s.columns_out.load(std::memory_order_relaxed);
  st.bits_out = s.bits_out.load(std::memory_order_relaxed);
  st.restarts = s.restarts.load(std::memory_order_relaxed);
  st.fidelity = s.fidelity.load(std::memory_order_relaxed);
  st.stalled = s.stall_flagged.load(std::memory_order_relaxed);
  st.closed = s.closed.load(std::memory_order_acquire);
  st.finished = s.finished.load(std::memory_order_acquire);
  st.latency = s.latency.snapshot();
  return st;
}

Engine::EngineStats Engine::stats() const {
  EngineStats st;
  st.sessions = m_.sessions_opened.value();
  st.sessions_finished = m_.sessions_finished.value();
  st.chunks_in = m_.chunks_in.value();
  st.samples_in = m_.samples_in.value();
  st.chunks_dropped = m_.chunks_dropped.value();
  st.samples_dropped = m_.samples_dropped.value();
  st.chunks_rejected = m_.chunks_rejected.value();
  st.samples_rejected = m_.samples_rejected.value();
  st.samples_processed = m_.samples_processed.value();
  st.samples_lost = m_.samples_lost.value();
  st.events_out = m_.events.value();
  st.stalls = m_.stalls.value();
  st.timeouts = m_.timeouts.value();
  st.restarts = m_.restarts.value();
  st.overload_transitions = m_.overload_transitions.value();
  const std::size_t n = session_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    st.columns_out +=
        sessions_[i]->columns_out.load(std::memory_order_relaxed);
    st.bits_out += sessions_[i]->bits_out.load(std::memory_order_relaxed);
  }
  const plan::Stats ps = plan::registry().stats();
  st.plan_hits = ps.hits;
  st.plan_misses = ps.misses;
  st.plan_builds = ps.builds;
  st.plan_resident_plans = ps.resident_plans;
  st.plan_resident_bytes = ps.resident_bytes;
  st.ingress_wait = m_.ingress_wait_ns.snapshot();
  st.chunk_latency = m_.chunk_latency_ns.snapshot();
  // Network-ingress mirror: a net::Receiver constructed with this
  // engine's registry() interns the wivi_net_* family there; reading it
  // back by name keeps rt free of a compile-time dependency on net.
  const obs::Snapshot reg = registry_.snapshot();
  st.net_frames_in = reg.counter_value("wivi_net_frames_in_total");
  st.net_frames_accepted = reg.counter_value("wivi_net_frames_accepted_total");
  st.net_frames_rejected = reg.counter_value("wivi_net_frames_rejected_total");
  st.net_frames_dup = reg.counter_value("wivi_net_frames_dup_total");
  st.net_frames_evicted = reg.counter_value("wivi_net_frames_evicted_total");
  st.net_frames_in_flight = reg.counter_value("wivi_net_frames_in_flight");
  st.net_chunks_delivered = reg.counter_value("wivi_net_chunks_delivered_total");
  st.net_chunk_gaps = reg.counter_value("wivi_net_chunk_gaps_total");
  st.net_ring_full_drops = reg.counter_value("wivi_net_ring_full_drops_total");
  st.net_bytes_in = reg.counter_value("wivi_net_bytes_in_total");
  return st;
}

obs::Snapshot Engine::snapshot() const {
  obs::Snapshot snap = registry_.snapshot();
  snap.source = "wivi::rt::Engine";
  // Ring cursor sums and per-session output sums, aggregated on read —
  // the rings count for themselves, so recording costs the hot path
  // nothing (the PR-6 counters unified behind the obs naming scheme).
  std::uint64_t pushes = 0, pops = 0, drops = 0, columns = 0, bits = 0;
  const std::size_t n = session_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const Session& s = *sessions_[i];
    pushes += s.ring.pushes();
    pops += s.ring.pops();
    drops += s.ring.drops();
    columns += s.columns_out.load(std::memory_order_relaxed);
    bits += s.bits_out.load(std::memory_order_relaxed);
  }
  snap.add_counter("wivi_ring_pushes_total", pushes);
  snap.add_counter("wivi_ring_pops_total", pops);
  snap.add_counter("wivi_ring_drops_total", drops);
  snap.add_counter("wivi_engine_columns_total", columns);
  snap.add_counter("wivi_engine_bits_total", bits);
  // Shared-plan registry: process-wide table counters plus the residency
  // gauges (counters and gauges share the scalar slot; see obs::Snapshot).
  const plan::Stats ps = plan::registry().stats();
  snap.add_counter("wivi_plan_hits_total", ps.hits);
  snap.add_counter("wivi_plan_misses_total", ps.misses);
  snap.add_counter("wivi_plan_builds_total", ps.builds);
  snap.add_counter("wivi_plan_resident_plans", ps.resident_plans);
  snap.add_counter("wivi_plan_resident_bytes", ps.resident_bytes);
  return snap;
}

void Engine::write_snapshot(std::ostream& os, obs::ExportFormat format) const {
  obs::write_snapshot(os, snapshot(), format);
}

void Engine::write_trace(std::ostream& os) const {
  std::vector<obs::TraceTrack> tracks;
  const std::size_t n = session_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const Session& s = *sessions_[i];
    if (!s.pipeline || s.pipeline->observer().trace().capacity() == 0)
      continue;
    tracks.push_back({static_cast<int>(s.id), "wivi session",
                      s.pipeline->observer().trace().records()});
  }
  obs::write_chrome_trace(os, tracks);
}

const api::Session& Engine::pipeline(SessionId id) const {
  return *session(id).pipeline;
}

const track::MultiTargetTracker& Engine::multi_tracker(SessionId id) const {
  return session(id).pipeline->multi_tracker();
}

void Engine::drain() {
  const std::size_t n = session_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    // A fatal watchdog is the one other way a session is guaranteed to
    // resolve: its timeout turns an absent feeder into a terminal
    // ErrorEvent(kTimeout), so waiting on it cannot hang.
    const Session& s = *sessions_[i];
    WIVI_REQUIRE(s.closed.load(std::memory_order_acquire) ||
                     s.finished.load(std::memory_order_acquire) ||
                     (s.ingest.watchdog.stall_timeout_sec > 0.0 &&
                      s.ingest.watchdog.timeout_is_fatal),
                 "drain() with a session still open would never return");
  }
  for (;;) {
    bool all_finished = true;
    for (std::size_t i = 0; i < n && all_finished; ++i)
      all_finished = sessions_[i]->finished.load(std::memory_order_acquire);
    if (all_finished) return;
    wake_workers();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Engine::wake_workers() noexcept { wake_cv_.notify_all(); }

void Engine::worker_loop(int wid) {
  const auto stride = static_cast<std::size_t>(num_threads_);
  while (!stop_.load(std::memory_order_acquire)) {
    const std::size_t n = session_count_.load(std::memory_order_acquire);
    bool did_work = false;
    // Own shard first: sessions are distributed id mod thread count so the
    // common case is contention-free.
    for (std::size_t s = static_cast<std::size_t>(wid); s < n; s += stride)
      did_work |= try_process(*sessions_[s]);
    if (!did_work) {
      // Shard idle: steal one batch from any session with pending work.
      for (std::size_t s = 0; s < n && !did_work; ++s)
        if (s % stride != static_cast<std::size_t>(wid))
          did_work = try_process(*sessions_[s]);
    }
    if (!did_work) {
      // Nothing anywhere: sleep briefly. The timeout bounds the window of
      // a missed notify (offer() notifies without taking wake_mu_).
      std::unique_lock lk(wake_mu_);
      wake_cv_.wait_for(lk, std::chrono::microseconds(200));
    }
  }
}

bool Engine::try_process(Session& s) {
  if (s.finished.load(std::memory_order_acquire)) return false;
  const std::int64_t now = now_ns();
  // Restart-backoff gate: a freshly re-armed session rests until its
  // resume instant — the engine-side pause that keeps a crash-looping
  // pipeline from burning a worker.
  if (s.resume_at_ns.load(std::memory_order_acquire) > now) return false;
  // Cheap pre-check before contending on the claim flag. An idle session
  // is still claimed when its watchdog may be due — silence is exactly
  // what the watchdog exists to observe — or when a periodic StatsEvent
  // emission is due.
  bool idle_tick = false;
  if (s.ring.empty() && !s.closed.load(std::memory_order_acquire)) {
    const double timeout = s.ingest.watchdog.stall_timeout_sec;
    const std::int64_t silent =
        now - s.last_activity_ns.load(std::memory_order_relaxed);
    const bool advisory_due = timeout > 0.0 && silent >= sec_to_ns(timeout) &&
                              !s.stall_flagged.load(std::memory_order_relaxed);
    const bool fatal_due = timeout > 0.0 &&
                           s.ingest.watchdog.timeout_is_fatal &&
                           silent >= 2 * sec_to_ns(timeout);
    const bool stats_due =
        s.ingest.stats_interval_sec > 0.0 &&
        now >= s.next_stats_ns.load(std::memory_order_relaxed);
    if (!advisory_due && !fatal_due && !stats_due) return false;
    idle_tick = true;
  }
  if (s.busy.exchange(true, std::memory_order_acquire)) return false;
  // Re-check under the claim: the pre-claim read can go stale if another
  // worker fails or finalises the session between the two lines, and a
  // dead session must never be processed again — popping its ring or
  // delivering further events (a second ErrorEvent, say) for an id the
  // consumer already saw die would corrupt the per-session event
  // contract. All finished-transitions happen under the claim flag, so
  // this second read is authoritative.
  if (s.finished.load(std::memory_order_acquire)) {
    s.busy.store(false, std::memory_order_release);
    return false;
  }

  // An exception from a pipeline stage (WIVI_REQUIRE on pathological
  // input) or from a throwing user callback must not escape the worker
  // thread — that would std::terminate the whole service. It fails this
  // session only: the pipeline delivers its own ErrorEvent on the way
  // out, and handle_failure() either re-arms the session under its
  // RestartPolicy or marks it finished so drain() still returns.
  bool did_work = false;
  try {
    if (idle_tick) {
      if (s.ingest.watchdog.stall_timeout_sec > 0.0) check_watchdog(s, now);
      if (!s.finished.load(std::memory_order_relaxed))
        maybe_emit_stats(s, now);
      did_work = true;
    } else {
      Ingested in;
      for (int i = 0; i < cfg_.chunks_per_claim && s.ring.try_pop(in); ++i) {
        // Ring wait: how long the chunk sat between offer() and this pop.
        const std::int64_t popped = now_ns();
        if (popped > in.ingress_ns)
          m_.ingress_wait_ns.record(
              static_cast<std::uint64_t>(popped - in.ingress_ns));
        try {
          process_chunk(s, in.samples, in.ingress_ns);
        } catch (const TypedError& e) {
          // InputGuard rejection: by contract a no-op for the pipeline —
          // the session stays healthy, the malformed chunk is only counted.
          if (e.code() != ErrorCode::kInvalidChunk) throw;
        }
        check_overload(s);
        in.samples.clear();
        did_work = true;
      }
      if (did_work) maybe_emit_stats(s, now_ns());
      // Finalise only once the close flag is up AND the ring is empty; the
      // acquire on `closed` makes every pre-close push visible, so an
      // empty ring here really is the end of the stream.
      if (!did_work && s.closed.load(std::memory_order_acquire) &&
          s.ring.empty() && !s.finished.load(std::memory_order_relaxed)) {
        finalize(s);
        did_work = true;
      }
    }
  } catch (const TypedError& e) {
    handle_failure(s, e.code(), e.what());
    did_work = true;
  } catch (const std::exception& e) {
    handle_failure(s, ErrorCode::kStageFailure, e.what());
    did_work = true;
  } catch (...) {
    handle_failure(s, ErrorCode::kStageFailure, "unknown exception");
    did_work = true;
  }
  s.busy.store(false, std::memory_order_release);
  return did_work;
}

/// Push one chunk through the session's pipeline and keep the
/// conservation counters: a processed chunk's samples count as processed,
/// a chunk the InputGuard rejects as rejected, a chunk dying in a stage
/// or the sink as lost. Every exception propagates after it is counted —
/// a rejection too; the caller decides whether that one is terminal.
void Engine::process_chunk(Session& s, CSpan chunk, std::int64_t ingress_ns,
                           int num_threads) {
  // The pipeline emits every event itself (through the session sink
  // installed at arm time); the engine only maintains the counters. The
  // counter is synced even when event delivery throws mid-chunk: the
  // image columns were completed before delivery started, and some may
  // already have reached the consumer.
  try {
    s.pipeline->push(chunk, num_threads);
  } catch (const TypedError& e) {
    s.columns_out.store(s.columns_base + s.pipeline->columns_seen(),
                        std::memory_order_relaxed);
    if (e.code() == ErrorCode::kInvalidChunk) {
      s.chunks_rejected.fetch_add(1, std::memory_order_relaxed);
      s.samples_rejected.fetch_add(chunk.size(), std::memory_order_relaxed);
      m_.chunks_rejected.add();
      m_.samples_rejected.add(chunk.size());
    } else {
      m_.samples_lost.add(chunk.size());
    }
    throw;
  } catch (...) {
    s.columns_out.store(s.columns_base + s.pipeline->columns_seen(),
                        std::memory_order_relaxed);
    m_.samples_lost.add(chunk.size());
    throw;
  }
  s.columns_out.store(s.columns_base + s.pipeline->columns_seen(),
                      std::memory_order_relaxed);
  m_.samples_processed.add(chunk.size());
  // End-to-end chunk latency: offer() to fully processed (events
  // delivered). Engine-wide and per-session (the StatsEvent payload).
  const std::int64_t done = now_ns();
  if (done > ingress_ns) {
    const auto lat = static_cast<std::uint64_t>(done - ingress_ns);
    m_.chunk_latency_ns.record(lat);
    s.latency.record(lat);
  }
}

/// The degradation ladder (runs under the claim flag, after each processed
/// chunk): trip down to the coarse angle grid once enough chunks drowned
/// since the last transition, climb back to full fidelity only after a
/// hysteresis window of drop-free processing.
void Engine::check_overload(Session& s) {
  const OverloadPolicy& op = s.ingest.overload;
  if (!op.degrade) return;
  const std::uint64_t drops = s.chunks_dropped.load(std::memory_order_relaxed);
  const std::uint64_t fresh = drops - s.drops_acked;
  const bool degraded = s.fidelity.load(std::memory_order_relaxed) > 1;
  if (!degraded) {
    if (fresh < op.degrade_after_drops) return;
    s.pipeline->set_fidelity(op.degraded_fidelity);
    s.fidelity.store(op.degraded_fidelity, std::memory_order_relaxed);
  } else if (fresh > 0) {
    s.drops_acked = drops;  // still drowning: restart the clean window
    s.clean_chunks = 0;
    return;
  } else if (++s.clean_chunks < op.restore_after_chunks) {
    return;
  } else {
    s.pipeline->set_fidelity(1);
    s.fidelity.store(1, std::memory_order_relaxed);
  }
  s.drops_acked = drops;
  s.clean_chunks = 0;
  m_.overload_transitions.add();
  deliver({s.id,
           api::OverloadEvent{
               !degraded, s.fidelity.load(std::memory_order_relaxed), drops,
               s.samples_dropped.load(std::memory_order_relaxed)}});
}

/// Watchdog tick for an idle session (runs under the claim flag): one
/// advisory StalledEvent per silence, then — at twice the deadline, when the
/// timeout is fatal — a terminal ErrorEvent of ErrorCode::kTimeout.
void Engine::check_watchdog(Session& s, std::int64_t now) {
  const std::int64_t deadline = sec_to_ns(s.ingest.watchdog.stall_timeout_sec);
  const std::int64_t silent =
      now - s.last_activity_ns.load(std::memory_order_relaxed);
  if (silent < deadline) return;  // fed between pre-check and claim
  if (s.ingest.watchdog.timeout_is_fatal && silent >= 2 * deadline) {
    m_.timeouts.add();
    fail_session(s, ErrorCode::kTimeout,
                 "watchdog: feeder silent past twice the liveness deadline");
    return;
  }
  if (s.stall_flagged.exchange(true, std::memory_order_relaxed)) return;
  m_.stalls.add();
  deliver({s.id,
           api::StalledEvent{static_cast<double>(silent) * 1e-9,
                             s.chunks_in.load(std::memory_order_relaxed)}});
}

/// Periodic per-session telemetry (runs under the claim flag): one
/// StatsEvent carrying the session's SessionStats, at most once per
/// stats_interval_sec.
void Engine::maybe_emit_stats(Session& s, std::int64_t now) {
  if (s.ingest.stats_interval_sec <= 0.0) return;
  if (now < s.next_stats_ns.load(std::memory_order_relaxed)) return;
  s.next_stats_ns.store(now + sec_to_ns(s.ingest.stats_interval_sec),
                        std::memory_order_relaxed);
  emit_stats(s);
}

void Engine::emit_stats(Session& s) {
  const SessionStats st = stats(s.id);
  deliver({s.id, api::StatsEvent{st.chunks_in, st.samples_in,
                                 st.chunks_dropped, st.samples_dropped,
                                 st.chunks_rejected, st.samples_rejected,
                                 st.columns_out, st.bits_out, st.restarts,
                                 st.fidelity, st.stalled, st.latency}});
}

void Engine::finalize(Session& s) {
  // Final flush + FinishedEvent via the sink (which puts the closing
  // StatsEvent in front of it when periodic stats are on).
  s.pipeline->finish();
  s.columns_out.store(s.columns_base + s.pipeline->columns_seen(),
                      std::memory_order_relaxed);
  s.finished.store(true, std::memory_order_release);
  m_.sessions_finished.add();
}

/// A pipeline (or engine-side delivery) failure under the claim flag:
/// either re-arm the session under its RestartPolicy — a RecoveredEvent
/// follows the failure's ErrorEvent, processing resumes after the backoff —
/// or let the failure be terminal via fail_session().
void Engine::handle_failure(Session& s, ErrorCode code,
                            const char* what) noexcept {
  const RestartPolicy& rp = s.ingest.restart;
  const int used = s.restarts.load(std::memory_order_relaxed);
  if (used >= rp.max_restarts) {
    fail_session(s, code, what);
    return;
  }
  // Re-arm: a fresh pipeline (same spec, same sink/hook/fidelity wiring)
  // continues consuming the ring. The dead pipeline already delivered its
  // own ErrorEvent; the RecoveredEvent below tells the consumer the session
  // lives on. If re-compilation itself throws, the restart is abandoned
  // and the failure becomes terminal.
  try {
    s.columns_base += s.pipeline->columns_seen();
    s.arm_pipeline(this);
  } catch (...) {
    fail_session(s, code, what);
    return;
  }
  const int r = used + 1;
  s.restarts.store(r, std::memory_order_relaxed);
  m_.restarts.add();
  if (rp.backoff_sec > 0.0) {
    const double scale = static_cast<double>(std::uint64_t{1} << (r - 1));
    s.resume_at_ns.store(now_ns() + sec_to_ns(rp.backoff_sec * scale),
                         std::memory_order_release);
  }
  try {
    deliver({s.id, api::RecoveredEvent{r, code, what}});
  } catch (...) {
    // The callback threw again (or allocation failed): the RecoveredEvent
    // is lost but the session is restarted all the same.
  }
}

void Engine::fail_session(Session& s, ErrorCode code,
                          const char* what) noexcept {
  // Lifecycle guard (belt to try_process's braces): a session that is
  // already dead — it failed or finalised earlier — must not emit another
  // ErrorEvent. Callers hold the claim flag, so this read cannot race a
  // concurrent transition.
  if (s.finished.load(std::memory_order_acquire)) return;
  // The pipeline delivers its own ErrorEvent (through the session sink)
  // when one of its stages or the sink threw; only engine-side failures
  // outside the pipeline still need one here.
  if (!s.pipeline || !s.pipeline->failed()) {
    try {
      deliver({s.id, api::ErrorEvent{what, code}});
    } catch (...) {
      // The callback threw again (or allocation failed): the error event
      // is lost but the session still dies cleanly.
    }
  }
  // Chunks still queued behind a terminal failure will never be popped:
  // count their samples as lost so the engine-wide conservation law
  // (samples_in == processed + dropped + rejected + lost) stays exact.
  // Callers hold the claim flag, so draining the consumer side is safe.
  Ingested in;
  while (s.ring.try_pop(in)) m_.samples_lost.add(in.samples.size());
  s.finished.store(true, std::memory_order_release);
  m_.sessions_finished.add();
}

}  // namespace wivi::rt
