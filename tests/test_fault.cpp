// wivi::fault — deterministic fault injection and input hardening: the
// FaultyFeeder's bit-reproducibility and exact-index fault scripting, the
// Session::push InputGuard property/fuzz pass (malformed chunks are typed,
// isolated no-ops), and the seeded multi-session chaos run (faulted
// sessions end in typed terminal states, clean sessions stay bit-identical
// to a no-fault run). The chaos seed is WIVI_CHAOS_SEED when set — the CI
// `chaos` job sweeps several seeds under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "src/api/session.hpp"
#include "src/common/random.hpp"
#include "src/fault/fault.hpp"
#include "src/rt/engine.hpp"
#include "src/sim/feeder.hpp"
#include "src/sim/synthetic.hpp"

namespace wivi {
namespace {

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("WIVI_CHAOS_SEED"))
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  return 1;
}

/// A ChunkedTrace over a cheap synthetic mover stream (no room sim).
sim::ChunkedTrace make_feed(std::size_t samples, std::uint64_t seed,
                            std::size_t chunk_len) {
  sim::TraceResult tr;
  tr.h = sim::synthetic_mover_trace(samples, seed, 0.4);
  tr.sample_rate_hz = 312.5;
  return sim::ChunkedTrace(std::move(tr), chunk_len);
}

/// Bitwise chunk-stream equality — corrupted chunks carry NaN, where
/// operator== is useless (NaN != NaN) but bit-reproducibility still holds.
void expect_streams_bitwise_equal(const std::vector<CVec>& a,
                                  const std::vector<CVec>& b,
                                  const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << label << ": chunk " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(),
                          a[i].size() * sizeof(cdouble)),
              0)
        << label << ": chunk " << i;
  }
}

bool chunk_is_finite(const CVec& c) {
  return std::all_of(c.begin(), c.end(), [](const cdouble& z) {
    return std::isfinite(z.real()) && std::isfinite(z.imag());
  });
}

// ------------------------------------------------------ feeder determinism ---

TEST(FaultyFeeder, BitReproduciblePerSeedAndAcrossRewind) {
  FaultSpec spec;
  spec.seed = chaos_seed();
  spec.drop_prob = 0.1;
  spec.duplicate_prob = 0.1;
  spec.reorder_prob = 0.1;
  spec.truncate_prob = 0.1;
  spec.corrupt_prob = 0.1;
  spec.gap_prob = 0.05;
  spec.silence_chunks = 2;

  const auto replay = [&](fault::FaultyFeeder& f) {
    std::vector<int> actions;
    std::vector<CVec> chunks;
    CVec c;
    for (;;) {
      const fault::FaultAction a = f.next(c);
      actions.push_back(static_cast<int>(a));
      if (a == fault::FaultAction::kEnd) break;
      if (a == fault::FaultAction::kDeliver) chunks.push_back(c);
    }
    return std::make_pair(std::move(actions), std::move(chunks));
  };

  fault::FaultyFeeder a(make_feed(4096, 42, 64), spec);
  fault::FaultyFeeder b(make_feed(4096, 42, 64), spec);
  const auto [actions_a, chunks_a] = replay(a);
  const auto [actions_b, chunks_b] = replay(b);
  EXPECT_EQ(actions_a, actions_b);
  expect_streams_bitwise_equal(chunks_a, chunks_b, "same seed");
  EXPECT_EQ(a.stats().delivered, b.stats().delivered);
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);

  // rewind() replays the exact same faulted stream.
  a.rewind();
  const auto [actions_r, chunks_r] = replay(a);
  EXPECT_EQ(actions_r, actions_a);
  expect_streams_bitwise_equal(chunks_r, chunks_a, "rewind");

  // A different seed produces a different plan (with these probabilities
  // a 64-chunk stream colliding by chance is ~impossible).
  FaultSpec other = spec;
  other.seed = spec.seed + 1;
  fault::FaultyFeeder d(make_feed(4096, 42, 64), other);
  const auto [actions_d, chunks_d] = replay(d);
  EXPECT_NE(actions_a, actions_d);

  // The injection counters reconcile with the source and the output.
  EXPECT_EQ(a.source_index(), 4096u / 64u);
  EXPECT_EQ(a.stats().delivered,
            a.source_index() - a.stats().dropped + a.stats().duplicated);
}

TEST(FaultyFeeder, ZeroSpecIsAPassThrough) {
  fault::FaultyFeeder f(make_feed(1024, 7, 100), FaultSpec{});
  const CVec& truth = f.trace().trace().h;
  CVec all;
  CVec c;
  fault::FaultAction a;
  while ((a = f.next(c)) == fault::FaultAction::kDeliver)
    all.insert(all.end(), c.begin(), c.end());
  EXPECT_EQ(a, fault::FaultAction::kEnd);
  EXPECT_EQ(all, truth);
  EXPECT_EQ(f.stats().delivered, 11u);  // ceil(1024 / 100)
  EXPECT_EQ(f.stats().dropped + f.stats().duplicated + f.stats().reordered +
                f.stats().truncated + f.stats().corrupted + f.stats().gaps,
            0u);
}

TEST(FaultyFeeder, ScriptedFaultsFireAtExactChunkIndices) {
  FaultSpec spec;
  spec.drop_at = {2};
  spec.corrupt_at = {4};
  spec.silence_at = {1};
  spec.silence_chunks = 3;
  spec.end_at = 8;
  fault::FaultyFeeder f(make_feed(1280, 9, 64), spec);  // 20 source chunks

  const CVec& truth = f.trace().trace().h;
  std::size_t gaps_seen = 0;
  std::vector<CVec> delivered;
  CVec c;
  for (;;) {
    const fault::FaultAction a = f.next(c);
    if (a == fault::FaultAction::kEnd) break;
    if (a == fault::FaultAction::kGap) {
      ++gaps_seen;
      // The scripted gap opens before chunk 1: exactly one delivery
      // (chunk 0) has happened when the silence starts.
      EXPECT_EQ(delivered.size(), 1u);
      continue;
    }
    delivered.push_back(c);
  }
  // end_at=8 cuts the stream to source chunks 0..7; chunk 2 is dropped.
  ASSERT_EQ(delivered.size(), 7u);
  EXPECT_EQ(gaps_seen, 3u);
  EXPECT_EQ(f.stats().dropped, 1u);
  EXPECT_EQ(f.stats().corrupted, 1u);

  // Each surviving chunk equals the ground-truth slice — except index 4,
  // which must carry the scripted NaN/Inf burst.
  const std::size_t sources[] = {0, 1, 3, 4, 5, 6, 7};
  for (std::size_t k = 0; k < delivered.size(); ++k) {
    const std::size_t i = sources[k];
    const CVec slice(truth.begin() + static_cast<std::ptrdiff_t>(i * 64),
                     truth.begin() + static_cast<std::ptrdiff_t>((i + 1) * 64));
    if (i == 4) {
      EXPECT_FALSE(chunk_is_finite(delivered[k])) << "chunk 4 not corrupted";
      EXPECT_EQ(delivered[k].size(), slice.size());
    } else {
      EXPECT_EQ(delivered[k], slice) << "source chunk " << i;
    }
  }
}

// -------------------------------------------- InputGuard property / fuzz ---

api::PipelineSpec guarded_spec() {
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.count = api::CountStage{};
  return spec;
}

TEST(InputGuard, MalformedChunksAreTypedIsolatedNoOps) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  api::PipelineSpec spec = guarded_spec();
  spec.guard.max_chunk_samples = 4096;
  spec.guard.frame_samples = 8;
  api::Session session(spec);

  const CVec h = sim::synthetic_mover_trace(1024, 11, 0.4);
  session.push(CSpan(h).subspan(0, 512));
  const std::size_t samples_before = session.samples_seen();
  const std::size_t columns_before = session.columns_seen();

  const auto expect_rejected = [&](CVec bad, const char* label) {
    try {
      session.push(bad);
      FAIL() << label << ": malformed chunk was accepted";
    } catch (const TypedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidChunk) << label;
    }
    // Isolation: the rejection mutated nothing and the session is open.
    EXPECT_FALSE(session.finished()) << label;
    EXPECT_FALSE(session.failed()) << label;
    EXPECT_EQ(session.error_code(), ErrorCode::kNone) << label;
    EXPECT_EQ(session.samples_seen(), samples_before) << label;
    EXPECT_EQ(session.columns_seen(), columns_before) << label;
  };

  expect_rejected(CVec{}, "empty");
  expect_rejected(CVec(12, cdouble(1.0, 0.0)), "frame-misaligned");
  expect_rejected(CVec(8192, cdouble(1.0, 0.0)), "oversized");
  CVec poisoned(16, cdouble(1.0, 0.0));
  poisoned[9] = cdouble(kNan, 0.0);
  expect_rejected(poisoned, "NaN");
  poisoned[9] = cdouble(0.0, std::numeric_limits<double>::infinity());
  expect_rejected(poisoned, "Inf");

  // The session continues exactly where it left off: finishing the stream
  // is bit-identical to a session that never saw the malformed chunks.
  session.push(CSpan(h).subspan(512, 512));
  session.finish();
  api::Session clean(spec);
  clean.run(h);
  ASSERT_EQ(session.columns_seen(), clean.columns_seen());
  EXPECT_EQ(session.image().columns, clean.image().columns);
  EXPECT_EQ(session.spatial_variance(), clean.spatial_variance());
}

TEST(InputGuard, SeededFuzzNeverKillsTheSessionOrPerturbsTheStream) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  api::PipelineSpec spec = guarded_spec();
  spec.guard.max_chunk_samples = 512;
  api::Session fuzzed(spec);
  api::Session clean(spec);

  const CVec h = sim::synthetic_mover_trace(2048, 13, 0.4);
  Rng rng(chaos_seed() * 977 + 3);
  std::size_t pos = 0;
  std::size_t rejected = 0;
  while (pos < h.size()) {
    if (rng() % 3 == 0) {
      // One malformed chunk of a random flavour; must be a typed no-op.
      CVec bad;
      switch (rng() % 4) {
        case 0:
          break;  // empty
        case 1:
          bad.assign(513 + rng() % 512, cdouble(0.5, 0.5));  // oversized
          break;
        case 2:
          bad.assign(1 + rng() % 64, cdouble(1.0, 0.0));
          bad[rng() % bad.size()] = cdouble(kNan, 0.0);
          break;
        default:
          bad.assign(1 + rng() % 64, cdouble(1.0, 0.0));
          bad[rng() % bad.size()] = cdouble(kInf, -kInf);
          break;
      }
      try {
        fuzzed.push(bad);
        FAIL() << "malformed chunk accepted at pos " << pos;
      } catch (const TypedError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidChunk);
        ++rejected;
      }
      ASSERT_FALSE(fuzzed.failed());
      continue;
    }
    const std::size_t len = std::min<std::size_t>(1 + rng() % 256,
                                                  h.size() - pos);
    const CSpan chunk = CSpan(h).subspan(pos, len);
    fuzzed.push(chunk);
    clean.push(chunk);
    pos += len;
  }
  EXPECT_GE(rejected, 1u) << "fuzz loop never generated a malformed chunk";
  fuzzed.finish();
  clean.finish();
  ASSERT_EQ(fuzzed.columns_seen(), clean.columns_seen());
  EXPECT_EQ(fuzzed.image().columns, clean.image().columns);
  EXPECT_EQ(fuzzed.spatial_variance(), clean.spatial_variance());
}

TEST(InputGuard, CheckFiniteOffAdmitsNonFiniteAndRecordedRunsAreGuarded) {
  // check_finite=false: the scan is skipped (pre-validated replay mode).
  api::PipelineSpec spec = guarded_spec();
  spec.guard.check_finite = false;
  api::Session session(spec);
  CVec odd(64, cdouble(1.0, 0.0));
  odd[3] = cdouble(std::numeric_limits<double>::quiet_NaN(), 0.0);
  EXPECT_NO_THROW(session.push(odd));

  // A multi-threaded batch run is a push like any other: same boundary.
  api::Session parallel(guarded_spec());
  CVec bad = sim::synthetic_mover_trace(1024, 5, 0.4);
  bad[700] = cdouble(0.0, std::numeric_limits<double>::infinity());
  try {
    parallel.run(bad, 2);
    FAIL() << "non-finite recorded trace was accepted";
  } catch (const TypedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidChunk);
  }
  EXPECT_FALSE(parallel.failed()) << "a rejected trace must not poison";
  EXPECT_EQ(parallel.stats().chunks_rejected, 1u);
  EXPECT_EQ(parallel.stats().chunks_in, 0u);
}

// ------------------------------------------------------- multi-session chaos ---

/// The acceptance chaos run: 8 concurrent engine sessions — 4 clean, and
/// one each of chunk-drop+corruption, scripted stage throw (terminal),
/// scripted throw under a RestartPolicy (recovers), and feeder death
/// resolved by a fatal watchdog. Every faulted session must end in a
/// typed terminal state and the clean sessions must stay bit-identical
/// to a standalone no-fault pass.
TEST(Chaos, EightSessionsFaultedSessionsDieTypedCleanSessionsBitIdentical) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kChunk = 64;
  const std::uint64_t seed = chaos_seed();

  std::vector<CVec> traces;
  for (std::size_t s = 0; s < kSessions; ++s)
    traces.push_back(sim::synthetic_mover_trace(
        1536, 100 * seed + s, 0.3 + 0.05 * static_cast<double>(s)));

  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.count = api::CountStage{};

  rt::Engine::Config ec;
  ec.num_threads = 4;
  rt::Engine engine(ec);

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    rt::IngestConfig ingest;
    ingest.backpressure = rt::Backpressure::kBlock;
    if (s == 5) ingest.fault_hook = fault::throw_hook({7});  // terminal
    if (s == 6) {
      ingest.fault_hook = fault::throw_hook({5});
      ingest.restart.max_restarts = 2;  // recovers
    }
    if (s == 7) {
      ingest.watchdog.stall_timeout_sec = 0.15;  // feeder dies mid-trace
      ingest.watchdog.timeout_is_fatal = true;
    }
    ids.push_back(engine.open_session(spec, std::move(ingest)));
  }

  // Session 4's feed goes through a seeded drop+corrupt fault plan; the
  // corrupted chunks must bounce off the InputGuard, not kill anything.
  FaultSpec fs;
  fs.seed = seed;
  fs.drop_prob = 0.15;
  fs.corrupt_prob = 0.15;
  sim::TraceResult tr4;
  tr4.h = traces[4];
  tr4.sample_rate_hz = 312.5;
  fault::FaultyFeeder feeder4(sim::ChunkedTrace(std::move(tr4), kChunk), fs);

  // Round-robin all eight feeders like concurrent sensors.
  std::vector<std::size_t> pos(kSessions, 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (s == 4) {
        CVec c;
        for (;;) {
          const fault::FaultAction a = feeder4.next(c);
          if (a == fault::FaultAction::kGap) continue;  // silent period
          if (a == fault::FaultAction::kDeliver) {
            engine.offer(ids[4], std::move(c));
            any = true;
          }
          break;
        }
        continue;
      }
      if (pos[s] >= traces[s].size()) continue;
      // Session 7's feeder dies halfway through the trace.
      if (s == 7 && pos[s] >= traces[s].size() / 2) continue;
      const std::size_t len = std::min(kChunk, traces[s].size() - pos[s]);
      CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos[s]),
             traces[s].begin() + static_cast<std::ptrdiff_t>(pos[s] + len));
      engine.offer(ids[s], std::move(c));
      pos[s] += len;
      any = true;
    }
  }
  for (std::size_t s = 0; s < kSessions; ++s)
    if (s != 7) engine.close_session(ids[s]);  // 7 resolves via watchdog
  engine.drain();

  std::vector<rt::Event> events;
  engine.poll(events);
  const auto last_of = [&](rt::SessionId id) -> const api::Event& {
    const rt::Event* last = nullptr;
    for (const rt::Event& e : events)
      if (e.session == id) last = &e;
    EXPECT_NE(last, nullptr);
    return last->event;
  };
  const auto finished = [&](rt::SessionId id) {
    return std::holds_alternative<api::FinishedEvent>(last_of(id));
  };
  const auto terminal_error = [&](rt::SessionId id) {
    const auto* err = std::get_if<api::ErrorEvent>(&last_of(id));
    return err ? err->code : ErrorCode::kNone;
  };

  // Clean sessions: bit-identical to a standalone no-fault pass.
  for (std::size_t s = 0; s < 4; ++s) {
    api::Session reference(spec);
    reference.run(traces[s]);
    const auto& img = engine.pipeline(ids[s]).image();
    ASSERT_EQ(img.num_times(), reference.image().num_times()) << s;
    EXPECT_EQ(img.columns, reference.image().columns) << s;
    EXPECT_EQ(engine.pipeline(ids[s]).spatial_variance(),
              reference.spatial_variance())
        << s;
    EXPECT_TRUE(finished(ids[s])) << s;
    const auto st = engine.stats(ids[s]);
    EXPECT_EQ(st.chunks_dropped, 0u) << s;
    EXPECT_EQ(st.chunks_rejected, 0u) << s;
  }

  // Session 4 (drop + corrupt): survives, finishes, and every corrupted
  // chunk is accounted as an InputGuard rejection.
  {
    const auto st = engine.stats(ids[4]);
    EXPECT_TRUE(st.finished);
    EXPECT_TRUE(finished(ids[4]));
    EXPECT_EQ(st.chunks_rejected, feeder4.stats().corrupted);
  }

  // Session 5 (scripted throw, no restarts): terminal typed ErrorEvent.
  EXPECT_EQ(terminal_error(ids[5]), ErrorCode::kStageFailure);
  EXPECT_TRUE(engine.stats(ids[5]).finished);

  // Session 6 (scripted throw under RestartPolicy): ErrorEvent then
  // RecoveredEvent, then runs to a healthy FinishedEvent.
  {
    bool saw_error = false;
    bool saw_recovered_after_error = false;
    for (const rt::Event& e : events) {
      if (e.session != ids[6]) continue;
      if (std::holds_alternative<api::ErrorEvent>(e.event)) saw_error = true;
      const auto* rec = std::get_if<api::RecoveredEvent>(&e.event);
      if (rec && saw_error) {
        saw_recovered_after_error = true;
        EXPECT_EQ(rec->cause, ErrorCode::kStageFailure);
        EXPECT_EQ(rec->restarts, 1);
      }
    }
    EXPECT_TRUE(saw_recovered_after_error);
    EXPECT_TRUE(finished(ids[6]));
    EXPECT_EQ(engine.stats(ids[6]).restarts, 1);
  }

  // Session 7 (feeder death): the fatal watchdog resolves it with a
  // typed kTimeout terminal error.
  EXPECT_EQ(terminal_error(ids[7]), ErrorCode::kTimeout);
  EXPECT_TRUE(engine.stats(ids[7]).finished);
}

}  // namespace
}  // namespace wivi
