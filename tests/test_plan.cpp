// wivi::plan shared-plan registry: hash-consing, key canonicalization,
// clear(), concurrent acquisition, and bit-parity of registry-built
// artifacts against the direct builders. The last test is the headline
// acceptance check: a thousand sessions whose specs differ only in fields
// that must not reach a plan key build nothing and grow no table.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/api/session.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/dsp/fft.hpp"
#include "src/dsp/window.hpp"
#include "src/plan/registry.hpp"

namespace wivi {
namespace {

// ------------------------------------------------- local-registry helpers ---

struct DummyCtx {
  std::atomic<int>* builds = nullptr;
  int value = 0;
};

plan::Built build_dummy(void* raw) {
  auto* c = static_cast<DummyCtx*>(raw);
  if (c->builds != nullptr) c->builds->fetch_add(1, std::memory_order_relaxed);
  return {std::make_shared<const int>(c->value), sizeof(int)};
}

// Acquire the kOther artifact keyed by `id` from `reg`, building an int
// equal to `id` (and bumping `builds` when the builder actually runs).
std::shared_ptr<const int> acquire_dummy(plan::Registry& reg, std::uint64_t id,
                                         std::atomic<int>* builds = nullptr) {
  const std::uint64_t ints[1] = {id};
  const plan::KeyRef key{plan::Kind::kOther, ints, {}, {}};
  DummyCtx ctx{builds, static_cast<int>(id)};
  return std::static_pointer_cast<const int>(
      reg.acquire(key, build_dummy, &ctx));
}

// ----------------------------------------------------------- hash-consing ---

TEST(PlanRegistry, HashConsingReturnsTheSameHandle) {
  plan::Registry reg;
  std::atomic<int> builds{0};
  const auto a = acquire_dummy(reg, 42, &builds);
  const auto b = acquire_dummy(reg, 42, &builds);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(builds.load(), 1);
  const plan::Stats st = reg.stats();
  EXPECT_EQ(st.builds, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.resident_plans, 1u);
  EXPECT_EQ(st.resident_bytes, sizeof(int));
}

TEST(PlanRegistry, DistinctKeysGetDistinctArtifacts) {
  plan::Registry reg;
  const auto a = acquire_dummy(reg, 1);
  const auto b = acquire_dummy(reg, 2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
}

TEST(PlanRegistry, KindSeparatesEqualParameterLists) {
  // The same integer payload under different kinds must not collide.
  plan::Registry reg;
  const std::uint64_t ints[1] = {64};
  DummyCtx ctx{nullptr, 7};
  const auto a = reg.acquire(plan::KeyRef{plan::Kind::kOther, ints, {}, {}},
                             build_dummy, &ctx);
  const auto b = reg.acquire(plan::KeyRef{plan::Kind::kAngleGrid, ints, {}, {}},
                             build_dummy, &ctx);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(reg.stats().builds, 2u);
}

TEST(PlanRegistry, HashKeyIsDeterministicAndSectionSensitive) {
  const std::uint64_t ints[2] = {3, 5};
  const double reals[1] = {1.25};
  const plan::KeyRef k1{plan::Kind::kSteering, ints, reals, {}};
  const plan::KeyRef k2{plan::Kind::kSteering, ints, reals, {}};
  EXPECT_EQ(plan::hash_key(k1), plan::hash_key(k2));
  // Moving an element between sections changes the key.
  const plan::KeyRef k3{plan::Kind::kSteering, ints, {}, reals};
  EXPECT_NE(plan::hash_key(k1), plan::hash_key(k3));
}

// ------------------------------------------------------- canonicalization ---

TEST(PlanRegistry, EquivalentSpeedPeriodFactoringsShareOneSteeringTable) {
  // The steering key carries the derived spacing 2vT: doubling the speed
  // while halving the sample period is the same emulated array, so both
  // configs must resolve to one shared table.
  const RVec angles = core::angle_grid_deg(1.0);
  core::IsarConfig a;
  a.assumed_speed_mps = 1.0;
  core::IsarConfig b = a;
  b.assumed_speed_mps = 2.0;
  b.sample_period_sec = a.sample_period_sec / 2.0;
  ASSERT_EQ(core::element_spacing_m(a), core::element_spacing_m(b));

  const auto ta = core::acquire_steering(a, angles, 32, true);
  const auto tb = core::acquire_steering(b, angles, 32, true);
  EXPECT_EQ(ta.get(), tb.get());
}

TEST(PlanRegistry, DifferentGeometryGetsADifferentSteeringTable) {
  const RVec angles = core::angle_grid_deg(1.0);
  core::IsarConfig a;
  core::IsarConfig b = a;
  b.assumed_speed_mps = a.assumed_speed_mps * 1.5;  // different spacing
  const auto ta = core::acquire_steering(a, angles, 32, true);
  const auto tb = core::acquire_steering(b, angles, 32, true);
  EXPECT_NE(ta.get(), tb.get());
}

// -------------------------------------------------------------- bit-parity ---

TEST(PlanRegistry, SteeringTableMatchesTheDirectSteeringVector) {
  // Registry-built rows must equal steering_vector() bit for bit — the
  // refactor moved ownership, not numerics.
  const core::IsarConfig cfg;
  const RVec angles = core::angle_grid_deg(5.0);
  const std::size_t m = 32;
  const auto table = core::acquire_steering(cfg, angles, m, /*unit_norm=*/false);
  ASSERT_EQ(table->num_angles(), angles.size());
  ASSERT_EQ(table->length(), m);
  for (std::size_t ai = 0; ai < angles.size(); ++ai) {
    const CVec ref = core::steering_vector(cfg, angles[ai], m);
    const cdouble* const row = table->row(ai);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(row[i].real(), ref[i].real());
      EXPECT_EQ(row[i].imag(), ref[i].imag());
    }
  }
}

TEST(PlanRegistry, SharedWindowMatchesMakeWindow) {
  const RVec direct = dsp::make_window(dsp::WindowType::kHann, 64, true);
  const auto shared = dsp::acquire_window(dsp::WindowType::kHann, 64, true);
  EXPECT_EQ(*shared, direct);
}

TEST(PlanRegistry, SharedAngleGridMatchesAngleGridDeg) {
  const RVec direct = core::angle_grid_deg(2.0);
  const auto shared = core::acquire_angle_grid(2.0);
  EXPECT_EQ(*shared, direct);
}

// ------------------------------------------------------------ lifecycle ---

TEST(PlanRegistry, ClearDropsEverythingButHandlesStayValid) {
  plan::Registry reg;
  const auto held = acquire_dummy(reg, 5);
  reg.clear();
  const plan::Stats st = reg.stats();
  EXPECT_EQ(st.resident_plans, 0u);
  EXPECT_EQ(st.resident_bytes, 0u);
  EXPECT_EQ(st.hits + st.misses + st.builds, 0u);
  EXPECT_EQ(*held, 5);  // outstanding handles are unaffected
  // A fresh acquire after clear() builds from scratch.
  const auto again = acquire_dummy(reg, 5);
  EXPECT_EQ(*again, 5);
  EXPECT_EQ(reg.stats().builds, 1u);
}

TEST(PlanRegistry, ThrowingBuilderLeavesTheRegistryConsistent) {
  plan::Registry reg;
  const std::uint64_t ints[1] = {1};
  const plan::KeyRef key{plan::Kind::kOther, ints, {}, {}};
  const plan::BuildFn boom = [](void*) -> plan::Built {
    throw std::runtime_error("builder failed");
  };
  EXPECT_THROW((void)reg.acquire(key, boom, nullptr), std::runtime_error);
  EXPECT_EQ(reg.stats().resident_plans, 0u);
  // The same key still works with a working builder.
  std::atomic<int> builds{0};
  const auto ok = acquire_dummy(reg, 1, &builds);
  EXPECT_EQ(*ok, 1);
  EXPECT_EQ(builds.load(), 1);
}

// ------------------------------------------------------------ concurrency ---

TEST(PlanRegistry, ConcurrentAcquireBuildsExactlyOnce) {
  plan::Registry reg;
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const int>> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back(
          [&, t] { got[static_cast<std::size_t>(t)] = acquire_dummy(reg, 7, &builds); });
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(builds.load(), 1);
  for (const auto& h : got) {
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h.get(), got[0].get());
  }
}

TEST(PlanRegistry, ConcurrentMixedAcquiresStayConsistent) {
  plan::Registry reg;
  constexpr int kThreads = 8;
  std::atomic<bool> failed{false};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 200; ++i) {
          const auto id = static_cast<std::uint64_t>((t + i) % 12);
          const auto h = acquire_dummy(reg, id);
          if (h == nullptr || *h != static_cast<int>(id)) failed = true;
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_FALSE(failed.load());
  // Nothing is evicted: each of the 12 keys was built exactly once and
  // stays resident.
  const plan::Stats st = reg.stats();
  EXPECT_EQ(st.builds, 12u);
  EXPECT_EQ(st.misses, 12u);
  EXPECT_EQ(st.resident_plans, 12u);
  EXPECT_EQ(st.resident_bytes, 12 * sizeof(int));
}

// ------------------------------------------- end-to-end session acceptance ---

TEST(PlanRegistry, ThousandSessionsShareOneSetOfPlans) {
  // One warmup session makes every artifact the imaging geometry needs
  // resident.
  const api::PipelineSpec base;
  const auto warmup = std::make_unique<api::Session>(base);

  // The fleet keeps the imaging geometry and varies every other spec
  // field: none of them may reach a plan key. Nothing is evicted, so a
  // per-session value leaking into a key would grow the table with the
  // fleet.
  const plan::Stats before = plan::registry().stats();
  std::vector<std::unique_ptr<api::Session>> sessions;
  sessions.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    const auto u = static_cast<std::size_t>(i);
    api::PipelineSpec spec = base;
    spec.t0 = 0.37 * i;
    spec.image.emit_columns = i % 2 == 0;
    spec.guard.max_chunk_samples = 4096 + u;
    spec.guard.frame_samples = u % 4;
    spec.guard.check_finite = i % 3 != 0;
    spec.obs.timing = i % 5 != 0;
    spec.obs.trace_capacity = 16 * (u % 3);
    if (i % 2 == 1) spec.track.emplace();
    if (i % 3 == 1) spec.gesture.emplace();
    if (i % 4 != 0) spec.count = api::CountStage{40.0 + i % 20};
    sessions.push_back(std::make_unique<api::Session>(spec));
  }
  const plan::Stats after = plan::registry().stats();

  // Not a single plan was built again; every session hit the shared set.
  EXPECT_EQ(after.builds, before.builds);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.resident_plans, before.resident_plans);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
  EXPECT_GE(after.hits - before.hits, 1000u);
}

}  // namespace
}  // namespace wivi
