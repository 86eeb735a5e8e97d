// Counting-allocator proof that the hot STFT/MUSIC loops are
// allocation-free once their workspaces are warm (ISSUE 1 acceptance).
//
// The global operator new/delete are replaced with counting versions for
// this binary only; each test warms the path under test once (first calls
// may size workspaces), then asserts the steady-state call performs zero
// heap allocations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/common/random.hpp"
#include "src/core/doppler.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/dsp/fft.hpp"
#include "src/linalg/eig.hpp"

namespace {

// Not atomic: these tests are single-threaded, and the counter is only
// read between sequenced statements.
long g_alloc_count = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size))
    return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wivi {
namespace {

CVec make_trace(std::size_t n) {
  Rng rng(7);
  CVec h(n);
  const core::IsarConfig isar;
  const double step =
      kTwoPi * 2.0 * 0.6 * isar.sample_period_sec / isar.wavelength_m;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = step * static_cast<double>(i);
    h[i] = cdouble{std::cos(p), std::sin(p)} + cdouble{0.4, 0.1} +
           rng.complex_gaussian(1e-4);
  }
  return h;
}

TEST(ZeroAlloc, FftPlanExecutionNeverAllocates) {
  const dsp::FftPlan plan(64);
  Rng rng(1);
  CVec x(64);
  for (auto& v : x) v = rng.complex_gaussian();

  const long before = g_alloc_count;
  plan.forward(x);
  plan.inverse(x);
  EXPECT_EQ(g_alloc_count - before, 0);
}

TEST(ZeroAlloc, StftProcessIntoIsAllocationFreeWhenWarm) {
  const CVec h = make_trace(2000);
  const core::DopplerProcessor proc;
  core::DopplerSpectrogram spec;
  proc.process_into(h, spec);  // warm the output buffers

  const long before = g_alloc_count;
  proc.process_into(h, spec);
  EXPECT_EQ(g_alloc_count - before, 0);
}

/// sigma^2 I plus `sources` strong random rank-one terms: a correlation
/// whose model order is min(sources, max_sources).
linalg::CMatrix strong_sources(std::size_t n, int sources, Rng& rng) {
  linalg::CMatrix r(n, n);
  for (std::size_t i = 0; i < n; ++i) r(i, i) = 1.0;
  for (int k = 0; k < sources; ++k) {
    CVec s(n);
    for (auto& v : s) v = rng.complex_gaussian(1e4);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) r(i, j) += s[i] * std::conj(s[j]);
  }
  return r;
}

TEST(ZeroAlloc, MusicPseudospectrumIntoIsAllocationFreeWhenWarm) {
  const CVec h = make_trace(100);
  const core::SmoothedMusic music;
  const RVec angles = core::angle_grid_deg(1.0);
  RVec spectrum;
  int order = 0;
  music.pseudospectrum_into(h, angles, spectrum, &order);  // warm

  const long before = g_alloc_count;
  music.pseudospectrum_into(h, angles, spectrum, &order);
  EXPECT_EQ(g_alloc_count - before, 0);

  // The signal-vector count follows the model order: warmed at order 1,
  // a swing to max_sources and back must still not allocate. Neither may
  // a warm full decomposition through hermitian_eig_into.
  Rng rng(3);
  const auto wp = static_cast<std::size_t>(music.config().subarray);
  const int max_sources = music.config().max_sources;
  const linalg::CMatrix r_one = strong_sources(wp, 1, rng);
  const linalg::CMatrix r_max = strong_sources(wp, max_sources + 4, rng);
  music.pseudospectrum_from_correlation_into(r_one, angles, spectrum, &order);
  ASSERT_EQ(order, 1);
  linalg::EigResult eig;
  linalg::EigWorkspace eig_ws;
  linalg::hermitian_eig_into(r_max, eig, eig_ws);

  int orders[3] = {0, 0, 0};
  const long swing_before = g_alloc_count;
  music.pseudospectrum_from_correlation_into(r_one, angles, spectrum, &orders[0]);
  music.pseudospectrum_from_correlation_into(r_max, angles, spectrum, &orders[1]);
  music.pseudospectrum_from_correlation_into(r_one, angles, spectrum, &orders[2]);
  linalg::hermitian_eig_into(r_one, eig, eig_ws);
  linalg::hermitian_eig_into(r_max, eig, eig_ws);
  EXPECT_EQ(g_alloc_count - swing_before, 0);
  EXPECT_EQ(orders[0], 1);
  EXPECT_EQ(orders[1], max_sources);
  EXPECT_EQ(orders[2], 1);
}

TEST(ZeroAlloc, PlanRegistryHitAcquisitionIsAllocationFree) {
  // Warm: make both artifacts resident in the shared registry.
  const auto warm_plan = dsp::acquire_fft_plan(64);
  const core::IsarConfig isar;
  const RVec angles = core::angle_grid_deg(1.0);
  const auto warm_steering = core::acquire_steering(isar, angles, 32, true);

  // A cache hit is a hash + probe + list splice + handle copy — no heap.
  const long before = g_alloc_count;
  const auto plan = dsp::acquire_fft_plan(64);
  const auto steering = core::acquire_steering(isar, angles, 32, true);
  EXPECT_EQ(g_alloc_count - before, 0);
  EXPECT_EQ(plan.get(), warm_plan.get());
  EXPECT_EQ(steering.get(), warm_steering.get());
}

TEST(ZeroAlloc, SteeringEnsureIsAllocationFreeOnceResident) {
  const core::IsarConfig isar;
  const RVec angles = core::angle_grid_deg(1.0);
  core::SteeringMatrix warm;
  warm.ensure(isar, angles, 32, true);  // table resident, handle held

  core::SteeringMatrix fresh;
  const long before = g_alloc_count;
  warm.ensure(isar, angles, 32, true);   // held-handle field compare
  fresh.ensure(isar, angles, 32, true);  // registry-hit handle copy
  EXPECT_EQ(g_alloc_count - before, 0);
  EXPECT_EQ(fresh.table().get(), warm.table().get());
}

TEST(ZeroAlloc, SlidingCorrelationStreamingLoopIsAllocationFree) {
  const CVec h = make_trace(2000);
  const core::SmoothedMusic music;
  const int w = music.config().isar.window;
  const RVec angles = core::angle_grid_deg(1.0);

  core::SlidingCorrelation sliding(music.config().subarray, w);
  linalg::CMatrix r;
  RVec spectrum;
  int order = 0;
  // Warm: first column sizes every workspace.
  sliding.advance_to(h, 0);
  sliding.correlation_into(r);
  music.pseudospectrum_from_correlation_into(r, angles, spectrum, &order);

  // Steady state: the whole per-column chain — slide, normalise,
  // eigendecompose, project — must not touch the heap.
  const long before = g_alloc_count;
  for (std::size_t pos = 25; pos + static_cast<std::size_t>(w) <= h.size();
       pos += 25) {
    sliding.advance_to(h, pos);
    sliding.correlation_into(r);
    music.pseudospectrum_from_correlation_into(r, angles, spectrum, &order);
  }
  EXPECT_EQ(g_alloc_count - before, 0);
}

}  // namespace
}  // namespace wivi
