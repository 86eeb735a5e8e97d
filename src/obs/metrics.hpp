/// @file
/// The lock-free metrics registry: named counters, gauges and latency
/// histograms with per-thread recording slots.
///
/// Hot-path contract (DESIGN.md §10): recording never allocates, never
/// takes a lock and never issues a fence stronger than relaxed — a Counter
/// bump on a thread with a private slot is literally one relaxed load and
/// one relaxed store on a cache line no other writer touches. Aggregation
/// happens entirely on the *read* side: value()/snapshot() sum the slots.
///
/// Registration (Registry::counter/gauge/histogram by name) is the cold
/// path: it takes a mutex, interns the name, and returns a reference that
/// stays valid for the registry's lifetime — callers cache the reference
/// and never look up on the hot path.
///
/// Disable paths: obs::set_enabled(false) turns every recording call into
/// a checked no-op at run time; compiling with WIVI_OBS_ENABLED=0 (CMake
/// -DWIVI_OBS=OFF) compiles them out entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/obs/histogram.hpp"
#include "src/obs/snapshot.hpp"

#ifndef WIVI_OBS_ENABLED
/// Compile-time master switch: define to 0 (CMake -DWIVI_OBS=OFF) to
/// compile every metric recording call down to nothing.
#define WIVI_OBS_ENABLED 1
#endif

namespace wivi::obs {

/// @addtogroup wivi_obs
/// @{

/// Run-time master switch for all obs recording (registry metrics and
/// pipeline observers); starts enabled. Reads are relaxed — a toggle
/// becomes visible to recorders promptly but not atomically across them.
void set_enabled(bool on) noexcept;
/// Current state of the run-time master switch.
[[nodiscard]] bool enabled() noexcept;

/// A monotonic counter sharded over cache-aligned per-thread slots. The
/// first kSlots-1 threads of the process own private slots (recording is a
/// relaxed load+store); later threads share the last slot (relaxed
/// fetch_add). value() sums all slots.
class Counter {
 public:
  /// Slots in the shard array (first kSlots-1 threads write privately).
  static constexpr int kSlots = 32;

  Counter() = default;  ///< Zero everywhere; normally obtained from a Registry.
  Counter(const Counter&) = delete;             ///< Non-copyable.
  Counter& operator=(const Counter&) = delete;  ///< Non-copyable.

  /// Add `n` (relaxed; private-slot threads pay a plain store).
  void add(std::uint64_t n = 1) noexcept {
#if WIVI_OBS_ENABLED
    if (!enabled()) return;
    const int t = thread_slot();
    std::atomic<std::uint64_t>& c = slot_[t < kSlots ? t : kSlots - 1].v;
    if (t < kSlots - 1)
      c.store(c.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    else
      c.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  /// Sum over all slots (relaxed; exact once writers are quiet).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : slot_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  Slot slot_[kSlots];
};

/// A point-in-time signed value (queue depth, fidelity level...): one
/// atomic, set/add from any thread, relaxed.
class Gauge {
 public:
  Gauge() = default;  ///< Starts at 0; normally obtained from a Registry.
  Gauge(const Gauge&) = delete;             ///< Non-copyable.
  Gauge& operator=(const Gauge&) = delete;  ///< Non-copyable.

  /// Overwrite the value (relaxed).
  void set(std::int64_t v) noexcept {
#if WIVI_OBS_ENABLED
    if (enabled()) v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  /// Adjust the value by `d` (relaxed fetch_add — gauges move both ways,
  /// so the single-writer store trick does not apply).
  void add(std::int64_t d) noexcept {
#if WIVI_OBS_ENABLED
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
#else
    (void)d;
#endif
  }
  /// Current value (relaxed).
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// The name-interning home of a metric set: counters, gauges and
/// histograms registered by name, each returned as a stable reference.
/// One Registry per subsystem that wants an exportable metric namespace
/// (the rt::Engine owns one).
///
/// Thread-safe: registration locks, recording through the returned
/// references never does, snapshot() aggregates on read.
class Registry {
 public:
  Registry() = default;  ///< An empty registry.
  Registry(const Registry&) = delete;             ///< Non-copyable.
  Registry& operator=(const Registry&) = delete;  ///< Non-copyable.

  /// The counter named `name` (created on first use; same name → same
  /// counter). The reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  /// The gauge named `name` (created on first use).
  Gauge& gauge(std::string_view name);
  /// The histogram named `name` (created on first use) with `slots`
  /// per-thread recording slots (ignored when it already exists).
  Histogram& histogram(std::string_view name, int slots = 8);

  /// Aggregate every registered metric into one exportable snapshot
  /// (obs::write_snapshot renders it as JSON or Prometheus text).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  template <typename T, typename... Args>
  T& intern(std::deque<std::pair<std::string, std::unique_ptr<T>>>& family,
            std::string_view name, Args&&... args);

  mutable std::mutex mu_;
  std::deque<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::deque<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::deque<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

/// @}

}  // namespace wivi::obs
