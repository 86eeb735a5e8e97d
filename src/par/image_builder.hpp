/// @file
/// Column-parallel construction of the smoothed-MUSIC angle-time image.
///
/// Every image column is a pure function of its own window: the Eq. 5.2
/// smoothed correlation comes from one stateless kernel
/// (core::smoothed_correlation_into) and the pseudospectrum from
/// workspaces that each call fully overwrites. So for batch consumers
/// (whole recorded traces: core::MotionTracker::process, figure
/// generation, benches, rt::Engine::run_recorded) the columns can be
/// sharded across a par::ThreadPool in fixed blocks: each worker owns a
/// private SmoothedMusic (its steering handle is not thread-safe) and
/// writes into preassigned column slots.
///
/// Determinism: the blocks only balance load — no numeric state crosses
/// a column boundary — and blocks write disjoint slots, so the output is
/// bit-identical for every thread count, every dynamic block-to-worker
/// assignment, and to the streaming path (rt::StreamingTracker), which
/// runs the same per-window arithmetic (pinned by test_par and
/// test_fastpath_parity).
#pragma once

#include <memory>
#include <vector>

#include "src/core/tracker.hpp"
#include "src/par/thread_pool.hpp"

namespace wivi::par {

/// Builds core::AngleTimeImage by sharding columns over a worker pool.
/// Reusable across build() calls (workspaces and pool persist); one
/// build() at a time per instance — for concurrent builds give each
/// caller its own builder.
class ParallelImageBuilder {
 public:
  /// Columns per work unit: the load-balancing granularity only (the
  /// output does not depend on it).
  static constexpr std::size_t kColumnsPerBlock = 16;

  /// Build with an internally owned pool of `num_threads` workers
  /// (0 = hardware concurrency; 1 = fully sequential, no threads).
  /// `cfg.num_threads` is ignored here — the explicit argument wins.
  explicit ParallelImageBuilder(core::MotionTracker::Config cfg,
                                int num_threads = 0);

  /// The imaging configuration (hop, angle grid, MUSIC parameters).
  [[nodiscard]] const core::MotionTracker::Config& config() const noexcept {
    return cfg_;
  }
  /// Worker count of the underlying pool.
  [[nodiscard]] int num_threads() const noexcept {
    return pool_.num_threads();
  }

  /// Compute the full angle-time image of a recorded channel-estimate
  /// stream; identical output for every thread count. `t0` is the
  /// absolute time of h.front().
  [[nodiscard]] core::AngleTimeImage build(CSpan h, double t0 = 0.0) const;

  /// Same, into a caller-owned image whose storage is reused: once `img`
  /// has held an image of the same shape, a call allocates nothing.
  void build_into(CSpan h, core::AngleTimeImage& img, double t0 = 0.0) const;

 private:
  core::MotionTracker::Config cfg_;
  std::shared_ptr<const RVec> angles_;  // registry-shared angle grid
  mutable ThreadPool pool_;
  // One estimator per worker (core stages are single-threaded by design —
  // see DESIGN.md §4 rule 4; parallelism comes from giving every worker
  // its own copy).
  mutable std::vector<std::unique_ptr<core::SmoothedMusic>> music_;
};

}  // namespace wivi::par
