/// @file
/// Column-parallel construction of the smoothed-MUSIC angle-time image.
///
/// Every image column is a pure function of its own window: the Eq. 5.2
/// smoothed correlation comes from one stateless kernel
/// (core::smoothed_correlation_into) and the pseudospectrum from
/// workspaces that each call fully overwrites. So the columns of a long
/// stretch of stream (a whole recorded trace: core::MotionTracker::process,
/// a multi-threaded rt::StreamingTracker::push, figure generation,
/// benches) can be sharded across a par::ThreadPool in fixed blocks: each
/// worker owns a private SmoothedMusic (its steering handle is not
/// thread-safe) and writes into preassigned column slots.
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

namespace wivi::obs {
class PipelineObserver;
}  // namespace wivi::obs

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
  /// build_columns() from column 0.
  void build_into(CSpan h, core::AngleTimeImage& img, double t0 = 0.0) const;

  /// The column loop every build runs: fill slots [first_col,
  /// img.num_times()) of `img` — already sized, angle grid set — with the
  /// columns of those indices of a stream whose first sample is at `t0`.
  /// `h` holds the stream's samples from index `offset` on and must cover
  /// every one of those windows. With an active `observer`, each column
  /// records one stft_doppler and one music span, in column order on the
  /// calling thread (the PipelineObserver is single-writer).
  void build_columns(CSpan h, std::size_t offset, std::size_t first_col,
                     core::AngleTimeImage& img, double t0,
                     obs::PipelineObserver* observer = nullptr) const;

 private:
  core::MotionTracker::Config cfg_;
  std::shared_ptr<const RVec> angles_;  // registry-shared angle grid
  mutable ThreadPool pool_;
  // One estimator per worker (core stages are single-threaded by design —
  // see DESIGN.md §4 rule 4; parallelism comes from giving every worker
  // its own copy).
  mutable std::vector<std::unique_ptr<core::SmoothedMusic>> music_;
  // Per-column span stamps (start, correlation done, end) of a timed
  // build_columns(); empty unless an observer was active.
  mutable std::vector<std::int64_t> stamps_;
};

}  // namespace wivi::par
