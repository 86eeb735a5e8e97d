#include "src/par/image_builder.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace wivi::par {

ParallelImageBuilder::ParallelImageBuilder(core::MotionTracker::Config cfg,
                                           int num_threads)
    : cfg_(cfg), pool_(num_threads) {
  WIVI_REQUIRE(cfg_.hop >= 1, "hop must be >= 1");
  WIVI_REQUIRE(cfg_.angle_step_deg > 0.0, "angle step must be positive");
  angles_ = core::acquire_angle_grid(cfg_.angle_step_deg);
  music_.reserve(static_cast<std::size_t>(pool_.num_threads()));
  for (int w = 0; w < pool_.num_threads(); ++w)
    music_.push_back(std::make_unique<core::SmoothedMusic>(cfg_.music));
}

core::AngleTimeImage ParallelImageBuilder::build(CSpan h, double t0) const {
  core::AngleTimeImage img;
  build_into(h, img, t0);
  return img;
}

void ParallelImageBuilder::build_into(CSpan h, core::AngleTimeImage& img,
                                      double t0) const {
  const auto w = static_cast<std::size_t>(cfg_.music.isar.window);
  WIVI_REQUIRE(h.size() >= w, "channel stream shorter than one ISAR window");
  const std::size_t num_cols =
      (h.size() - w) / static_cast<std::size_t>(cfg_.hop) + 1;

  img.angles_deg.assign(angles_->begin(), angles_->end());
  img.columns.resize(num_cols);
  img.model_orders.resize(num_cols);
  img.times_sec.resize(num_cols);

  // The task captures two pointers, which keeps it inside std::function's
  // small buffer: a warm build allocates nothing.
  struct Job {
    CSpan h;
    core::AngleTimeImage* img;
    double t0;
    std::size_t num_cols;
  };
  const Job job{h, &img, t0, num_cols};
  const std::size_t num_blocks =
      (num_cols + kColumnsPerBlock - 1) / kColumnsPerBlock;
  pool_.parallel_for(num_blocks, [this, &job](std::size_t block, int worker) {
    const core::SmoothedMusic& music =
        *music_[static_cast<std::size_t>(worker)];
    const auto win = static_cast<std::size_t>(cfg_.music.isar.window);
    const auto hop = static_cast<std::size_t>(cfg_.hop);
    const double T = cfg_.music.isar.sample_period_sec;
    core::AngleTimeImage& out = *job.img;
    const std::size_t c0 = block * kColumnsPerBlock;
    const std::size_t c1 = std::min(c0 + kColumnsPerBlock, job.num_cols);
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t n = c * hop;
      int order = 0;
      music.pseudospectrum_into(job.h.subspan(n, win), out.angles_deg,
                                out.columns[c], &order);
      out.model_orders[c] = order;
      out.times_sec[c] = job.t0 + (static_cast<double>(n) +
                                   static_cast<double>(win) / 2.0) *
                                      T;
    }
  });
}

}  // namespace wivi::par
