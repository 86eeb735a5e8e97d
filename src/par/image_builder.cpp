#include "src/par/image_builder.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/obs/trace.hpp"

namespace wivi::par {

ParallelImageBuilder::ParallelImageBuilder(core::MotionTracker::Config cfg,
                                           int num_threads)
    : cfg_(cfg), pool_(num_threads) {
  cfg_.validate();
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
  const std::size_t num_cols = cfg_.columns_in(h.size());
  WIVI_REQUIRE(num_cols > 0, "channel stream shorter than one ISAR window");
  img.angles_deg.assign(angles_->begin(), angles_->end());
  img.columns.resize(num_cols);
  img.model_orders.resize(num_cols);
  img.times_sec.resize(num_cols);
  build_columns(h, 0, 0, img, t0);
}

void ParallelImageBuilder::build_columns(CSpan h, std::size_t offset,
                                         std::size_t first_col,
                                         core::AngleTimeImage& img, double t0,
                                         obs::PipelineObserver* observer) const {
  const std::size_t end_col = img.num_times();
  if (first_col >= end_col) return;
  const auto hop = static_cast<std::size_t>(cfg_.hop);
  WIVI_REQUIRE(first_col * hop >= offset &&
                   cfg_.columns_in(offset + h.size()) >= end_col,
               "stream span does not cover the requested columns");
  const bool timed = observer != nullptr && observer->active();
  if (timed) stamps_.resize(3 * (end_col - first_col));

  // The task captures two pointers, which keeps it inside std::function's
  // small buffer: a warm build allocates nothing.
  struct Job {
    CSpan h;
    std::size_t offset;
    std::size_t first_col;
    std::size_t end_col;
    core::AngleTimeImage* img;
    double t0;
    std::int64_t* stamps;  // null unless timed
  };
  const Job job{h,     offset, first_col, end_col,
                &img,  t0,     timed ? stamps_.data() : nullptr};
  const std::size_t num_blocks =
      (end_col - first_col + kColumnsPerBlock - 1) / kColumnsPerBlock;
  pool_.parallel_for(num_blocks, [this, &job](std::size_t block, int worker) {
    const core::SmoothedMusic& music =
        *music_[static_cast<std::size_t>(worker)];
    const auto win = static_cast<std::size_t>(cfg_.music.isar.window);
    const auto step = static_cast<std::size_t>(cfg_.hop);
    linalg::CMatrix& r = core::music_scratch().r;
    core::AngleTimeImage& out = *job.img;
    const std::size_t c0 = job.first_col + block * kColumnsPerBlock;
    const std::size_t c1 = std::min(c0 + kColumnsPerBlock, job.end_col);
    for (std::size_t c = c0; c < c1; ++c) {
      std::int64_t* const st =
          job.stamps != nullptr ? job.stamps + 3 * (c - job.first_col)
                                : nullptr;
      if (st != nullptr) st[0] = obs::now_ns();
      music.smoothed_correlation_into(
          job.h.subspan(c * step - job.offset, win), r);
      if (st != nullptr) st[1] = obs::now_ns();
      int order = 0;
      music.pseudospectrum_from_correlation_into(r, out.angles_deg,
                                                 out.columns[c], &order);
      if (st != nullptr) st[2] = obs::now_ns();
      out.model_orders[c] = order;
      out.times_sec[c] = cfg_.column_time_sec(c, job.t0);
    }
  });
  if (!timed) return;
  for (std::size_t i = 0; i + 2 < stamps_.size(); i += 3) {
    observer->record(obs::Stage::kStft, stamps_[i], stamps_[i + 1]);
    observer->record(obs::Stage::kMusic, stamps_[i + 1], stamps_[i + 2]);
  }
}

}  // namespace wivi::par
