#include "src/core/tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/common/db.hpp"
#include "src/common/error.hpp"
#include "src/dsp/peaks.hpp"
#include "src/dsp/stats.hpp"
#include "src/par/image_builder.hpp"

namespace wivi::core {

RVec AngleTimeImage::column_db(std::size_t t, double cap_db) const {
  RVec out;
  column_db_into(t, out, cap_db);
  return out;
}

void AngleTimeImage::column_db_into(std::size_t t, RVec& out,
                                    double cap_db) const {
  WIVI_REQUIRE(t < columns.size(), "image column out of range");
  const RVec& col = columns[t];
  // Reference = column median, not minimum: MUSIC pushes deeper nulls at
  // non-source angles as SNR grows, so a min-referenced scale would inflate
  // the whole column with source strength; the median is a stable floor.
  const double floor_ref = std::max(dsp::median(col), 1e-300);
  out.resize(col.size());
  for (std::size_t i = 0; i < col.size(); ++i) {
    const double db = amp_to_db(std::sqrt(col[i] / floor_ref));
    out[i] = std::clamp(db, 0.0, cap_db);
  }
}

double AngleTimeImage::global_min() const {
  double lo = std::numeric_limits<double>::infinity();
  for (const RVec& col : columns)
    lo = std::min(lo, *std::min_element(col.begin(), col.end()));
  return lo;
}

double AngleTimeImage::global_max() const {
  double hi = -std::numeric_limits<double>::infinity();
  for (const RVec& col : columns)
    hi = std::max(hi, *std::max_element(col.begin(), col.end()));
  return hi;
}

MotionTracker::MotionTracker() : MotionTracker(Config{}) {}

MotionTracker::MotionTracker(Config cfg) : cfg_(cfg) {
  WIVI_REQUIRE(cfg_.hop >= 1, "hop must be >= 1");
  WIVI_REQUIRE(cfg_.angle_step_deg > 0.0, "angle step must be positive");
  WIVI_REQUIRE(cfg_.num_threads >= 0, "num_threads must be >= 0");
}

double MotionTracker::column_period_sec() const noexcept {
  return static_cast<double>(cfg_.hop) * cfg_.music.isar.sample_period_sec;
}

AngleTimeImage MotionTracker::process(CSpan h, double t0) const {
  // Every column is a pure function of its window, so one column loop
  // serves every thread count: 1 runs inline with no threads, anything
  // else shards the columns over a pool. The builder (pool + per-worker
  // workspaces) is constructed per call — noise next to a whole-trace
  // build, and it keeps const process() callable concurrently; loops that
  // build many images back to back should hold a
  // par::ParallelImageBuilder directly.
  return par::ParallelImageBuilder(cfg_, cfg_.num_threads).build(h, t0);
}

RVec MotionTracker::dominant_angle_trace(const AngleTimeImage& img,
                                         const PeakPolicy& peaks) const {
  RVec trace(img.num_times(), std::numeric_limits<double>::quiet_NaN());
  dsp::FloorPeakOptions opts;
  opts.min_over_floor = peaks.min_peak_db;
  opts.min_distance = 1;
  RVec col_db;
  for (std::size_t t = 0; t < img.num_times(); ++t) {
    img.column_db_into(t, col_db);
    // Floor = whole-column median (DC lobe included — it is part of the
    // column's level statistics). Peaks are found on the unmasked column —
    // so the DC residual is one genuine peak, not a hole whose shoulder
    // fakes a mover at the exclusion boundary — and DC-band peaks are then
    // discarded; the strongest survivor is the dominant mover.
    const double baseline = dsp::median(col_db);
    double best_db = -std::numeric_limits<double>::infinity();
    for (const dsp::Peak& p :
         dsp::find_peaks_over_floor(col_db, baseline, opts)) {
      if (std::abs(img.angles_deg[p.index]) <= peaks.dc_exclusion_deg) continue;
      if (p.value > best_db) {
        best_db = p.value;
        trace[t] = img.angles_deg[p.index];
      }
    }
  }
  return trace;
}

std::string render_ascii(const AngleTimeImage& img, std::size_t max_cols,
                         std::size_t max_rows) {
  WIVI_REQUIRE(img.num_times() > 0 && img.num_angles() > 0,
               "cannot render an empty image");
  static constexpr char kShades[] = " .:-=+*#%@";
  constexpr std::size_t kNumShades = sizeof(kShades) - 1;

  const std::size_t cols = std::min(max_cols, img.num_times());
  const std::size_t rows = std::min(max_rows, img.num_angles());
  std::string out;
  out.reserve((rows + 2) * (cols + 16));

  // Convert each selected column to dB once.
  std::vector<RVec> cols_db(cols);
  double hi = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t t = c * (img.num_times() - 1) / std::max<std::size_t>(cols - 1, 1);
    cols_db[c] = img.column_db(t);
    hi = std::max(hi, *std::max_element(cols_db[c].begin(), cols_db[c].end()));
  }
  if (hi <= 0.0) hi = 1.0;

  for (std::size_t r = 0; r < rows; ++r) {
    // Top row = +90 degrees, bottom = -90 (the paper's y-axis).
    const std::size_t a =
        (rows - 1 - r) * (img.num_angles() - 1) / std::max<std::size_t>(rows - 1, 1);
    const double angle = img.angles_deg[a];
    char label[8];
    std::snprintf(label, sizeof(label), "%+4.0f ", angle);
    out += label;
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = cols_db[c][a] / hi;  // 0..1
      const auto shade = static_cast<std::size_t>(
          std::clamp(v, 0.0, 1.0) * static_cast<double>(kNumShades - 1) + 0.5);
      out += kShades[shade];
    }
    out += '\n';
  }
  char footer[96];
  std::snprintf(footer, sizeof(footer),
                "     time %.2fs .. %.2fs  (angle +90 top / -90 bottom)\n",
                img.times_sec.front(), img.times_sec.back());
  out += footer;
  return out;
}

}  // namespace wivi::core
