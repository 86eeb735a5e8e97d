#include "src/rt/streaming.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/obs/trace.hpp"

namespace wivi::rt {

// ------------------------------------------------------ StreamingTracker ---

StreamingTracker::StreamingTracker(core::MotionTracker::Config cfg, double t0)
    : cfg_(cfg),
      t0_(t0),
      music_(cfg.music) {
  WIVI_REQUIRE(cfg_.hop >= 1, "hop must be >= 1");
  WIVI_REQUIRE(cfg_.angle_step_deg > 0.0, "angle step must be positive");
  // Both heavyweight artifacts resolve through the shared plan registry at
  // construction: the angle grid is copied out of the shared build (the
  // public image keeps its own RVec), and prewarming the steering table
  // here means N same-config sessions trigger exactly one table build —
  // an idle session then holds a handle, not ~100 KB of phase ramps.
  img_.angles_deg = *core::acquire_angle_grid(cfg_.angle_step_deg);
  music_.prewarm(img_.angles_deg);
}

double StreamingTracker::column_period_sec() const noexcept {
  return static_cast<double>(cfg_.hop) * cfg_.music.isar.sample_period_sec;
}

void StreamingTracker::reset(double t0) {
  obs::PipelineObserver* const keep = obs_;
  *this = StreamingTracker(cfg_, t0);
  obs_ = keep;
}

std::size_t StreamingTracker::push(CSpan chunk) {
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
  const auto w = static_cast<std::size_t>(cfg_.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg_.hop);
  const double T = cfg_.music.isar.sample_period_sec;

  // Emit every column whose window is now fully buffered. Each column is
  // a pure function of its window — the same correlation kernel and
  // pseudospectrum the batch MotionTracker::process() runs — so where the
  // window sits in buf_ (and how chunks split the stream) cannot change a
  // bit: streaming == batch exactly.
  std::size_t emitted = 0;
  linalg::CMatrix& r = core::music_scratch().r;
  while (base_ + buf_.size() >= next_col_ * hop + w) {
    const std::size_t n = next_col_ * hop;  // absolute stream offset
    {
      obs::ScopedSpan span(obs_, obs::Stage::kStft);
      music_.smoothed_correlation_into(CSpan(buf_).subspan(n - base_, w), r);
    }
    img_.columns.emplace_back();
    int order = 0;
    obs::ScopedSpan span(obs_, obs::Stage::kMusic);
    if (decim_ <= 1) {
      music_.pseudospectrum_from_correlation_into(r, img_.angles_deg,
                                                  img_.columns.back(), &order);
    } else {
      emit_degraded_column(r, img_.columns.back(), &order);
    }
    span.stop();
    img_.model_orders.push_back(order);
    img_.times_sec.push_back(
        t0_ + (static_cast<double>(n) + static_cast<double>(w) / 2.0) * T);
    ++next_col_;
    ++emitted;
  }
  if (emitted > 0) compact();
  return emitted;
}

void StreamingTracker::adopt(CSpan stream, core::AngleTimeImage&& img) {
  WIVI_REQUIRE(base_ == 0 && buf_.empty() && next_col_ == 0,
               "adopt() requires a fresh tracker");
  const auto w = static_cast<std::size_t>(cfg_.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg_.hop);
  const std::size_t expect_cols =
      stream.size() >= w ? (stream.size() - w) / hop + 1 : 0;
  WIVI_REQUIRE(img.num_times() == expect_cols,
               "adopted image does not match the stream length");
  WIVI_REQUIRE(img.angles_deg == img_.angles_deg,
               "adopted image is on a different angle grid");
  WIVI_REQUIRE(img.times_sec.size() == expect_cols &&
                   img.model_orders.size() == expect_cols,
               "adopted image is internally inconsistent "
               "(times/model_orders vs columns)");
  for (const RVec& col : img.columns)
    WIVI_REQUIRE(col.size() == img.angles_deg.size(),
                 "adopted image has a column of the wrong height");

  img_ = std::move(img);
  next_col_ = expect_cols;
  // Keep exactly the tail a future column could still need: everything
  // from the next window start on.
  base_ = std::min(next_col_ * hop, stream.size());
  buf_.assign(stream.begin() + static_cast<std::ptrdiff_t>(base_),
              stream.end());
}

void StreamingTracker::set_angle_decimation(int factor) {
  WIVI_REQUIRE(factor >= 1, "angle decimation must be >= 1");
  if (factor == decim_) return;
  decim_ = factor;
  coarse_idx_.clear();  // grid rebuilt lazily at the next degraded column
}

/// One degraded column: evaluate the pseudospectrum at every decim_-th
/// angle (end points forced in so interpolation never extrapolates), then
/// fill the skipped angles linearly. The output has the full grid's shape.
void StreamingTracker::emit_degraded_column(const linalg::CMatrix& r, RVec& out,
                                            int* order) {
  const std::size_t n = img_.angles_deg.size();
  if (coarse_idx_.empty()) {
    const auto d = static_cast<std::size_t>(decim_);
    for (std::size_t i = 0; i < n; i += d) coarse_idx_.push_back(i);
    if (coarse_idx_.back() != n - 1) coarse_idx_.push_back(n - 1);
    coarse_angles_.resize(coarse_idx_.size());
    for (std::size_t j = 0; j < coarse_idx_.size(); ++j)
      coarse_angles_[j] = img_.angles_deg[coarse_idx_[j]];
  }
  music_.pseudospectrum_from_correlation_into(r, coarse_angles_, coarse_col_,
                                              order);
  out.resize(n);
  for (std::size_t j = 0; j + 1 < coarse_idx_.size(); ++j) {
    const std::size_t i0 = coarse_idx_[j];
    const std::size_t i1 = coarse_idx_[j + 1];
    out[i0] = coarse_col_[j];
    const double span = static_cast<double>(i1 - i0);
    for (std::size_t i = i0 + 1; i < i1; ++i) {
      const double w = static_cast<double>(i - i0) / span;
      out[i] = (1.0 - w) * coarse_col_[j] + w * coarse_col_[j + 1];
    }
  }
  out[n - 1] = coarse_col_.back();
  ++degraded_cols_;
}

core::AngleTimeImage StreamingTracker::take_image() {
  core::AngleTimeImage out = std::move(img_);
  img_ = core::AngleTimeImage{};
  img_.angles_deg = out.angles_deg;
  return out;
}

void StreamingTracker::compact() {
  // The next column's window start is the earliest sample still needed
  // (with hop > window it can lie past the buffered end). Compact in big
  // steps: the front-erase is O(kept), so amortise it.
  constexpr std::size_t kCompactThreshold = 4096;
  const std::size_t drop = std::min(
      next_col_ * static_cast<std::size_t>(cfg_.hop) - base_, buf_.size());
  if (drop < kCompactThreshold) return;
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(drop));
  base_ += drop;
}

// ------------------------------------------------------ StreamingGesture ---

StreamingGesture::StreamingGesture() : StreamingGesture(Config{}) {}

StreamingGesture::StreamingGesture(Config cfg)
    : cfg_(cfg), decoder_(cfg.decoder) {
  WIVI_REQUIRE(cfg_.decode_interval_cols >= 1,
               "decode interval must be >= 1 column");
}

std::vector<core::GestureDecoder::DecodedBit> StreamingGesture::poll(
    const core::AngleTimeImage& img, bool flush) {
  std::vector<core::GestureDecoder::DecodedBit> fresh;
  const std::size_t cols = img.num_times();
  if (cols == 0) return fresh;
  if (!flush && cols < cols_decoded_ + cfg_.decode_interval_cols) return fresh;

  last_ = decoder_.decode(img);
  cols_decoded_ = cols;

  double guard = cfg_.stability_guard_sec;
  if (guard <= 0.0) {
    // One full bit behind the frontier, a pairing can no longer change;
    // add the matched-filter support so the peak itself is settled too.
    const core::GestureProfile& p = cfg_.decoder.profile;
    guard = p.bit_duration_sec() + p.step_duration_sec;
  }
  // Emission is keyed on the bit's time, not its index: a re-decode can
  // insert or remove *earlier* bits (the decoder's noise scale is a
  // whole-trace statistic), so an index cursor could re-emit or skip.
  // The watermark guarantees each emitted bit time is delivered at most
  // once and emissions are monotone in time; a bit that only materialises
  // behind the watermark on a later decode is dropped (documented).
  const double frontier = img.times_sec.back() - (flush ? 0.0 : guard);
  for (const auto& bit : last_.bits) {
    if (bit.time_sec <= emitted_until_ || bit.time_sec > frontier) continue;
    fresh.push_back(bit);
    emitted_until_ = bit.time_sec;
    ++emitted_;
  }
  return fresh;
}

// -------------------------------------------------- StreamingMultiTracker ---

std::size_t StreamingMultiTracker::update(const core::AngleTimeImage& img) {
  const std::size_t total = img.num_times();
  const std::size_t seen = tracker_.columns_processed();
  WIVI_REQUIRE(seen <= total, "image shrank between updates");
  for (std::size_t t = seen; t < total; ++t) tracker_.step(img, t);
  return total - seen;
}

// ------------------------------------------------------ StreamingCounter ---

std::size_t StreamingCounter::update(const core::AngleTimeImage& img) {
  const std::size_t total = img.num_times();
  WIVI_REQUIRE(n_ <= total, "image shrank between updates");
  const std::size_t fresh = total - n_;
  for (; n_ < total; ++n_) {
    img.column_db_into(n_, col_db_, cap_db_);
    acc_ += core::spatial_variance_column(col_db_, img.angles_deg);
  }
  return fresh;
}

}  // namespace wivi::rt
