// Single-thread per-layer decomposition: the benchmark calls each layer's
// public function directly on the workload's traces and times the call.

#include "bench.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/linalg/eig.hpp"
#include "src/par/image_builder.hpp"
#include "src/track/multi_tracker.hpp"

namespace wirebench {

namespace {

// Enough columns for stable per-column means, few enough to keep a
// traced run short (~2 s). Whole worlds are taken until it is reached.
constexpr std::size_t kDecomposeColumns = 600;
constexpr int kParReps = 3;
constexpr int kLaneDecompose = 4;

}  // namespace

void decompose(const std::vector<World>& worlds, RunResult& out) {
  const core::MotionTracker::Config cfg;
  const core::MusicConfig& mc = cfg.music;
  const auto win = static_cast<std::size_t>(mc.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  const auto wp = static_cast<std::uint64_t>(mc.subarray);
  const RVec angles = *core::acquire_angle_grid(cfg.angle_step_deg);

  SpanLog log(kLaneDecompose, true);
  std::int64_t slide_ns = 0, rebuild_ns = 0, eig_ns = 0, music_ns = 0,
               step_ns = 0;
  std::uint64_t cols = 0, eig_calls = 0, cmacs = 0, order_sum = 0,
                confirmed = 0;
  for (std::size_t wi = 0; wi < worlds.size() && cols < kDecomposeColumns;
       ++wi) {
    const CVec& h = worlds[wi].h;
    const double T = 1.0 / worlds[wi].sample_rate_hz;
    core::SlidingCorrelation slide(mc.subarray, mc.isar.window);
    const core::SmoothedMusic music(mc);
    linalg::CMatrix r_slide, r_rebuild;
    linalg::EigResult eig;
    linalg::EigWorkspace eig_ws;
    track::MultiTargetTracker tracker;
    core::AngleTimeImage img;
    img.angles_deg = angles;
    const std::size_t ncols = expected_columns(worlds[wi]);
    for (std::size_t k = 0; k < ncols; ++k) {
      const std::size_t n = k * hop;
      const auto seq = static_cast<std::int64_t>(k);
      const std::size_t mark = log.spans().size();
      const std::int64_t t0 = now_ns();
      slide.advance_to(h, n);
      slide.correlation_into(r_slide);
      const std::int64_t t1 = now_ns();
      music.smoothed_correlation_into(CSpan(h.data() + n, win), r_rebuild);
      const std::int64_t t2 = now_ns();
      linalg::hermitian_eig_into(r_slide, eig, eig_ws);
      const std::int64_t t3 = now_ns();
      img.columns.emplace_back();
      int order = 0;
      music.pseudospectrum_from_correlation_into(r_slide, angles,
                                                 img.columns.back(), &order);
      const std::int64_t t4 = now_ns();
      img.model_orders.push_back(order);
      img.times_sec.push_back(
          (static_cast<double>(n) + static_cast<double>(win) / 2.0) * T);
      tracker.step(img, k);
      const std::int64_t t5 = now_ns();

      log.add("core.corr_slide", t0, t1, -1, seq);
      log.add("core.corr_rebuild", t1, t2, -1, seq);
      log.add("linalg.eig", t2, t3, -1, seq);
      log.add("core.music", t3, t4, -1, seq);
      log.add("track.step", t4, t5, -1, seq);
      const std::uint64_t col_id = log.add("decompose.column", t0, t5, -1, seq);
      for (std::size_t i = mark; i + 1 < log.spans().size(); ++i)
        log.spans()[i].parent = col_id;

      slide_ns += t1 - t0;
      rebuild_ns += t2 - t1;
      eig_ns += t3 - t2;
      music_ns += t4 - t3;
      step_ns += t5 - t4;
      ++cols;
      ++eig_calls;  // the pipeline needs one eig per column (inside music)
      order_sum += static_cast<std::uint64_t>(order);
      cmacs += angles.size() * wp * (wp - static_cast<std::uint64_t>(order));
    }
    for (const track::TrackHistory& th : tracker.histories())
      confirmed += th.confirmed_ever ? 1 : 0;
  }

  const auto per_col = [&](std::int64_t ns) {
    return static_cast<double>(ns) / 1e3 / static_cast<double>(cols);
  };
  auto& L = out.layer;
  L["core.corr_slide_us_per_col"] = {per_col(slide_ns), "us"};
  L["core.corr_rebuild_us_per_col"] = {per_col(rebuild_ns), "us"};
  L["linalg.eig_us_per_col"] = {per_col(eig_ns), "us"};
  L["core.music_us_per_col"] = {per_col(music_ns), "us"};
  L["core.scan_us_per_col"] = {per_col(music_ns - eig_ns), "us"};
  L["linalg.eig_calls"] = {static_cast<double>(eig_calls), "count"};
  L["core.model_order_mean"] = {
      static_cast<double>(order_sum) / static_cast<double>(cols), "count"};
  L["core.scan_cmacs"] = {static_cast<double>(cmacs), "count"};
  L["track.step_us_per_col"] = {per_col(step_ns), "us"};
  L["track.confirmed_tracks"] = {static_cast<double>(confirmed), "count"};
  out.counts["linalg.eig_calls"] = eig_calls;
  out.counts["core.scan_cmacs"] = cmacs;
  out.counts["decompose.columns"] = cols;

  // par: the same long trace built with one and with four threads.
  const CVec& h = worlds.front().h;
  std::vector<double> ms1, ms4;
  const par::ParallelImageBuilder b1(cfg, 1);
  const par::ParallelImageBuilder b4(cfg, 4);
  for (int rep = 0; rep < kParReps; ++rep) {
    for (const auto* b : {&b1, &b4}) {
      const std::int64_t a = now_ns();
      const core::AngleTimeImage img = b->build(h);
      const std::int64_t e = now_ns();
      log.add(b == &b1 ? "par.build_1t" : "par.build_4t", a, e);
      (b == &b1 ? ms1 : ms4).push_back(static_cast<double>(e - a) / 1e6);
    }
  }
  L["par.build_ms_1t"] = {median(ms1), "ms"};
  L["par.build_ms_4t"] = {median(ms4), "ms"};
  L["par.speedup_4t"] = {median(ms1) / median(ms4), "x"};

  out.spans.insert(out.spans.end(), log.spans().begin(), log.spans().end());
  out.lanes.emplace_back(kLaneDecompose, "decomposition pass");
}

}  // namespace wirebench
