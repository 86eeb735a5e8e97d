#include "src/sim/feeder.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/sim/human.hpp"

namespace wivi::sim {

TraceResult record_session_trace(const SessionScenario& sc) {
  WIVI_REQUIRE(sc.num_humans >= 0, "human count must be >= 0");
  WIVI_REQUIRE(sc.duration_sec > 0.0, "duration must be positive");
  Rng rng(sc.seed);
  Scene scene(sc.room, default_calibration(), rng);

  // Same protocol as a counting trial's scene setup: each human walks at
  // will for the whole capture (§7.4); subject identities rotate with the
  // seed so sessions differ in bodies as well as trajectories.
  const double motion_span = sc.duration_sec + 10.0;
  for (int i = 0; i < sc.num_humans; ++i) {
    const SubjectParams params =
        subject(static_cast<int>((sc.seed + static_cast<std::uint64_t>(i)) % 8));
    scene.add_human(params,
                    random_walk(scene.interior(), motion_span, /*dt=*/0.01,
                                params.walk_speed_mps, rng),
                    rng());
  }

  ExperimentRunner::Config cfg;
  cfg.trace_duration_sec = sc.duration_sec;
  ExperimentRunner runner(scene, cfg, rng.fork());
  return runner.run();
}

ChunkedTrace::ChunkedTrace(TraceResult trace, std::size_t chunk_len)
    : trace_(std::move(trace)), chunk_len_(chunk_len) {
  WIVI_REQUIRE(chunk_len_ >= 1, "chunk length must be >= 1");
}

bool ChunkedTrace::next(CVec& chunk) {
  if (exhausted()) return false;
  const std::size_t end = std::min(pos_ + chunk_len_, trace_.h.size());
  chunk.assign(trace_.h.begin() + static_cast<std::ptrdiff_t>(pos_),
               trace_.h.begin() + static_cast<std::ptrdiff_t>(end));
  pos_ = end;
  ++emitted_;
  return true;
}

}  // namespace wivi::sim
