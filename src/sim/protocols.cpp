#include "src/sim/protocols.hpp"

#include <algorithm>
#include <cmath>

#include "src/api/session.hpp"
#include "src/common/constants.hpp"
#include "src/common/db.hpp"
#include "src/common/error.hpp"

namespace wivi::sim {

CountingResult run_counting_trial(const CountingTrial& trial) {
  WIVI_REQUIRE(trial.num_humans >= 0, "human count must be >= 0");
  WIVI_REQUIRE(trial.subjects.size() >= static_cast<std::size_t>(trial.num_humans),
               "not enough subjects for the requested human count");
  Rng rng(trial.seed);
  Scene scene(trial.room, default_calibration(), rng);

  const double motion_span = trial.duration_sec + 10.0;
  for (int i = 0; i < trial.num_humans; ++i) {
    const SubjectParams params = subject(trial.subjects[static_cast<std::size_t>(i)]);
    scene.add_human(params,
                    random_walk(scene.interior(), motion_span, /*dt=*/0.01,
                                params.walk_speed_mps, rng),
                    rng());
  }

  ExperimentRunner::Config cfg;
  cfg.trace_duration_sec = trial.duration_sec;
  ExperimentRunner runner(scene, cfg, rng.fork());

  CountingResult result;
  result.trace = runner.run();
  result.effective_nulling_db = result.trace.effective_nulling_db;

  // One declarative pipeline: image + counting, one batch run whose image
  // columns are computed on image_threads cores (the same image for any).
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.t0 = result.trace.t0;
  spec.count = api::CountStage{};
  api::Session session(std::move(spec));
  session.run(result.trace.h, trial.image_threads);
  result.spatial_variance = session.spatial_variance();
  result.image = session.take_image();
  return result;
}

namespace {

/// Doppler-band power of h over [lo, hi) seconds (absolute time): power of
/// the stream after removing a short local mean (+/-80 ms), which strips the
/// DC residual and slow chain drift but passes the ~16 Hz torso Doppler.
double doppler_power(const TraceResult& trace, double lo, double hi) {
  const auto n = trace.h.size();
  const auto half = static_cast<std::ptrdiff_t>(0.08 * trace.sample_rate_hz);
  auto index = [&](double t) {
    const double rel = (t - trace.t0) * trace.sample_rate_hz;
    return static_cast<std::ptrdiff_t>(
        std::clamp(rel, 0.0, static_cast<double>(n - 1)));
  };
  const std::ptrdiff_t a = index(lo);
  const std::ptrdiff_t b = std::max(index(hi), a + 2);
  double acc = 0.0;
  for (std::ptrdiff_t i = a; i < b; ++i) {
    const std::ptrdiff_t w0 = std::max<std::ptrdiff_t>(i - half, 0);
    const std::ptrdiff_t w1 =
        std::min<std::ptrdiff_t>(i + half, static_cast<std::ptrdiff_t>(n) - 1);
    cdouble mean{0.0, 0.0};
    for (std::ptrdiff_t k = w0; k <= w1; ++k)
      mean += trace.h[static_cast<std::size_t>(k)];
    mean /= static_cast<double>(w1 - w0 + 1);
    acc += norm2(trace.h[static_cast<std::size_t>(i)] - mean);
  }
  return acc / static_cast<double>(b - a);
}

}  // namespace

void score_decoded_bits(std::span<const core::Bit> sent,
                        const std::vector<core::GestureDecoder::DecodedBit>& got,
                        GestureResult& out, const TraceResult* trace) {
  // Noise reference: the quiet lead-in before the first gesture.
  double noise_ref = 0.0;
  if (trace != nullptr)
    noise_ref = std::max(doppler_power(*trace, trace->t0, trace->t0 + 1.5),
                         1e-300);

  // Decoded bits arrive in time order; align them greedily against the
  // transmitted sequence. Any decoded bit that cannot be matched in order
  // counts as a flip (this never fires in practice: §7.5, erasures only).
  std::size_t si = 0;
  for (const auto& bit : got) {
    bool matched = false;
    while (si < sent.size()) {
      if (sent[si] == bit.value) {
        ++out.correct;
        double snr_db = bit.snr_db;  // fallback: matched-filter SNR
        if (trace != nullptr) {
          const double sig =
              doppler_power(*trace, bit.time_sec - 1.2, bit.time_sec + 1.2);
          snr_db = to_db(std::max(sig - noise_ref, noise_ref * 1e-3) / noise_ref);
        }
        (bit.value == core::Bit::kZero ? out.snr_zero_db : out.snr_one_db)
            .push_back(snr_db);
        ++si;
        matched = true;
        break;
      }
      ++out.erased;  // ground-truth bit skipped by the decoder
      ++si;
    }
    if (!matched) ++out.flipped;
  }
  out.erased += static_cast<int>(sent.size() - si);
}

GestureResult run_gesture_trial(const GestureTrial& trial) {
  WIVI_REQUIRE(!trial.message.empty(), "gesture trial needs a message");
  WIVI_REQUIRE(trial.distance_m > 0.0, "distance must be positive");
  Rng rng(trial.seed);
  Scene scene(trial.room, default_calibration(), rng);

  const SubjectParams params = subject(trial.subject_index);
  core::GestureProfile profile;
  profile.step_length_m = params.step_length_m;
  profile.step_duration_sec = params.step_duration_sec;

  // Subject stands distance_m behind the wall on the device axis and
  // gestures toward the device, possibly at a slant (Fig. 6-2(c)).
  const rf::Vec2 start{0.0, scene.wall_y() + trial.distance_m};
  rf::Vec2 facing = scene.toward_device(start);
  if (trial.facing_offset_deg != 0.0) {
    const double a = trial.facing_offset_deg * kPi / 180.0;
    facing = {facing.x * std::cos(a) - facing.y * std::sin(a),
              facing.x * std::sin(a) + facing.y * std::cos(a)};
  }

  const double lead_in = 2.0;
  const auto steps = core::encode_message(trial.message, profile, lead_in);
  const double duration =
      lead_in + core::message_duration_sec(trial.message.size(), profile) + 3.0;
  scene.add_human(params,
                  gesture_trajectory(start, facing, steps, profile,
                                     duration + 10.0, /*dt=*/0.01),
                  rng());

  ExperimentRunner::Config cfg;
  cfg.trace_duration_sec = duration;
  ExperimentRunner runner(scene, cfg, rng.fork());
  const TraceResult trace = runner.run();

  // One declarative pipeline: image + gesture decoding, batch-executed.
  // The session's flush decode is exactly the batch decode of the full
  // image (the pinned streaming==batch gesture contract).
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.t0 = trace.t0;
  api::GestureStage gesture_stage;
  gesture_stage.gesture.decoder.profile = profile;
  spec.gesture = gesture_stage;
  api::Session session(std::move(spec));
  session.run(trace.h);

  GestureResult result;
  result.decoded = session.take_gesture_result();
  result.effective_nulling_db = trace.effective_nulling_db;
  score_decoded_bits(trial.message, result.decoded.bits, result, &trace);
  return result;
}

}  // namespace wivi::sim
