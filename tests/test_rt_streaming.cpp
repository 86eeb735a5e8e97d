// Streaming-vs-batch parity: a trace fed through the rt streaming stages
// in arbitrary chunk sizes must reproduce the batch results *bit for bit*
// — same doubles, not just close ones. This holds because the streaming
// path executes the identical arithmetic in the identical order (every
// image column is a pure function of its window's samples, wherever they
// sit in the buffer), and it is the property the whole runtime's
// correctness rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/core/counting.hpp"
#include "src/core/gesture.hpp"
#include "src/core/tracker.hpp"
#include "src/rt/streaming.hpp"
#include "src/sim/experiment.hpp"
#include "src/sim/human.hpp"
#include "src/sim/room.hpp"
#include "src/sim/synthetic.hpp"

namespace wivi {
namespace {

// Traces come from sim::synthetic_mover_trace; the 6000-sample one is
// long enough to cross StreamingTracker's compaction threshold so the
// compaction path is covered too.

void expect_images_identical(const core::AngleTimeImage& batch,
                             const core::AngleTimeImage& streamed,
                             const char* label) {
  ASSERT_EQ(batch.num_times(), streamed.num_times()) << label;
  ASSERT_EQ(batch.num_angles(), streamed.num_angles()) << label;
  for (std::size_t a = 0; a < batch.num_angles(); ++a)
    ASSERT_EQ(batch.angles_deg[a], streamed.angles_deg[a]) << label;
  for (std::size_t t = 0; t < batch.num_times(); ++t) {
    ASSERT_EQ(batch.times_sec[t], streamed.times_sec[t]) << label << " col " << t;
    ASSERT_EQ(batch.model_orders[t], streamed.model_orders[t])
        << label << " col " << t;
    for (std::size_t a = 0; a < batch.num_angles(); ++a)
      ASSERT_EQ(batch.columns[t][a], streamed.columns[t][a])
          << label << " col " << t << " angle " << a;
  }
}

TEST(StreamingTracker, BitForBitParityAcrossChunkSizes) {
  const CVec h = sim::synthetic_mover_trace(6000);
  const double t0 = 3.25;
  // The default hop, and one longer than the window (samples between
  // windows are never used, and the next window starts past the buffer).
  for (const int hop : {25, 130}) {
    core::MotionTracker::Config cfg;
    cfg.hop = hop;
    const core::MotionTracker tracker(cfg);
    const core::AngleTimeImage batch = tracker.process(h, t0);

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{25}, std::size_t{100},
                                    std::size_t{137}, h.size()}) {
      rt::StreamingTracker streaming(tracker.config(), t0);
      std::size_t emitted = 0;
      for (std::size_t pos = 0; pos < h.size(); pos += chunk) {
        const std::size_t len = std::min(chunk, h.size() - pos);
        emitted += streaming.push(CSpan(h).subspan(pos, len));
      }
      EXPECT_EQ(emitted, batch.num_times());
      EXPECT_EQ(streaming.samples_seen(), h.size());
      const std::string label =
          "hop=" + std::to_string(hop) + " chunk=" + std::to_string(chunk);
      expect_images_identical(batch, streaming.image(), label.c_str());
    }
  }
}

TEST(StreamingTracker, ThreadCountNeverChangesABit) {
  // push(chunk, n) shards the columns a chunk completes over n workers.
  // Whole-trace pushes read the chunk in place; smaller chunks mix the
  // in-place and buffered paths (a parallel block then starts mid-buffer),
  // and alternating thread counts hand the stream between the two loops.
  const CVec h = sim::synthetic_mover_trace(3000);
  const double t0 = 0.5;
  for (const int hop : {25, 130}) {
    core::MotionTracker::Config cfg;
    cfg.hop = hop;
    const core::AngleTimeImage batch = core::MotionTracker(cfg).process(h, t0);
    for (const int threads : {0, 2, 3, 8}) {
      for (const std::size_t chunk :
           {std::size_t{137}, std::size_t{1000}, h.size()}) {
        rt::StreamingTracker streaming(cfg, t0);
        std::size_t emitted = 0;
        for (std::size_t pos = 0, i = 0; pos < h.size(); pos += chunk, ++i) {
          const std::size_t len = std::min(chunk, h.size() - pos);
          emitted +=
              streaming.push(CSpan(h).subspan(pos, len), i % 2 ? 1 : threads);
        }
        EXPECT_EQ(emitted, batch.num_times());
        EXPECT_EQ(streaming.samples_seen(), h.size());
        const std::string label = "hop=" + std::to_string(hop) +
                                  " threads=" + std::to_string(threads) +
                                  " chunk=" + std::to_string(chunk);
        expect_images_identical(batch, streaming.image(), label.c_str());
      }
    }
  }
}

TEST(StreamingTracker, RejectsABadThreadCountAndPushAfterTakeImage) {
  const CVec h = sim::synthetic_mover_trace(500);
  rt::StreamingTracker streaming;
  EXPECT_THROW(streaming.push(h, -1), InvalidArgument);
  EXPECT_EQ(streaming.samples_seen(), 0u);  // rejected before any state
  streaming.push(h);
  (void)streaming.take_image();
  EXPECT_THROW(streaming.push(h), InvalidArgument);
}

TEST(StreamingTracker, ResetStartsAFreshTrace) {
  const CVec h = sim::synthetic_mover_trace(500);
  rt::StreamingTracker streaming;
  streaming.push(h);
  ASSERT_GT(streaming.num_columns(), 0u);
  streaming.reset(1.0);
  EXPECT_EQ(streaming.num_columns(), 0u);
  EXPECT_EQ(streaming.samples_seen(), 0u);
  streaming.push(h);
  const core::MotionTracker tracker;
  expect_images_identical(tracker.process(h, 1.0), streaming.image(), "reset");
}

TEST(StreamingCounter, RunningVarianceMatchesBatch) {
  const CVec h = sim::synthetic_mover_trace(2000);
  const core::MotionTracker tracker;
  const core::AngleTimeImage batch = tracker.process(h, 0.0);
  const double batch_variance = core::spatial_variance(batch);

  rt::StreamingTracker streaming(tracker.config());
  rt::StreamingCounter counter;
  for (std::size_t pos = 0; pos < h.size(); pos += 64) {
    streaming.push(CSpan(h).subspan(pos, std::min<std::size_t>(64, h.size() - pos)));
    counter.update(streaming.image());
  }
  EXPECT_EQ(counter.columns_seen(), batch.num_times());
  EXPECT_EQ(counter.variance(), batch_variance) << "not bit-for-bit";
}

/// Gesture parity runs on a real simulated gesture trial (the §7.5 setup,
/// three bits at 4 m) so the decoder actually has bits to find.
class StreamingGestureParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(11);
    sim::Scene scene(sim::stata_conference_a(), sim::default_calibration(),
                     rng);
    const sim::SubjectParams params = sim::subject(1);
    profile_.step_length_m = params.step_length_m;
    profile_.step_duration_sec = params.step_duration_sec;

    const std::vector<core::Bit> message{core::Bit::kOne, core::Bit::kZero,
                                         core::Bit::kOne};
    const rf::Vec2 start{0.0, scene.wall_y() + 4.0};
    const double lead_in = 2.0;
    const auto steps = core::encode_message(message, profile_, lead_in);
    const double duration =
        lead_in + core::message_duration_sec(message.size(), profile_) + 3.0;
    scene.add_human(params,
                    sim::gesture_trajectory(start, scene.toward_device(start),
                                            steps, profile_, duration + 10.0,
                                            /*dt=*/0.01),
                    rng());

    sim::ExperimentRunner::Config cfg;
    cfg.trace_duration_sec = duration;
    sim::ExperimentRunner runner(scene, cfg, rng.fork());
    trace_ = new sim::TraceResult(runner.run());
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static core::GestureProfile profile_;
  static sim::TraceResult* trace_;
};

core::GestureProfile StreamingGestureParity::profile_;
sim::TraceResult* StreamingGestureParity::trace_ = nullptr;

TEST_F(StreamingGestureParity, FlushDecodeEqualsBatchDecode) {
  const core::MotionTracker tracker;
  const core::AngleTimeImage batch_img =
      tracker.process(trace_->h, trace_->t0);
  core::GestureDecoder::Config dec_cfg;
  dec_cfg.profile = profile_;
  const core::GestureDecoder decoder(dec_cfg);
  const core::GestureDecoder::Result batch = decoder.decode(batch_img);
  ASSERT_GT(batch.bits.size(), 0u) << "trial produced no decodable bits";

  rt::StreamingTracker streaming(tracker.config(), trace_->t0);
  rt::StreamingGesture::Config gcfg;
  gcfg.decoder = dec_cfg;
  rt::StreamingGesture gesture(gcfg);

  std::vector<core::GestureDecoder::DecodedBit> emitted;
  const CSpan h(trace_->h);
  for (std::size_t pos = 0; pos < h.size(); pos += 73) {
    streaming.push(h.subspan(pos, std::min<std::size_t>(73, h.size() - pos)));
    for (auto& b : gesture.poll(streaming.image(), /*flush=*/false))
      emitted.push_back(b);
  }
  for (auto& b : gesture.poll(streaming.image(), /*flush=*/true))
    emitted.push_back(b);

  // The flush decode is the batch decode, exactly.
  const core::GestureDecoder::Result& flushed = gesture.result();
  ASSERT_EQ(flushed.bits.size(), batch.bits.size());
  for (std::size_t i = 0; i < batch.bits.size(); ++i) {
    EXPECT_EQ(flushed.bits[i].value, batch.bits[i].value);
    EXPECT_EQ(flushed.bits[i].time_sec, batch.bits[i].time_sec);
    EXPECT_EQ(flushed.bits[i].snr_db, batch.bits[i].snr_db);
  }
  ASSERT_EQ(flushed.symbols.size(), batch.symbols.size());
  ASSERT_EQ(flushed.matched_output.size(), batch.matched_output.size());
  for (std::size_t i = 0; i < batch.matched_output.size(); ++i)
    ASSERT_EQ(flushed.matched_output[i], batch.matched_output[i]);
  EXPECT_EQ(flushed.noise_sigma, batch.noise_sigma);

  // Every bit was emitted exactly once, in order.
  ASSERT_EQ(emitted.size(), batch.bits.size());
  for (std::size_t i = 0; i < batch.bits.size(); ++i) {
    EXPECT_EQ(emitted[i].value, batch.bits[i].value);
    EXPECT_EQ(emitted[i].time_sec, batch.bits[i].time_sec);
  }
}

}  // namespace
}  // namespace wivi
