// Streaming-vs-batch parity for the multi-target tracking stage: a trace
// fed in arbitrary chunk sizes through rt::StreamingTracker +
// rt::StreamingMultiTracker must produce *bit-for-bit* the same tracks as
// the batch track::track_image() pass over the batch image — and the same
// holds through the full concurrent rt::Engine path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>

#include "src/core/tracker.hpp"
#include "src/rt/engine.hpp"
#include "src/rt/streaming.hpp"
#include "src/sim/synthetic.hpp"
#include "src/track/multi_tracker.hpp"

namespace wivi {
namespace {

void expect_histories_identical(const std::vector<track::TrackHistory>& batch,
                                const std::vector<track::TrackHistory>& other,
                                const std::string& label) {
  ASSERT_EQ(batch.size(), other.size()) << label;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& a = batch[i];
    const auto& b = other[i];
    ASSERT_EQ(a.id, b.id) << label;
    EXPECT_EQ(a.birth_column, b.birth_column) << label;
    EXPECT_EQ(a.state, b.state) << label;
    EXPECT_EQ(a.confirmed_ever, b.confirmed_ever) << label;
    ASSERT_EQ(a.times_sec.size(), b.times_sec.size()) << label;
    for (std::size_t k = 0; k < a.times_sec.size(); ++k) {
      ASSERT_EQ(a.times_sec[k], b.times_sec[k]) << label << " track " << a.id;
      ASSERT_EQ(a.angles_deg[k], b.angles_deg[k]) << label << " track " << a.id;
      ASSERT_EQ(a.updated[k], b.updated[k]) << label << " track " << a.id;
    }
  }
}

TEST(StreamingMultiTracker, BitForBitParityAcrossChunkSizes) {
  const CVec h = sim::synthetic_crossing_trace(8.0, 5);
  const core::MotionTracker imager;
  const core::AngleTimeImage batch_img = imager.process(h);
  const auto batch = track::track_image(batch_img);
  ASSERT_GT(batch.size(), 0u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{25},
                                  std::size_t{137}, h.size()}) {
    rt::StreamingTracker image_stage(imager.config());
    rt::StreamingMultiTracker tracks;
    for (std::size_t pos = 0; pos < h.size(); pos += chunk) {
      const std::size_t len = std::min(chunk, h.size() - pos);
      image_stage.push(CSpan(h).subspan(pos, len));
      tracks.update(image_stage.image());
    }
    EXPECT_EQ(tracks.columns_seen(), batch_img.num_times());
    expect_histories_identical(batch, tracks.tracker().histories(),
                               "chunk=" + std::to_string(chunk));
  }
}

TEST(StreamingMultiTracker, SnapshotsMatchBatchTrackerAfterEveryColumn) {
  // Stepping the batch tracker and the streaming wrapper in lockstep must
  // agree on the live snapshots after every column.
  const CVec h = sim::synthetic_crossing_trace(4.0, 11);
  const core::MotionTracker imager;
  const core::AngleTimeImage img = imager.process(h);

  track::MultiTargetTracker reference;
  rt::StreamingTracker image_stage(imager.config());
  rt::StreamingMultiTracker streaming;
  std::size_t cols_checked = 0;
  for (std::size_t pos = 0; pos < h.size(); pos += 64) {
    image_stage.push(CSpan(h).subspan(pos, std::min<std::size_t>(64, h.size() - pos)));
    streaming.update(image_stage.image());
    while (cols_checked < streaming.columns_seen()) {
      reference.step(img, cols_checked);
      ++cols_checked;
    }
    ASSERT_EQ(streaming.snapshots().size(), reference.snapshots().size());
    for (std::size_t i = 0; i < reference.snapshots().size(); ++i) {
      const auto& a = reference.snapshots()[i];
      const auto& b = streaming.snapshots()[i];
      ASSERT_EQ(a.id, b.id);
      ASSERT_EQ(a.state, b.state);
      ASSERT_EQ(a.angle_deg, b.angle_deg);
      ASSERT_EQ(a.velocity_dps, b.velocity_dps);
    }
  }
  EXPECT_EQ(cols_checked, img.num_times());
}

TEST(EngineTracking, EngineSessionMatchesBatchBitForBit) {
  const CVec h = sim::synthetic_crossing_trace(6.0, 21);
  const core::MotionTracker imager;
  const auto batch = track::track_image(imager.process(h));

  rt::Engine engine({.num_threads = 2});
  api::PipelineSpec spec;
  spec.image.emit_columns = false;
  spec.track = api::TrackStage{};
  rt::IngestConfig ingest;
  ingest.backpressure = rt::Backpressure::kBlock;  // lossless: exact results
  const rt::SessionId id = engine.open_session(spec, ingest);
  for (std::size_t pos = 0; pos < h.size(); pos += 200) {
    const std::size_t len = std::min<std::size_t>(200, h.size() - pos);
    CVec chunk(h.begin() + static_cast<std::ptrdiff_t>(pos),
               h.begin() + static_cast<std::ptrdiff_t>(pos + len));
    ASSERT_TRUE(engine.offer(id, std::move(chunk)));
  }
  engine.close_session(id);
  engine.drain();

  expect_histories_identical(batch, engine.multi_tracker(id).histories(),
                             "engine");

  // TracksEvents were delivered and the last one agrees with the final
  // confirmed-target count.
  std::vector<rt::Event> events;
  engine.poll(events);
  std::size_t tracks_events = 0;
  std::size_t last_confirmed = 0;
  for (const auto& e : events) {
    const auto* t = std::get_if<api::TracksEvent>(&e.event);
    if (!t) continue;
    ++tracks_events;
    last_confirmed = t->num_confirmed;
  }
  EXPECT_GT(tracks_events, 0u);
  EXPECT_EQ(last_confirmed, engine.multi_tracker(id).num_confirmed());
}

}  // namespace
}  // namespace wivi
