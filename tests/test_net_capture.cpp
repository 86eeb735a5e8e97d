// Capture/replay: WVCP file round trips, torn-tail tolerance, foreign-file
// rejection, and the headline determinism claim — replaying a capture
// through the shared Demux path reproduces the live run bit for bit, at the
// chunk level and all the way through the engine's typed event stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/net/capture.hpp"
#include "src/net/frame.hpp"
#include "src/net/ingest.hpp"
#include "src/net/reassembler.hpp"
#include "src/net/wire_fault.hpp"
#include "src/rt/engine.hpp"
#include "tests/net_test_util.hpp"

namespace wivi {
namespace {

namespace fs = std::filesystem;

/// A unique path under the system temp dir, removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("wivi_capture_" + tag + "_" +
               std::to_string(static_cast<unsigned>(::getpid())) + ".wvcp"))
                 .string()) {}
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
};

CVec ramp_chunk(std::size_t n, double base = 0.0) {
  CVec c(n);
  for (std::size_t i = 0; i < n; ++i)
    c[i] = cdouble(base + static_cast<double>(i), -static_cast<double>(i));
  return c;
}

std::vector<net::CaptureRecord> read_all(const std::string& path,
                                         bool* truncated = nullptr) {
  net::CaptureReader reader(path);
  std::vector<net::CaptureRecord> out;
  net::CaptureRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  if (truncated) *truncated = reader.truncated();
  return out;
}

TEST(Capture, SyncWriterReaderRoundTrip) {
  TempFile f("sync");
  std::vector<net::CaptureRecord> written;
  {
    net::CaptureWriter w(f.path);
    for (std::uint64_t seq = 0; seq < 10; ++seq) {
      const auto frames = net::chunk_to_frames(3, seq, ramp_chunk(8, seq));
      w.append(static_cast<std::int64_t>(1000 + seq), frames[0]);
      written.push_back(
          {static_cast<std::int64_t>(1000 + seq), frames[0]});
    }
    EXPECT_EQ(w.records(), 10u);
  }  // destructor closes

  bool truncated = true;
  const auto got = read_all(f.path, &truncated);
  EXPECT_FALSE(truncated);
  ASSERT_EQ(got.size(), written.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].arrival_ns, written[i].arrival_ns);
    EXPECT_EQ(got[i].frame, written[i].frame);
  }
}

TEST(Capture, TornTailReplaysIntactPrefix) {
  TempFile f("torn");
  {
    net::CaptureWriter w(f.path);
    for (std::uint64_t seq = 0; seq < 5; ++seq)
      w.append(0, net::chunk_to_frames(1, seq, ramp_chunk(4))[0]);
  }
  // Chop a few bytes off the last record, as a crash mid-write would.
  const auto size = fs::file_size(f.path);
  fs::resize_file(f.path, size - 7);

  bool truncated = false;
  const auto got = read_all(f.path, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(got.size(), 4u);  // the intact prefix survives
}

TEST(Capture, RejectsForeignAndUnsupportedFiles) {
  EXPECT_THROW(net::CaptureReader("/nonexistent/path/x.wvcp"), TypedError);

  TempFile junk("junk");
  {
    std::ofstream out(junk.path, std::ios::binary);
    out << "this is not a capture file at all";
  }
  EXPECT_THROW(net::CaptureReader{junk.path}, TypedError);

  // Right magic, future version.
  TempFile v2("v2");
  {
    std::ofstream out(v2.path, std::ios::binary);
    const unsigned char hdr[8] = {'W', 'V', 'C', 'P', 0x02, 0x00, 0x00, 0x00};
    out.write(reinterpret_cast<const char*>(hdr), 8);
  }
  try {
    net::CaptureReader reader(v2.path);
    FAIL() << "version 2 file accepted";
  } catch (const TypedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
  }
}

/// Collects delivered chunks for byte comparison between live and replay.
struct ChunkLog {
  std::string log;
  net::ChunkSink sink() {
    return [this](std::uint32_t sensor, std::uint64_t seq, CVec&& chunk) {
      log += "s" + std::to_string(sensor) + ":q" + std::to_string(seq) + ":";
      const std::size_t old = log.size();
      log.resize(old + chunk.size() * sizeof(cdouble));
      if (!chunk.empty())
        std::memcpy(log.data() + old, chunk.data(),
                    chunk.size() * sizeof(cdouble));
      return true;
    };
  }
  net::EndSink end_sink() {
    return [this](std::uint32_t sensor) {
      log += "end" + std::to_string(sensor) + ";";
    };
  }
};

TEST(Capture, ReplayMatchesLiveDemuxBitExact) {
  // A faulted wire (drops, dups, reorder, truncation, corruption) feeds
  // the live path; accepted frames are captured. Replay must land every
  // chunk byte-identically and reproduce the reassembly accounting.
  TempFile f("parity");
  net::Reassembler::Config rcfg;
  rcfg.window_chunks = 4;

  ChunkLog live;
  net::Demux demux(rcfg, live.sink(), live.end_sink());
  net::WireFaultSpec spec;
  spec.seed = 2026;
  spec.drop_prob = 0.1;
  spec.duplicate_prob = 0.1;
  spec.reorder_prob = 0.2;
  spec.truncate_prob = 0.05;
  spec.corrupt_prob = 0.05;
  net::FaultyWire wire(spec);

  std::uint64_t accepted = 0, rejected = 0;
  {
    net::CaptureWriter writer(f.path);
    const auto deliver = [&](std::vector<std::byte>&& frame) {
      net::FrameView v;
      if (net::parse_frame(frame, v) == net::ParseStatus::kOk) {
        demux.feed(v);
        writer.append(static_cast<std::int64_t>(accepted), frame);
        ++accepted;
      } else {
        ++rejected;  // a truncated/corrupted frame: typed reject, no tap
      }
    };
    for (std::uint64_t seq = 0; seq < 80; ++seq) {
      for (const auto& frame :
           net::chunk_to_frames(5, seq, ramp_chunk(40, seq), 256))
        wire.feed(frame, deliver);
    }
    for (const auto& frame : net::chunk_to_frames(
             5, 80, CVec{}, net::kMaxPayloadBytes, net::kFlagEndOfStream))
      wire.feed(frame, deliver);
    wire.flush(deliver);
    demux.flush();
  }
  ASSERT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);  // the fault spec must actually have bitten

  ChunkLog replayed;
  net::Replayer replayer(f.path, rcfg, replayed.sink(), replayed.end_sink());
  EXPECT_EQ(replayer.run(), accepted);
  EXPECT_EQ(replayer.parse_rejects(), 0u);  // capture stores accepted only

  EXPECT_EQ(live.log, replayed.log);  // bit-identical chunk stream

  const auto a = demux.stats();
  const auto b = replayer.demux().stats();
  EXPECT_EQ(a.frames_in, b.frames_in);
  EXPECT_EQ(a.chunks_delivered, b.chunks_delivered);
  EXPECT_EQ(a.chunks_evicted, b.chunks_evicted);
  EXPECT_EQ(a.chunk_gaps, b.chunk_gaps);
  EXPECT_EQ(a.frames_dup, b.frames_dup);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
}

TEST(Capture, CorruptedCaptureRejectsLikeCorruptWire) {
  TempFile f("corrupt");
  {
    net::CaptureWriter w(f.path);
    auto good = net::chunk_to_frames(1, 0, ramp_chunk(8))[0];
    w.append(0, good);
    auto bad = net::chunk_to_frames(1, 1, ramp_chunk(8))[0];
    bad[net::kHeaderSize + 1] ^= std::byte{0x80};  // stored bytes corrupt
    w.append(1, bad);
  }
  ChunkLog out;
  net::Replayer replayer(f.path, {}, out.sink(), out.end_sink());
  EXPECT_EQ(replayer.run(), 1u);
  EXPECT_EQ(replayer.parse_rejects(), 1u);
}

/// Run one engine fed by parsed frames (optionally capturing), drain it
/// and return the bit-exact event log of the single sensor's session.
std::string engine_event_log(const std::vector<std::vector<std::byte>>& frames,
                             std::size_t chunk_len,
                             const std::string& capture_path) {
  rt::Engine::Config ec;
  ec.num_threads = 1;
  rt::Engine engine(ec);

  net::EngineBinding::Config bc;
  bc.spec.count = api::CountStage{};
  bc.spec.guard.max_chunk_samples = chunk_len * 4;
  bc.ingest.ring_capacity = 8;
  bc.ingest.backpressure = rt::Backpressure::kBlock;
  net::EngineBinding binding(engine, bc);

  net::Demux demux({}, binding.sink(), binding.end_sink());
  std::unique_ptr<net::CaptureWriter> writer;
  if (!capture_path.empty())
    writer = std::make_unique<net::CaptureWriter>(capture_path);
  std::int64_t t = 0;
  for (const auto& frame : frames) {
    net::FrameView v;
    if (net::parse_frame(frame, v) != net::ParseStatus::kOk) continue;
    demux.feed(v);
    if (writer) writer->append(t++, frame);
  }
  demux.flush();
  binding.close_all();
  engine.drain();

  std::vector<rt::Event> events;
  engine.poll(events);
  const auto id = binding.session(7);
  EXPECT_TRUE(id.has_value());
  return nettest::event_log(events, *id);
}

TEST(Capture, EngineEventStreamReplaysBitIdentically) {
  for (std::size_t chunk_len : {25u, 64u}) {
    // Build the full frame sequence of one sensor's stream.
    auto feed = nettest::make_feed(800, 77, chunk_len);
    std::vector<std::vector<std::byte>> frames;
    CVec chunk;
    std::uint64_t seq = 0;
    while (feed.next(chunk)) {
      for (auto& f : net::chunk_to_frames(7, seq, chunk, 256))
        frames.push_back(std::move(f));
      ++seq;
    }
    for (auto& f : net::chunk_to_frames(7, seq, CVec{}, net::kMaxPayloadBytes,
                                        net::kFlagEndOfStream))
      frames.push_back(std::move(f));

    TempFile f("engine" + std::to_string(chunk_len));
    const std::string live = engine_event_log(frames, chunk_len, f.path);
    ASSERT_FALSE(live.empty());

    // Replay the capture into a fresh engine; the typed event stream must
    // compare byte-equal to the live run.
    rt::Engine::Config ec;
    ec.num_threads = 1;
    rt::Engine engine(ec);
    net::EngineBinding::Config bc;
    bc.spec.count = api::CountStage{};
    bc.spec.guard.max_chunk_samples = chunk_len * 4;
    bc.ingest.ring_capacity = 8;
    bc.ingest.backpressure = rt::Backpressure::kBlock;
    net::EngineBinding binding(engine, bc);
    net::Replayer replayer(f.path, {}, binding.sink(), binding.end_sink());
    EXPECT_EQ(replayer.run(), frames.size());
    binding.close_all();
    engine.drain();

    std::vector<rt::Event> events;
    engine.poll(events);
    const auto id = binding.session(7);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(live, nettest::event_log(events, *id))
        << "chunk_len " << chunk_len;
  }
}

}  // namespace
}  // namespace wivi
