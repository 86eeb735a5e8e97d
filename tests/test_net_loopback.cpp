// Loopback integration: the full wire path through real sockets —
// sim trace → Sender frames → UDP datagrams / a TCP stream → Receiver →
// per-sensor reassembly → EngineBinding → rt::Engine sessions. The
// headline assertion is parity: a network-fed engine must produce the
// byte-identical typed event stream an in-process feed of the same
// chunks produces. Also pins the wivi_net_* metric export (engine
// snapshot + EngineStats mirror) and typed rejection of malformed
// datagrams arriving over a real socket.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/net/ingest.hpp"
#include "src/net/receiver.hpp"
#include "src/net/sender.hpp"
#include "src/obs/snapshot.hpp"
#include "src/rt/engine.hpp"
#include "tests/net_test_util.hpp"

namespace wivi {
namespace {

constexpr std::size_t kSamples = 800;
constexpr std::size_t kChunkLen = 25;
constexpr std::uint64_t kTraceSeed = 4242;
constexpr std::size_t kMaxPayload = 256;  // force multi-fragment chunks

api::PipelineSpec make_spec() {
  api::PipelineSpec spec;
  spec.count = api::CountStage{};
  spec.guard.max_chunk_samples = kChunkLen * 4;
  return spec;
}

rt::IngestConfig make_ingest() {
  rt::IngestConfig ic;
  ic.ring_capacity = 8;
  ic.backpressure = rt::Backpressure::kBlock;
  return ic;
}

/// The ground truth: the same trace fed straight into an engine session,
/// no network. Returns the session's bit-exact event log.
std::string in_process_event_log(std::uint64_t trace_seed) {
  rt::Engine::Config ec;
  ec.num_threads = 1;
  rt::Engine engine(ec);
  const rt::SessionId id = engine.open_session(make_spec(), make_ingest());
  auto feed = nettest::make_feed(kSamples, trace_seed, kChunkLen);
  CVec chunk;
  while (feed.next(chunk)) engine.offer(id, std::move(chunk));
  engine.close_session(id);
  engine.drain();
  std::vector<rt::Event> events;
  engine.poll(events);
  return nettest::event_log(events, id);
}

/// Send every chunk of `feed` as sensor `sensor_id`'s stream, then its
/// end-of-stream mark (the send loop of bench_net and wivi_capture).
/// Returns the chunks sent.
std::size_t send_stream(net::Sender& sender, std::uint32_t sensor_id,
                        sim::ChunkedTrace& feed) {
  std::size_t sent = 0;
  CVec chunk;
  while (feed.next(chunk)) {
    sender.send_chunk(sensor_id, chunk);
    ++sent;
  }
  sender.send_end(sensor_id);
  return sent;
}

/// Drive the receiver until the socket goes quiet: a few empty polls in a
/// row mean everything in flight has been drained.
void pump(net::Receiver& rx) {
  int idle = 0;
  while (idle < 3) {
    if (rx.poll_once(50) == 0)
      ++idle;
    else
      idle = 0;
  }
}

/// One network-fed engine run over the given transport; returns the
/// sensor's event log (and exposes stats through the out-params).
std::string network_event_log(net::Transport transport,
                              std::uint64_t trace_seed,
                              std::uint32_t sensor_id,
                              net::WireStats* wire_out = nullptr,
                              std::uint64_t* frames_sent = nullptr) {
  rt::Engine::Config ec;
  ec.num_threads = 1;
  rt::Engine engine(ec);
  net::EngineBinding binding(engine, {make_spec(), make_ingest()});

  net::ReceiverConfig rc;
  rc.enable_udp = transport == net::Transport::kUdp;
  rc.enable_tcp = transport == net::Transport::kTcp;
  rc.registry = &engine.registry();
  net::Receiver rx(rc, binding.sink(), binding.end_sink());

  net::Sender::Config sc;
  sc.transport = transport;
  sc.port = transport == net::Transport::kUdp ? rx.udp_port() : rx.tcp_port();
  sc.max_payload = kMaxPayload;
  net::Sender sender(sc);
  auto feed = nettest::make_feed(kSamples, trace_seed, kChunkLen);
  send_stream(sender, sensor_id, feed);
  sender.close();

  pump(rx);
  rx.flush();
  binding.close_all();  // no-op when end-of-stream already closed it
  engine.drain();

  std::vector<rt::Event> events;
  engine.poll(events);
  const auto id = binding.session(sensor_id);
  EXPECT_TRUE(id.has_value()) << "sensor never bound to a session";
  if (!id) return {};
  if (wire_out) *wire_out = rx.wire_stats();
  if (frames_sent) *frames_sent = sender.frames_sent();
  return nettest::event_log(events, *id);
}

TEST(Loopback, UdpEngineMatchesInProcessFeedBitExactly) {
  const std::string live = in_process_event_log(kTraceSeed);
  ASSERT_FALSE(live.empty());
  net::WireStats wire;
  std::uint64_t sent = 0;
  const std::string net_log = network_event_log(
      net::Transport::kUdp, kTraceSeed, 7, &wire, &sent);
  EXPECT_EQ(live, net_log);
  // Loopback UDP at test sizes: nothing lost, everything accepted.
  EXPECT_EQ(wire.frames_in, sent);
  EXPECT_EQ(wire.frames_accepted, sent);
  EXPECT_EQ(wire.frames_rejected, 0u);
  EXPECT_EQ(wire.frames_in, wire.frames_accepted + wire.frames_rejected);
}

TEST(Loopback, TcpEngineMatchesInProcessFeedBitExactly) {
  const std::string live = in_process_event_log(kTraceSeed);
  ASSERT_FALSE(live.empty());
  net::WireStats wire;
  std::uint64_t sent = 0;
  const std::string net_log = network_event_log(
      net::Transport::kTcp, kTraceSeed, 9, &wire, &sent);
  EXPECT_EQ(live, net_log);
  EXPECT_EQ(wire.connections_in, 1u);
  EXPECT_EQ(wire.frames_accepted, sent);
  EXPECT_EQ(wire.frames_rejected, 0u);
}

TEST(Loopback, UdpAndTcpProduceIdenticalEventStreams) {
  EXPECT_EQ(network_event_log(net::Transport::kUdp, 555, 1),
            network_event_log(net::Transport::kTcp, 555, 1));
}

TEST(Loopback, MultiSensorStreamsDemuxToSeparateSessions) {
  rt::Engine::Config ec;
  ec.num_threads = 1;
  rt::Engine engine(ec);
  net::EngineBinding binding(engine, {make_spec(), make_ingest()});
  net::ReceiverConfig rc;
  rc.enable_tcp = false;
  net::Receiver rx(rc, binding.sink(), binding.end_sink());

  net::Sender::Config sc;
  sc.port = rx.udp_port();
  sc.max_payload = kMaxPayload;
  net::Sender sender(sc);

  // Interleave two sensors' chunk streams over one socket.
  auto feed_a = nettest::make_feed(kSamples, 100, kChunkLen);
  auto feed_b = nettest::make_feed(kSamples, 200, kChunkLen);
  CVec chunk;
  bool more_a = true, more_b = true;
  while (more_a || more_b) {
    if (more_a && (more_a = feed_a.next(chunk))) sender.send_chunk(11, chunk);
    if (more_b && (more_b = feed_b.next(chunk))) sender.send_chunk(22, chunk);
    rx.poll_once(0);  // drain as we go: bounded socket buffers
  }
  sender.send_end(11);
  sender.send_end(22);
  pump(rx);
  rx.flush();
  binding.close_all();
  engine.drain();

  EXPECT_EQ(engine.num_sessions(), 2u);
  EXPECT_EQ(rx.demux().num_sensors(), 2u);
  const auto id_a = binding.session(11);
  const auto id_b = binding.session(22);
  ASSERT_TRUE(id_a.has_value());
  ASSERT_TRUE(id_b.has_value());

  std::vector<rt::Event> events;
  engine.poll(events);
  EXPECT_EQ(nettest::event_log(events, *id_a), in_process_event_log(100));
  EXPECT_EQ(nettest::event_log(events, *id_b), in_process_event_log(200));
}

TEST(Loopback, MalformedDatagramsRejectTypedOverRealSockets) {
  net::Demux::Stats ignored;
  (void)ignored;
  std::size_t delivered = 0;
  net::ReceiverConfig rc;
  rc.enable_tcp = false;
  net::Receiver rx(rc, [&](std::uint32_t, std::uint64_t, CVec&&) {
    ++delivered;
    return true;
  });
  net::Sender::Config sc;
  sc.port = rx.udp_port();
  net::Sender sender(sc);

  const auto good = net::chunk_to_frames(1, 0, CVec(8, cdouble(1, 2)))[0];
  sender.send_raw(good);

  auto bad_magic = good;
  bad_magic[1] = std::byte{0x00};
  sender.send_raw(bad_magic);

  auto bad_crc = good;
  bad_crc[net::kHeaderSize] ^= std::byte{0xFF};
  sender.send_raw(bad_crc);

  // A truncated frame: a datagram is never a prefix, so kNeedMore at the
  // parser surfaces as a length rejection.
  sender.send_raw(std::span(good).first(good.size() - 4));

  // A frame with trailing garbage: datagram/frame size mismatch.
  auto trailing = good;
  trailing.push_back(std::byte{0xAB});
  sender.send_raw(trailing);

  pump(rx);
  const auto& w = rx.wire_stats();
  EXPECT_EQ(w.datagrams_in, 5u);
  EXPECT_EQ(w.frames_in, 5u);
  EXPECT_EQ(w.frames_accepted, 1u);
  EXPECT_EQ(w.frames_rejected, 4u);
  EXPECT_EQ(w.reject_bad_magic, 1u);
  EXPECT_EQ(w.reject_bad_crc, 1u);
  EXPECT_EQ(w.reject_bad_length, 2u);
  EXPECT_EQ(delivered, 1u);
}

TEST(Loopback, NetMetricsExportThroughEngineSnapshotAndStats) {
  rt::Engine::Config ec;
  ec.num_threads = 1;
  rt::Engine engine(ec);
  net::EngineBinding binding(engine, {make_spec(), make_ingest()});
  net::ReceiverConfig rc;
  rc.enable_tcp = false;
  rc.registry = &engine.registry();
  net::Receiver rx(rc, binding.sink(), binding.end_sink());

  net::Sender::Config sc;
  sc.port = rx.udp_port();
  sc.max_payload = kMaxPayload;
  net::Sender sender(sc);
  auto feed = nettest::make_feed(kSamples, 9, kChunkLen);
  send_stream(sender, 3, feed);
  pump(rx);
  rx.flush();
  binding.close_all();
  engine.drain();

  const auto snap = engine.snapshot();
  const std::uint64_t frames_in = snap.counter_value("wivi_net_frames_in_total");
  const std::uint64_t accepted =
      snap.counter_value("wivi_net_frames_accepted_total");
  const std::uint64_t delivered =
      snap.counter_value("wivi_net_frames_delivered_total");
  const std::uint64_t control =
      snap.counter_value("wivi_net_frames_control_total");
  EXPECT_EQ(frames_in, sender.frames_sent());
  EXPECT_EQ(accepted, frames_in);
  // Conservation at the metric level: every accepted frame reached a
  // terminal bucket once the flush ran.
  EXPECT_EQ(accepted, delivered + control +
                          snap.counter_value("wivi_net_frames_dup_total") +
                          snap.counter_value("wivi_net_frames_stale_total") +
                          snap.counter_value("wivi_net_frames_evicted_total") +
                          snap.counter_value(
                              "wivi_net_frames_decode_failed_total") +
                          snap.counter_value(
                              "wivi_net_frames_sink_dropped_total") +
                          snap.counter_value("wivi_net_frames_in_flight"));
  EXPECT_EQ(snap.counter_value("wivi_net_frames_in_flight"), 0u);
  EXPECT_EQ(snap.counter_value("wivi_net_bytes_in_total"),
            sender.bytes_sent());
  EXPECT_EQ(snap.counter_value("wivi_net_sensors"), 1u);

  // The EngineStats mirror carries the same numbers for stats() callers.
  const rt::Engine::EngineStats st = engine.stats();
  EXPECT_EQ(st.net_frames_in, frames_in);
  EXPECT_EQ(st.net_frames_accepted, accepted);
  EXPECT_EQ(st.net_frames_rejected, 0u);
  EXPECT_EQ(st.net_chunks_delivered,
            snap.counter_value("wivi_net_chunks_delivered_total"));
  EXPECT_EQ(st.net_bytes_in, sender.bytes_sent());
}

TEST(Loopback, BackgroundThreadReceiverDeliversEverything) {
  rt::Engine::Config ec;
  ec.num_threads = 1;
  rt::Engine engine(ec);
  net::EngineBinding binding(engine, {make_spec(), make_ingest()});
  net::ReceiverConfig rc;
  rc.enable_udp = false;
  net::Receiver rx(rc, binding.sink(), binding.end_sink());
  rx.start();

  net::Sender::Config sc;
  sc.transport = net::Transport::kTcp;
  sc.port = rx.tcp_port();
  sc.max_payload = kMaxPayload;
  net::Sender sender(sc);
  auto feed = nettest::make_feed(kSamples, kTraceSeed, kChunkLen);
  const std::size_t chunks = send_stream(sender, 4, feed);
  sender.close();

  // TCP is lossless: wait until the background thread has accepted
  // every frame, then stop it.
  const std::uint64_t expect_frames = sender.frames_sent();
  for (int i = 0; i < 2000 && rx.wire_stats().frames_accepted < expect_frames;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rx.stop();
  rx.flush();
  binding.close_all();
  engine.drain();

  EXPECT_EQ(rx.wire_stats().frames_accepted, expect_frames);
  const auto id = binding.session(4);
  ASSERT_TRUE(id.has_value());
  std::vector<rt::Event> events;
  engine.poll(events);
  EXPECT_EQ(nettest::event_log(events, *id), in_process_event_log(kTraceSeed));
  EXPECT_GT(chunks, 0u);
}

}  // namespace
}  // namespace wivi
