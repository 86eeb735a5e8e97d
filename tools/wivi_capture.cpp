// wivi_capture — record, replay and inspect network-ingress captures.
//
// The operational face of the capture/replay subsystem (DESIGN.md §13):
//
//   wivi_capture record  --out FILE [--samples N] [--seed N]
//                        [--chunk N] [--sensor ID] [--transport udp|tcp]
//                        [--drop P] [--dup P] [--reorder P] [--truncate P]
//                        [--corrupt P] [--fault-seed N]
//       Drive a synthetic sensor stream through a real loopback socket
//       into a Receiver with a capture tap, writing every accepted frame
//       (and its arrival time) to FILE. The optional fault probabilities
//       put a deterministic FaultyWire between encoder and socket, so the
//       recording exercises loss/reorder/corruption exactly like the
//       chaos suites.
//
//   wivi_capture replay  --in FILE [--window N]
//       Feed FILE through the same Demux path the live receiver ran and
//       print the delivery/accounting summary. Replaying twice prints
//       byte-identical numbers — a capture is a deterministic regression
//       case.
//
//   wivi_capture inspect --in FILE [--limit N]
//       Dump the file header and per-record frame headers (arrival time,
//       sensor, seq, fragment, payload bytes, parse status) without
//       reassembling anything.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/net/capture.hpp"
#include "src/net/frame.hpp"
#include "src/net/receiver.hpp"
#include "src/net/sender.hpp"
#include "src/net/wire_fault.hpp"
#include "src/sim/feeder.hpp"
#include "src/sim/synthetic.hpp"

namespace {

using namespace wivi;

int usage() {
  std::fprintf(
      stderr,
      "usage: wivi_capture record  --out FILE [--samples N] [--seed N]\n"
      "                            [--chunk N] [--sensor ID]\n"
      "                            [--transport udp|tcp] [--drop P] [--dup P]\n"
      "                            [--reorder P] [--truncate P] [--corrupt P]\n"
      "                            [--fault-seed N]\n"
      "       wivi_capture replay  --in FILE [--window N]\n"
      "       wivi_capture inspect --in FILE [--limit N]\n");
  return 2;
}

/// Minimal flag cracker shared by the three subcommands.
struct Args {
  std::string out, in;
  std::size_t samples = 4000;
  std::uint64_t seed = 1;
  std::size_t chunk = 64;
  std::uint32_t sensor = 1;
  std::string transport = "udp";
  net::WireFaultSpec fault;
  bool faulty = false;
  std::uint64_t window = 8;
  std::size_t limit = 0;  // 0 = no limit

  bool parse(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      const bool v = i + 1 < argc;
      auto fprob = [&](double* slot) {
        *slot = std::strtod(argv[++i], nullptr);
        faulty = true;
        return true;
      };
      if (a == "--out" && v) out = argv[++i];
      else if (a == "--in" && v) in = argv[++i];
      else if (a == "--samples" && v) samples = std::strtoull(argv[++i], nullptr, 10);
      else if (a == "--seed" && v) seed = std::strtoull(argv[++i], nullptr, 10);
      else if (a == "--chunk" && v) chunk = std::strtoull(argv[++i], nullptr, 10);
      else if (a == "--sensor" && v) sensor = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      else if (a == "--transport" && v) transport = argv[++i];
      else if (a == "--drop" && v) fprob(&fault.drop_prob);
      else if (a == "--dup" && v) fprob(&fault.duplicate_prob);
      else if (a == "--reorder" && v) fprob(&fault.reorder_prob);
      else if (a == "--truncate" && v) fprob(&fault.truncate_prob);
      else if (a == "--corrupt" && v) fprob(&fault.corrupt_prob);
      else if (a == "--fault-seed" && v) { fault.seed = std::strtoull(argv[++i], nullptr, 10); }
      else if (a == "--window" && v) window = std::strtoull(argv[++i], nullptr, 10);
      else if (a == "--limit" && v) limit = std::strtoull(argv[++i], nullptr, 10);
      else return false;
    }
    return true;
  }
};

void print_demux_summary(const net::Demux& demux, std::uint64_t frames,
                         std::uint64_t parse_rejects, bool truncated) {
  const auto s = demux.stats();
  std::printf("frames replayed     %" PRIu64 "\n", frames);
  std::printf("parse rejects       %" PRIu64 "\n", parse_rejects);
  std::printf("capture truncated   %s\n", truncated ? "yes" : "no");
  std::printf("sensors             %zu\n", demux.num_sensors());
  std::printf("chunks delivered    %" PRIu64 "\n", s.chunks_delivered);
  std::printf("chunks evicted      %" PRIu64 "\n", s.chunks_evicted);
  std::printf("chunk gaps          %" PRIu64 "\n", s.chunk_gaps);
  std::printf("bytes delivered     %" PRIu64 "\n", s.bytes_delivered);
  std::printf("frames: in %" PRIu64 " delivered %" PRIu64 " dup %" PRIu64
              " stale %" PRIu64 " evicted %" PRIu64 " decode_failed %" PRIu64
              " sink_dropped %" PRIu64 " control %" PRIu64
              " in_flight %" PRIu64 "\n",
              s.frames_in, s.frames_delivered, s.frames_dup, s.frames_stale,
              s.frames_evicted, s.frames_decode_failed, s.frames_sink_dropped,
              s.frames_control, s.frames_in_flight);
  const bool conserved =
      s.frames_in == s.frames_delivered + s.frames_dup + s.frames_stale +
                         s.frames_evicted + s.frames_decode_failed +
                         s.frames_sink_dropped + s.frames_control +
                         s.frames_in_flight;
  std::printf("conservation law    %s\n", conserved ? "held" : "VIOLATED");
}

int cmd_record(const Args& args) {
  if (args.out.empty()) return usage();

  net::CaptureWriter writer(args.out);

  std::uint64_t chunks_delivered = 0;
  net::ReceiverConfig rc;
  rc.enable_udp = args.transport == "udp";
  rc.enable_tcp = args.transport == "tcp";
  rc.capture = &writer;
  net::Receiver rx(rc, [&](std::uint32_t, std::uint64_t, CVec&&) {
    ++chunks_delivered;
    return true;
  });

  net::FaultyWire wire(args.fault);
  net::Sender::Config sc;
  sc.transport = args.transport == "udp" ? net::Transport::kUdp
                                         : net::Transport::kTcp;
  sc.port = args.transport == "udp" ? rx.udp_port() : rx.tcp_port();
  sc.max_payload = 1024;
  if (args.faulty) sc.wire = &wire;
  net::Sender sender(sc);

  sim::TraceResult tr;
  tr.h = sim::synthetic_mover_trace(args.samples, args.seed, 0.4);
  tr.sample_rate_hz = 312.5;
  sim::ChunkedTrace trace(std::move(tr), args.chunk);
  std::size_t sent = 0;
  // Interleave send and poll so bounded socket buffers never overflow.
  CVec chunk;
  while (trace.next(chunk)) {
    sender.send_chunk(args.sensor, chunk);
    ++sent;
    rx.poll_once(0);
  }
  sender.send_end(args.sensor);
  sender.close();
  int idle = 0;
  while (idle < 3) idle = rx.poll_once(20) == 0 ? idle + 1 : 0;
  rx.flush();
  writer.close();

  const auto& w = rx.wire_stats();
  std::printf("recorded %s\n", args.out.c_str());
  std::printf("chunks sent         %zu\n", sent);
  std::printf("frames sent         %" PRIu64 "\n", sender.frames_sent());
  std::printf("frames accepted     %" PRIu64 "\n", w.frames_accepted);
  std::printf("frames rejected     %" PRIu64 "\n", w.frames_rejected);
  std::printf("chunks delivered    %" PRIu64 "\n", chunks_delivered);
  std::printf("capture records     %" PRIu64 "\n", writer.records());
  std::printf("capture bytes       %" PRIu64 "\n", writer.bytes());
  if (args.faulty) {
    const auto& f = wire.stats();
    std::printf("wire faults: dropped %" PRIu64 " dup %" PRIu64
                " reordered %" PRIu64 " truncated %" PRIu64
                " corrupted %" PRIu64 "\n",
                f.dropped, f.duplicated, f.reordered, f.truncated,
                f.corrupted);
  }
  return 0;
}

int cmd_replay(const Args& args) {
  if (args.in.empty()) return usage();
  net::Reassembler::Config cfg;
  cfg.window_chunks = args.window;
  net::Replayer replayer(
      args.in, cfg,
      [](std::uint32_t, std::uint64_t, CVec&&) { return true; },
      [](std::uint32_t sensor) {
        std::printf("end-of-stream       sensor %u\n", sensor);
      });
  const std::uint64_t frames = replayer.run();
  print_demux_summary(replayer.demux(), frames, replayer.parse_rejects(),
                      replayer.reader().truncated());
  return 0;
}

int cmd_inspect(const Args& args) {
  if (args.in.empty()) return usage();
  net::CaptureReader reader(args.in);
  std::printf("%-6s %-14s %-8s %-8s %-9s %-7s %s\n", "rec", "arrival_ns",
              "sensor", "seq", "frag", "bytes", "status");
  net::CaptureRecord rec;
  std::size_t shown = 0;
  while (reader.next(rec)) {
    net::FrameView v;
    const net::ParseStatus st = net::parse_frame(rec.frame, v);
    if (args.limit != 0 && shown >= args.limit) continue;  // still count
    ++shown;
    if (st == net::ParseStatus::kOk) {
      std::printf("%-6" PRIu64 " %-14" PRId64 " %-8u %-8" PRIu64
                  " %u/%-6u %-7zu %s%s\n",
                  reader.records(), rec.arrival_ns, v.header.sensor_id,
                  v.header.chunk_seq, v.header.frag_index,
                  v.header.frag_count, rec.frame.size(),
                  net::parse_status_name(st),
                  (v.header.flags & net::kFlagEndOfStream) ? " [end]" : "");
    } else {
      std::printf("%-6" PRIu64 " %-14" PRId64 " %-8s %-8s %-9s %-7zu %s\n",
                  reader.records(), rec.arrival_ns, "-", "-", "-",
                  rec.frame.size(), net::parse_status_name(st));
    }
  }
  std::printf("records %" PRIu64 "%s\n", reader.records(),
              reader.truncated() ? " (torn tail: file truncated mid-record)"
                                 : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args;
  if (!args.parse(argc, argv)) return usage();
  try {
    if (cmd == "record") return cmd_record(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "inspect") return cmd_inspect(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wivi_capture: %s\n", e.what());
    return 1;
  }
  return usage();
}
