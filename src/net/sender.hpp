/// @file
/// The frame producer side of the wire: chunks → frames → UDP datagrams
/// or a TCP byte stream.
///
/// Sender is the client half of the loopback ingress path (the stand-in
/// for a sensor host in the tests, bench_net, wivi_capture and
/// wirebench): it slices sample chunks into wire frames with
/// chunk_to_frames, tracks one chunk_seq per sensor, and writes each
/// frame to the socket — one datagram per frame over UDP, frames laid
/// back to back over TCP. An optional FaultyWire
/// sits between encoding and the socket so the chaos suites can perturb
/// the byte stream deterministically without touching the transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/net/frame.hpp"
#include "src/net/wire_fault.hpp"

namespace wivi::net {

/// @addtogroup wivi_net
/// @{

/// Which transport a Sender (and its matching Receiver socket) speaks.
enum class Transport {
  kUdp,  ///< one frame per datagram; loss/reorder possible even on loopback
  kTcp,  ///< frames back to back on one connection; lossless and ordered
};

/// Sends framed sample chunks to a Receiver.
class Sender {
 public:
  /// Where and how to send.
  struct Config {
    Transport transport = Transport::kUdp;  ///< datagrams or a stream
    std::string host = "127.0.0.1";         ///< receiver address (IPv4)
    std::uint16_t port = 0;                 ///< receiver port (required)
    /// Fragment payload cap handed to chunk_to_frames (clamped to
    /// kMaxPayloadBytes); small values force multi-fragment chunks.
    std::size_t max_payload = kMaxPayloadBytes;
    /// Optional deterministic wire perturbation, applied to every encoded
    /// frame before it reaches the socket. Not owned; may be nullptr.
    FaultyWire* wire = nullptr;
  };

  /// Open the socket (and, for TCP, connect). Throws TypedError of
  /// ErrorCode::kIoError when the socket cannot be created or connected.
  explicit Sender(Config cfg);
  ~Sender();  ///< Closes the socket (flushing any held faulted frame).

  Sender(const Sender&) = delete;             ///< Non-copyable.
  Sender& operator=(const Sender&) = delete;  ///< Non-copyable.

  /// Frame `chunk` as the sensor's next chunk_seq and send every
  /// fragment. Returns the chunk_seq used.
  std::uint64_t send_chunk(std::uint32_t sensor_id, CSpan chunk);

  /// Send the sensor's end-of-stream mark (a zero-payload frame with
  /// kFlagEndOfStream) and flush any frame a FaultyWire held for
  /// reordering. Returns the chunk_seq used.
  std::uint64_t send_end(std::uint32_t sensor_id);

  /// Send one already-encoded frame verbatim (fuzz/malformed-input tests
  /// use this to put arbitrary bytes on the wire). Bypasses the
  /// FaultyWire.
  void send_raw(std::span<const std::byte> frame);

  /// Close the socket early (idempotent; destructor calls it).
  void close();

  /// Frames that reached the socket so far.
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return frames_sent_;
  }
  /// Bytes that reached the socket so far.
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }

 private:
  void send_frames(std::vector<std::vector<std::byte>>&& frames);
  void write_frame(std::vector<std::byte>&& frame);

  Config cfg_;
  int fd_ = -1;
  std::map<std::uint32_t, std::uint64_t> seq_;  ///< per-sensor next seq
  std::uint64_t frames_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

/// @}

}  // namespace wivi::net
