/// @file
/// Capture and bit-exact replay of the network ingress (DESIGN.md §13).
///
/// CaptureWriter dumps every accepted frame, with its arrival metadata,
/// to a versioned on-disk format; Replayer feeds a capture back through
/// the exact per-sensor reassembly path the live Receiver runs, so any
/// production incident becomes a deterministic regression case: same
/// frames in, same chunks out, bit for bit.
///
/// On-disk format "WVCP" version 1 (all integers little-endian):
///
///   file header : u32 magic 0x50435657 ("WVCP"), u16 version = 1,
///                 u16 reserved (zero)
///   record      : i64 arrival_ns, u32 frame_len, u8[frame_len] frame
///
/// The frame bytes are stored verbatim — wire format, CRC and all — so a
/// capture stays readable for as long as a parser for its frames' wire
/// version exists, and replay needs no re-encoding step that could drift
/// from the live bytes.
///
/// The writer appends each record inline, on the caller's thread (the
/// receiver's I/O thread when it is the Receiver's capture tap), through a
/// buffered std::ofstream: nothing is queued, so nothing can drop, and a
/// capture holds every accepted frame in arrival order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/net/frame.hpp"
#include "src/net/reassembler.hpp"

namespace wivi::net {

/// @addtogroup wivi_net
/// @{

/// Capture-file magic: the bytes 'W','V','C','P' as a little-endian u32.
inline constexpr std::uint32_t kCaptureMagic = 0x50435657u;
/// The capture-file format version this library reads and writes.
inline constexpr std::uint16_t kCaptureVersion = 1;

/// One captured frame: its arrival instant plus the verbatim wire bytes.
struct CaptureRecord {
  std::int64_t arrival_ns = 0;   ///< obs::now_ns() at frame arrival
  std::vector<std::byte> frame;  ///< the frame exactly as received
};

/// Capture-file writer: each append() writes its record before returning.
class CaptureWriter {
 public:
  /// Open `path` for writing and emit the file header. Throws
  /// TypedError{kIoError} when the file cannot be opened.
  explicit CaptureWriter(const std::string& path);
  /// Flushes and closes the file.
  ~CaptureWriter();

  CaptureWriter(const CaptureWriter&) = delete;             ///< Non-copyable.
  CaptureWriter& operator=(const CaptureWriter&) = delete;  ///< Non-copyable.

  /// Append one accepted frame (ignored once closed).
  void append(std::int64_t arrival_ns, std::span<const std::byte> frame);

  /// Stop accepting records, flush and close the file (idempotent; the
  /// destructor calls it).
  void close();

  /// Records written to the capture so far.
  [[nodiscard]] std::uint64_t records() const noexcept;
  /// Frame bytes written so far (excluding headers).
  [[nodiscard]] std::uint64_t bytes() const noexcept;

 private:
  std::ofstream out_;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Sequential reader over a capture file. Validates the file header at
/// open (TypedError{kIoError} on a missing/foreign/unsupported file) and
/// rejects torn trailing records gracefully (truncated() turns true, no
/// exception — a capture cut off mid-record replays its intact prefix).
class CaptureReader {
 public:
  /// Open and validate `path`.
  explicit CaptureReader(const std::string& path);

  /// Read the next record. False at end of file (or at a torn tail,
  /// which also sets truncated()).
  [[nodiscard]] bool next(CaptureRecord& out);

  /// True when the file ended mid-record (crash-truncated capture).
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }
  /// Records read so far.
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  std::ifstream in_;
  bool truncated_ = false;
  std::uint64_t records_ = 0;
};

/// Replays a capture through the same parse + per-sensor reassembly path
/// the live Receiver runs. Frames are re-parsed from their stored bytes
/// (so a corrupted capture rejects frames exactly like a corrupted wire)
/// and fed to a Demux in recorded arrival order — the determinism that
/// makes replay output bit-identical to the live run.
class Replayer {
 public:
  /// Replay `path` with the given reassembly configuration (must match
  /// the live receiver's for bit-identical replay).
  Replayer(const std::string& path, Reassembler::Config cfg,
           ChunkSink sink, EndSink end = nullptr);

  /// Feed every record through the demux. Returns the number of frames
  /// replayed (parse rejects included in stats(), not in the count).
  std::uint64_t run();

  /// The reassembly/accounting state after (or during) run().
  [[nodiscard]] const Demux& demux() const noexcept { return demux_; }
  /// Frames whose stored bytes failed to re-parse (corrupt capture).
  [[nodiscard]] std::uint64_t parse_rejects() const noexcept {
    return parse_rejects_;
  }
  /// The reader, for truncation state.
  [[nodiscard]] const CaptureReader& reader() const noexcept {
    return reader_;
  }

 private:
  CaptureReader reader_;
  Demux demux_;
  std::uint64_t parse_rejects_ = 0;
};

/// @}

}  // namespace wivi::net
