#include "src/net/capture.hpp"

#include <cstring>

#include "src/common/error.hpp"

namespace wivi::net {

namespace {

// Little-endian scalar I/O for the capture container (the frame bytes
// themselves are opaque here — stored and replayed verbatim).
void store_u16(std::byte* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::byte>(v & 0xFF);
  p[1] = static_cast<std::byte>(v >> 8);
}
void store_u32(std::byte* p, std::uint32_t v) noexcept {
  store_u16(p, static_cast<std::uint16_t>(v & 0xFFFF));
  store_u16(p + 2, static_cast<std::uint16_t>(v >> 16));
}
void store_u64(std::byte* p, std::uint64_t v) noexcept {
  store_u32(p, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
std::uint16_t load_u16(const std::byte* p) noexcept {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}
std::uint32_t load_u32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(load_u16(p)) |
         (static_cast<std::uint32_t>(load_u16(p + 2)) << 16);
}
std::uint64_t load_u64(const std::byte* p) noexcept {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

constexpr std::size_t kFileHeaderSize = 8;
constexpr std::size_t kRecordHeaderSize = 12;

}  // namespace

CaptureWriter::CaptureWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_)
    throw TypedError(ErrorCode::kIoError,
                     "capture: cannot open for writing: " + path);
  std::byte hdr[kFileHeaderSize];
  store_u32(hdr, kCaptureMagic);
  store_u16(hdr + 4, kCaptureVersion);
  store_u16(hdr + 6, 0);  // reserved
  out_.write(reinterpret_cast<const char*>(hdr), kFileHeaderSize);
}

CaptureWriter::~CaptureWriter() { close(); }

void CaptureWriter::append(std::int64_t arrival_ns,
                           std::span<const std::byte> frame) {
  if (closed_.load(std::memory_order_acquire)) return;
  std::byte hdr[kRecordHeaderSize];
  store_u64(hdr, static_cast<std::uint64_t>(arrival_ns));
  store_u32(hdr + 8, static_cast<std::uint32_t>(frame.size()));
  out_.write(reinterpret_cast<const char*>(hdr), kRecordHeaderSize);
  if (!frame.empty())
    out_.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
  records_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
}

void CaptureWriter::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  out_.flush();
  out_.close();
}

std::uint64_t CaptureWriter::records() const noexcept {
  return records_.load(std::memory_order_relaxed);
}
std::uint64_t CaptureWriter::bytes() const noexcept {
  return bytes_.load(std::memory_order_relaxed);
}

CaptureReader::CaptureReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_)
    throw TypedError(ErrorCode::kIoError,
                     "capture: cannot open for reading: " + path);
  std::byte hdr[kFileHeaderSize];
  if (!in_.read(reinterpret_cast<char*>(hdr), kFileHeaderSize))
    throw TypedError(ErrorCode::kIoError, "capture: file too short: " + path);
  if (load_u32(hdr) != kCaptureMagic)
    throw TypedError(ErrorCode::kIoError, "capture: not a WVCP file: " + path);
  const std::uint16_t version = load_u16(hdr + 4);
  if (version != kCaptureVersion)
    throw TypedError(ErrorCode::kIoError,
                     "capture: unsupported version " + std::to_string(version) +
                         ": " + path);
}

bool CaptureReader::next(CaptureRecord& out) {
  std::byte hdr[kRecordHeaderSize];
  if (!in_.read(reinterpret_cast<char*>(hdr), kRecordHeaderSize)) {
    // Clean EOF lands exactly on a record boundary; anything read but
    // short of a full record header is a torn tail.
    truncated_ = in_.gcount() != 0;
    return false;
  }
  out.arrival_ns = static_cast<std::int64_t>(load_u64(hdr));
  const std::uint32_t len = load_u32(hdr + 8);
  out.frame.resize(len);
  if (len != 0 &&
      !in_.read(reinterpret_cast<char*>(out.frame.data()), len)) {
    truncated_ = true;  // header promised more bytes than the file holds
    return false;
  }
  ++records_;
  return true;
}

Replayer::Replayer(const std::string& path, Reassembler::Config cfg,
                   ChunkSink sink, EndSink end)
    : reader_(path), demux_(cfg, std::move(sink), std::move(end)) {}

std::uint64_t Replayer::run() {
  CaptureRecord rec;
  std::uint64_t frames = 0;
  while (reader_.next(rec)) {
    FrameView view;
    if (parse_frame(rec.frame, view) == ParseStatus::kOk) {
      demux_.feed(view);
      ++frames;
    } else {
      ++parse_rejects_;  // corrupt capture byte-for-byte == corrupt wire
    }
  }
  demux_.flush();
  return frames;
}

}  // namespace wivi::net
