#include "src/net/sender.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/error.hpp"

namespace wivi::net {

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw TypedError(ErrorCode::kIoError,
                     "net::Sender: not an IPv4 address: " + host);
  return addr;
}

}  // namespace

Sender::Sender(Config cfg) : cfg_(std::move(cfg)) {
  WIVI_REQUIRE(cfg_.port != 0, "net::Sender needs a destination port");
  const sockaddr_in addr = make_addr(cfg_.host, cfg_.port);
  const int type = cfg_.transport == Transport::kUdp ? SOCK_DGRAM : SOCK_STREAM;
  fd_ = ::socket(AF_INET, type, 0);
  if (fd_ < 0)
    throw TypedError(ErrorCode::kIoError,
                     std::string("net::Sender: socket: ") + std::strerror(errno));
  // connect() on both transports: the UDP socket learns its default
  // destination (plain send() afterwards) and surfaces ICMP errors.
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw TypedError(ErrorCode::kIoError,
                     std::string("net::Sender: connect: ") + std::strerror(err));
  }
}

Sender::~Sender() { close(); }

void Sender::close() {
  if (fd_ < 0) return;
  if (cfg_.wire != nullptr)
    cfg_.wire->flush(
        [this](std::vector<std::byte>&& f) { write_frame(std::move(f)); });
  ::close(fd_);
  fd_ = -1;
}

void Sender::write_frame(std::vector<std::byte>&& frame) {
  WIVI_REQUIRE(fd_ >= 0, "net::Sender is closed");
  const char* p = reinterpret_cast<const char*>(frame.data());
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TypedError(ErrorCode::kIoError,
                       std::string("net::Sender: send: ") +
                           std::strerror(errno));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ++frames_sent_;
  bytes_sent_ += frame.size();
}

void Sender::send_raw(std::span<const std::byte> frame) {
  write_frame(std::vector<std::byte>(frame.begin(), frame.end()));
}

void Sender::send_frames(std::vector<std::vector<std::byte>>&& frames) {
  for (std::vector<std::byte>& f : frames) {
    if (cfg_.wire != nullptr)
      cfg_.wire->feed(std::move(f), [this](std::vector<std::byte>&& out) {
        write_frame(std::move(out));
      });
    else
      write_frame(std::move(f));
  }
}

std::uint64_t Sender::send_chunk(std::uint32_t sensor_id, CSpan chunk) {
  const std::uint64_t seq = seq_[sensor_id]++;
  send_frames(chunk_to_frames(sensor_id, seq, chunk, cfg_.max_payload));
  return seq;
}

std::uint64_t Sender::send_end(std::uint32_t sensor_id) {
  const std::uint64_t seq = seq_[sensor_id]++;
  send_frames(
      chunk_to_frames(sensor_id, seq, CSpan{}, cfg_.max_payload,
                      kFlagEndOfStream));
  if (cfg_.wire != nullptr)
    cfg_.wire->flush(
        [this](std::vector<std::byte>&& f) { write_frame(std::move(f)); });
  return seq;
}

}  // namespace wivi::net
