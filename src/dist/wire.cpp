#include "dist/wire.hpp"

#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace latticesched::dist {

namespace {

/// send() with MSG_NOSIGNAL so a dead peer surfaces as EPIPE instead of
/// killing the process; falls back to write() for non-socket fds (the
/// worker end may be a plain pipe in tests).
ssize_t write_some(int fd, const char* data, std::size_t len) {
  ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data, len);
  return n;
}

using Clock = std::chrono::steady_clock;

/// One shared deadline across every poll/read/write of a frame.
struct Deadline {
  bool infinite;
  Clock::time_point at;
  explicit Deadline(int timeout_ms)
      : infinite(timeout_ms < 0),
        at(Clock::now() + std::chrono::milliseconds(
                              timeout_ms < 0 ? 0 : timeout_ms)) {}
  int remaining_ms() const {
    if (infinite) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at - Clock::now());
    return left.count() < 0 ? 0 : static_cast<int>(left.count());
  }
};

/// Waits for `events` on `fd` until the deadline.  POLLHUP/POLLERR
/// report as kOk so the subsequent read/write surfaces the real errno.
WireIoStatus wait_fd(int fd, short events, const Deadline& deadline) {
  for (;;) {
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, deadline.remaining_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      return WireIoStatus::kClosed;
    }
    if (rc == 0) return WireIoStatus::kTimeout;
    return WireIoStatus::kOk;
  }
}

WireIoStatus read_full_deadline(int fd, char* data, std::size_t len,
                                const Deadline& deadline) {
  while (len > 0) {
    const ssize_t n = ::read(fd, data, len);
    if (n > 0) {
      data += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return WireIoStatus::kClosed;  // EOF mid-frame
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const WireIoStatus st = wait_fd(fd, POLLIN, deadline);
      if (st != WireIoStatus::kOk) return st;
      continue;
    }
    return WireIoStatus::kClosed;
  }
  return WireIoStatus::kOk;
}

WireIoStatus write_full_deadline(int fd, const char* data, std::size_t len,
                                 const Deadline& deadline) {
  while (len > 0) {
    const ssize_t n = write_some(fd, data, len);
    if (n >= 0) {
      data += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const WireIoStatus st = wait_fd(fd, POLLOUT, deadline);
      if (st != WireIoStatus::kOk) return st;
      continue;
    }
    return WireIoStatus::kClosed;
  }
  return WireIoStatus::kOk;
}

/// The frame's bytes: the 4-byte little-endian payload length, then
/// "verb\nbody".  Empty when the payload exceeds kMaxFrameBytes.
std::string encode_frame(const WireMessage& message) {
  const std::size_t len = message.verb.size() + 1 + message.body.size();
  if (len > kMaxFrameBytes) return {};
  std::string frame;
  frame.reserve(4 + len);
  for (int shift = 0; shift < 32; shift += 8) {
    frame += static_cast<char>((len >> shift) & 0xff);
  }
  frame += message.verb;
  frame += '\n';
  frame += message.body;
  return frame;
}

std::uint32_t decode_prefix(const char prefix[4]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]))
          << 24);
}

/// Splits a received payload into WireMessage; false on an empty verb.
bool payload_to_message(std::string payload, WireMessage* out) {
  const std::size_t newline = payload.find('\n');
  if (newline == std::string::npos) {
    out->verb = std::move(payload);
    out->body.clear();
  } else {
    out->verb = payload.substr(0, newline);
    out->body = payload.substr(newline + 1);
  }
  return !out->verb.empty();
}

}  // namespace

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

WireIoStatus read_frame_deadline(int fd, WireMessage* out, int timeout_ms) {
  const Deadline deadline(timeout_ms);
  char prefix[4];
  WireIoStatus st = read_full_deadline(fd, prefix, sizeof prefix, deadline);
  if (st != WireIoStatus::kOk) return st;
  const std::uint32_t len = decode_prefix(prefix);
  if (len == 0 || len > kMaxFrameBytes) return WireIoStatus::kClosed;
  std::string payload(len, '\0');
  st = read_full_deadline(fd, payload.data(), payload.size(), deadline);
  if (st != WireIoStatus::kOk) return st;
  return payload_to_message(std::move(payload), out) ? WireIoStatus::kOk
                                                     : WireIoStatus::kClosed;
}

WireIoStatus write_frame_deadline(int fd, const WireMessage& message,
                                  int timeout_ms) {
  const Deadline deadline(timeout_ms);
  const std::string frame = encode_frame(message);
  if (frame.empty()) return WireIoStatus::kClosed;
  return write_full_deadline(fd, frame.data(), frame.size(), deadline);
}

void write_torn_frame(int fd, const WireMessage& message) {
  const std::string frame = encode_frame(message);
  if (frame.empty()) return;
  (void)write_full_deadline(fd, frame.data(), 4 + (frame.size() - 4) / 2,
                            Deadline(-1));
}

void split_body(const std::string& body, std::string* first_line,
                std::string* rest) {
  const std::size_t newline = body.find('\n');
  if (newline == std::string::npos) {
    *first_line = body;
    rest->clear();
  } else {
    *first_line = body.substr(0, newline);
    *rest = body.substr(newline + 1);
  }
}

}  // namespace latticesched::dist
