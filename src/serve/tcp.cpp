#include "serve/tcp.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

#include "util/cli.hpp"

namespace latticesched::serve {

namespace {

/// Resolves `host` into an IPv4 address (numeric fast path, then
/// getaddrinfo).  Throws std::runtime_error on failure.
in_addr resolve_ipv4(const std::string& host) {
  in_addr addr{};
  if (::inet_pton(AF_INET, host.c_str(), &addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &results);
  if (rc != 0 || results == nullptr) {
    throw std::runtime_error("cannot resolve host '" + host +
                             "': " + ::gai_strerror(rc));
  }
  addr = reinterpret_cast<sockaddr_in*>(results->ai_addr)->sin_addr;
  ::freeaddrinfo(results);
  return addr;
}

void configure_stream_fd(int fd) {
  (void)dist::set_nonblocking(fd);
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

HostPort parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("expected host:port, got '" + spec + "'");
  }
  HostPort out;
  out.host = spec.substr(0, colon);
  if (out.host.empty()) out.host = "127.0.0.1";
  const std::uint64_t port = parse_u64(spec.substr(colon + 1), "port");
  if (port < 1 || port > 65535) {
    throw std::invalid_argument("port must be in [1, 65535], got " +
                                std::to_string(port));
  }
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

int tcp_connect(const std::string& host, std::uint16_t port,
                int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = resolve_ipv4(host);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  configure_stream_fd(fd);
  const std::string endpoint = host + ":" + std::to_string(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("connect " + endpoint + ": " +
                             std::strerror(err));
  }
  // Nonblocking connect: wait for writability, then read the final
  // verdict out of SO_ERROR (a refused connection reports here, not
  // from connect()).
  pollfd p{fd, POLLOUT, 0};
  int rc;
  do {
    rc = ::poll(&p, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) {
    ::close(fd);
    throw std::runtime_error("connect " + endpoint + ": " +
                             (rc == 0 ? "timed out" : std::strerror(errno)));
  }
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    ::close(fd);
    throw std::runtime_error("connect " + endpoint + ": " +
                             std::strerror(err != 0 ? err : errno));
  }
  return fd;
}

TcpListener::TcpListener(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = resolve_ipv4(host);

  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const std::string endpoint = host + ":" + std::to_string(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd_, 64) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("bind " + endpoint + ": " +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("pipe2: " + std::string(std::strerror(errno)));
  }
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

int TcpListener::accept_connection(int timeout_ms) {
  for (;;) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return -1;  // timeout
    if (fds[1].revents != 0) return -1;  // shutdown()
    const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      return -1;
    }
    configure_stream_fd(client);
    return client;
  }
}

void TcpListener::shutdown() {
  (void)!::write(stop_pipe_[1], "x", 1);
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpChannel::shutdown() {
  (void)::shutdown(fd_, SHUT_RDWR);
}

}  // namespace latticesched::serve
