#include "varade/net/socket.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace varade::net {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  fail("net: ", what, ": ", std::strerror(errno));
}

/// Resolves host:port into a sockaddr_in (numeric or named hosts).
sockaddr_in resolve_tcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr)
    fail("net: cannot resolve host \"", host, "\": ", gai_strerror(rc));
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  freeaddrinfo(res);
  return addr;
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  check(!path.empty(), "net: empty unix socket path");
  check(path.size() < sizeof(addr.sun_path),
        "net: unix socket path \"" + path + "\" exceeds " +
            std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  std::string rest = spec;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::Unix;
    ep.path = spec.substr(5);
    check(!ep.path.empty(), "net: endpoint \"" + spec + "\" has an empty unix path");
    return ep;
  }
  if (spec.rfind("shm:", 0) == 0) {
    ep.kind = Endpoint::Kind::Shm;
    ep.path = spec.substr(4);
    check(!ep.path.empty(), "net: endpoint \"" + spec + "\" has an empty shm bootstrap path");
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) rest = spec.substr(4);
  const std::size_t colon = rest.rfind(':');
  check(colon != std::string::npos && colon > 0,
        "net: endpoint \"" + spec + "\" is not unix:PATH, shm:PATH, or tcp:HOST:PORT");
  ep.kind = Endpoint::Kind::Tcp;
  ep.host = rest.substr(0, colon);
  const std::string port_str = rest.substr(colon + 1);
  check(!port_str.empty() && port_str.find_first_not_of("0123456789") == std::string::npos,
        "net: endpoint \"" + spec + "\" has a non-numeric port");
  // Port 0 is legal on the listen side only (bind to an ephemeral port, as
  // --metrics tcp:HOST:0 asks for); connect_endpoint() rejects it.
  const long port = std::strtol(port_str.c_str(), nullptr, 10);
  check(port >= 0 && port <= 65535,
        "net: endpoint \"" + spec + "\" port out of range [0, 65535]");
  ep.port = static_cast<int>(port);
  return ep;
}

std::string to_string(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::Unix) return "unix:" + endpoint.path;
  if (endpoint.kind == Endpoint::Kind::Shm) return "shm:" + endpoint.path;
  return "tcp:" + endpoint.host + ":" + std::to_string(endpoint.port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_listen(const std::string& host, int& port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_INET)");
  const int one = 1;
  (void)setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = resolve_tcp(host, port);
  if (bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    fail_errno("bind(tcp:" + host + ":" + std::to_string(port) + ")");
  if (listen(sock.fd(), backlog) != 0) fail_errno("listen");
  if (port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) != 0)
      fail_errno("getsockname");
    port = static_cast<int>(ntohs(bound.sin_port));
  }
  return sock;
}

Socket unix_listen(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_address(path);
  (void)unlink(path.c_str());
  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_UNIX)");
  if (bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail_errno("bind(unix:" + path + ")");
  if (listen(sock.fd(), backlog) != 0) fail_errno("listen");
  return sock;
}

Socket tcp_connect(const std::string& host, int port) {
  check(port >= 1, "net: cannot connect to tcp:" + host + ":" + std::to_string(port) +
                       " (port 0 is listen-side only)");
  const sockaddr_in addr = resolve_tcp(host, port);
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_INET)");
  if (connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail_errno("connect(tcp:" + host + ":" + std::to_string(port) + ")");
  set_tcp_nodelay(sock.fd());
  return sock;
}

Socket unix_connect(const std::string& path) {
  const sockaddr_un addr = unix_address(path);
  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_UNIX)");
  if (connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail_errno("connect(unix:" + path + ")");
  return sock;
}

Socket connect_endpoint(const Endpoint& endpoint) {
  // A shm endpoint's socket is its bootstrap Unix socket; the rings are
  // negotiated over it afterwards (Client does that part).
  if (endpoint.kind != Endpoint::Kind::Tcp) return unix_connect(endpoint.path);
  return tcp_connect(endpoint.host, endpoint.port);
}

void set_nonblocking(int fd, bool on) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd, F_SETFL, want) != 0) fail_errno("fcntl(F_SETFL)");
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void send_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Blocking callers only reach this on a nonblocking fd; wait for
        // writability instead of spinning.
        pollfd pfd{fd, POLLOUT, 0};
        (void)::poll(&pfd, 1, 100);
        continue;
      }
      fail_errno("send");
    }
    sent += static_cast<std::size_t>(rc);
  }
}

long read_some(int fd, void* buf, std::size_t n) {
  for (;;) {
    const ssize_t rc = ::recv(fd, buf, n, 0);
    if (rc >= 0) return static_cast<long>(rc);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == ECONNRESET) return 0;  // peer vanished: treat as EOF
    fail_errno("recv");
  }
}

void send_with_fds(int fd, const void* data, std::size_t n, const int* fds, int n_fds) {
  check(n > 0, "net: send_with_fds needs at least one byte to carry the fds");
  check(n_fds >= 1 && n_fds <= 8, "net: send_with_fds fd count out of range [1, 8]");
  const auto* p = static_cast<const std::uint8_t*>(data);

  // The descriptors ride the first byte; the rest of the bytes follow plain.
  alignas(cmsghdr) char control[CMSG_SPACE(8 * sizeof(int))];
  std::memset(control, 0, sizeof(control));
  iovec iov{};
  iov.iov_base = const_cast<std::uint8_t*>(p);
  iov.iov_len = 1;
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = CMSG_SPACE(static_cast<std::size_t>(n_fds) * sizeof(int));
  cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(static_cast<std::size_t>(n_fds) * sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), fds, static_cast<std::size_t>(n_fds) * sizeof(int));
  for (;;) {
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc >= 1) break;
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 100);
      continue;
    }
    fail_errno("sendmsg(SCM_RIGHTS)");
  }
  if (n > 1) send_all(fd, p + 1, n - 1);
}

long recv_some_fds(int fd, void* buf, std::size_t n, std::vector<int>& out_fds) {
  alignas(cmsghdr) char control[CMSG_SPACE(8 * sizeof(int))];
  iovec iov{};
  iov.iov_base = buf;
  iov.iov_len = n;
  for (;;) {
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    const ssize_t rc = ::recvmsg(fd, &msg, MSG_CMSG_CLOEXEC);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
      if (errno == ECONNRESET) return 0;
      fail_errno("recvmsg");
    }
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr; cmsg = CMSG_NXTHDR(&msg, cmsg)) {
      if (cmsg->cmsg_level != SOL_SOCKET || cmsg->cmsg_type != SCM_RIGHTS) continue;
      const std::size_t bytes = cmsg->cmsg_len - CMSG_LEN(0);
      const std::size_t count = bytes / sizeof(int);
      std::vector<int> fds(count);
      std::memcpy(fds.data(), CMSG_DATA(cmsg), count * sizeof(int));
      out_fds.insert(out_fds.end(), fds.begin(), fds.end());
    }
    return static_cast<long>(rc);
  }
}

bool wait_readable(int fd, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int remaining =
        timeout_ms < 0 ? -1
                       : static_cast<int>(std::max<long long>(
                             0, std::chrono::duration_cast<std::chrono::milliseconds>(
                                    deadline - Clock::now())
                                    .count()));
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) fail_errno("poll");
  }
}

}  // namespace varade::net
