// Thin POSIX socket layer for varade::net: RAII fds, endpoint parsing, and
// EINTR-safe blocking I/O helpers shared by the server and the client.
//
// Endpoints are written as
//   unix:/path/to/daemon.sock      — Unix-domain stream socket
//   tcp:host:port                  — TCP (host may be a dotted quad or name)
//   host:port                      — shorthand for tcp:
//   shm:/path/to/daemon.sock       — shared-memory rings, bootstrapped over
//                                    a Unix socket at PATH (see shm.hpp)
// so every binary (daemon, client, bench, example) speaks one spec format.
//
// All failures throw varade::Error with the errno text attached; nothing in
// this layer installs signal handlers — writes use MSG_NOSIGNAL, so a peer
// hangup surfaces as an EPIPE Error instead of killing the process.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "varade/tensor/tensor.hpp"

namespace varade::net {

/// A parsed endpoint spec.
struct Endpoint {
  enum class Kind { Tcp, Unix, Shm };
  Kind kind = Kind::Tcp;
  std::string host;  // Tcp only
  int port = 0;      // Tcp only
  std::string path;  // Unix and Shm (the bootstrap socket path)
};

/// Parses "unix:PATH", "tcp:HOST:PORT", "HOST:PORT", or "shm:PATH". Throws
/// on anything else (empty path, non-numeric or out-of-range port, missing
/// separator).
Endpoint parse_endpoint(const std::string& spec);

/// Formats an endpoint back into the canonical spec string.
std::string to_string(const Endpoint& endpoint);

/// Move-only RAII socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Listening socket on 127.0.0.1-style TCP. `port` 0 picks an ephemeral
/// port; the resolved value is written back. SO_REUSEADDR is set.
Socket tcp_listen(const std::string& host, int& port, int backlog);

/// Listening Unix-domain socket at `path`; an existing socket file there is
/// unlinked first (a stale socket from a dead daemon would otherwise block
/// the bind forever).
Socket unix_listen(const std::string& path, int backlog);

/// Blocking connect; TCP_NODELAY is set on TCP sockets (frames are small and
/// latency-sensitive; the client batches writes itself).
Socket tcp_connect(const std::string& host, int port);
Socket unix_connect(const std::string& path);
Socket connect_endpoint(const Endpoint& endpoint);

void set_nonblocking(int fd, bool on);
/// Disables Nagle on a TCP socket (both ends of a TCP session set it: frames
/// are small and latency-sensitive, and each side batches writes itself).
/// Not valid on Unix-domain sockets.
void set_tcp_nodelay(int fd);

/// Writes all `n` bytes (blocking, EINTR-safe, MSG_NOSIGNAL). Throws on any
/// failure including EPIPE.
void send_all(int fd, const void* data, std::size_t n);

/// One read of up to `n` bytes. Returns the byte count, 0 on orderly EOF, or
/// -1 when the socket is nonblocking and no data is ready. Throws on errors.
long read_some(int fd, void* buf, std::size_t n);

/// poll() for readability with a timeout; true when readable (or hung up),
/// false on timeout. EINTR restarts with the remaining time.
bool wait_readable(int fd, int timeout_ms);

/// Writes all `n` bytes over a Unix socket with `n_fds` file descriptors
/// attached via SCM_RIGHTS (riding the first byte). Blocking semantics like
/// send_all. The shm bootstrap handshake uses this to hand the segment and
/// doorbell fds to the client inside the WELCOME.
void send_with_fds(int fd, const void* data, std::size_t n, const int* fds, int n_fds);

/// One read of up to `n` bytes that also collects any SCM_RIGHTS fds into
/// `out_fds` (appended; caller owns them). Same return contract as
/// read_some. A receiver expecting fds must use this for *every* read in
/// that window — a plain recv() silently drops in-flight descriptors.
long recv_some_fds(int fd, void* buf, std::size_t n, std::vector<int>& out_fds);

}  // namespace varade::net
