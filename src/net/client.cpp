#include "varade/net/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <thread>
#include <unistd.h>

#include "varade/serve/ingest.hpp"

namespace varade::net {

namespace {

/// Connect with retries while the daemon is still binding its socket: ECONNREFUSED
/// (TCP) and ENOENT/ECONNREFUSED (UDS, file not created yet) back off and retry
/// until the window closes; anything else propagates immediately.
Socket connect_with_retry(const Endpoint& endpoint, int window_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(window_ms);
  for (;;) {
    try {
      return connect_endpoint(endpoint);
    } catch (const Error&) {
      if (Clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace

Client::Client(const Endpoint& endpoint, ClientConfig config)
    : config_(config), sock_(connect_with_retry(endpoint, config.connect_retry_ms)) {
  check(config_.batch >= 1, "net: ClientConfig.batch must be >= 1");
  const bool want_shm = endpoint.kind == Endpoint::Kind::Shm;
  // Always advertise SAMPLE_BATCH; ask for the shm rings only when the
  // endpoint says so.
  const std::uint8_t features =
      static_cast<std::uint8_t>(kFeatureSampleBatch | (want_shm ? kFeatureShm : 0));
  append_hello(out_, config_.policy, features);
  send_all(sock_.fd(), out_.data(), out_.size());
  out_.clear();
  // The WELCOME is the handshake's second half; nothing else is legal first.
  // On a shm endpoint it arrives with the segment + doorbell fds attached,
  // so every handshake read must be fd-collecting (a plain recv() would
  // silently drop in-flight descriptors).
  std::uint8_t buf[4096];
  std::vector<int> fds;
  Frame frame;
  try {
    for (;;) {
      if (reader_.next(frame)) break;
      check(wait_readable(sock_.fd(), 5000), "net: timed out waiting for WELCOME");
      const long n = want_shm ? recv_some_fds(sock_.fd(), buf, sizeof(buf), fds)
                              : read_some(sock_.fd(), buf, sizeof(buf));
      check(n != 0, "net: connection closed before WELCOME");
      if (n > 0) reader_.feed(buf, static_cast<std::size_t>(n));
    }
    if (frame.type == FrameType::WireError) throw Error(decode_wire_error(frame));
    welcome_ = decode_welcome(frame);
    if (want_shm) {
      check((welcome_.features & kFeatureShm) != 0,
            "net: daemon did not grant the shm transport on " + to_string(endpoint));
      check(fds.size() == 3, "net: shm WELCOME carried " + std::to_string(fds.size()) +
                                 " fds, expected 3 (segment + two doorbells)");
      shm_ = ShmSession::attach(fds[0], fds[1], fds[2]);
      fds.clear();  // owned by the session now
      use_shm_ = true;
    }
  } catch (...) {
    for (const int fd : fds) ::close(fd);
    throw;
  }
}

void Client::flush_run() {
  if (run_count_ == 0) return;
  if (run_count_ == 1) {
    append_sample(out_, run_stream_, run_base_seq_, run_values_.data(), welcome_.n_channels);
  } else {
    append_sample_batch(out_, run_stream_, run_base_seq_, run_values_.data(), run_count_,
                        welcome_.n_channels);
  }
  run_count_ = 0;
  run_values_.clear();
}

void Client::send_sample(Index stream, std::uint64_t seq, const float* values) {
  if (config_.batch <= 1 || (welcome_.features & kFeatureSampleBatch) == 0) {
    append_sample(out_, stream, seq, values, welcome_.n_channels);
    if (out_.size() >= config_.flush_bytes) flush();
    return;
  }
  if (run_count_ > 0 &&
      (stream != run_stream_ || seq != run_base_seq_ + static_cast<std::uint64_t>(run_count_)))
    flush_run();
  if (run_count_ == 0) {
    run_stream_ = stream;
    run_base_seq_ = seq;
  }
  run_values_.insert(run_values_.end(), values, values + welcome_.n_channels);
  ++run_count_;
  if (run_count_ >= std::min<Index>(config_.batch, static_cast<Index>(kMaxBatchSamples)))
    flush_run();
  if (out_.size() >= config_.flush_bytes) flush();
}

void Client::push_batch(Index stream, std::uint64_t base_seq, const float* values, Index count) {
  check(count >= 1, "net: push_batch needs count >= 1");
  flush_run();  // anything coalesced earlier keeps its place in send order
  const Index channels = welcome_.n_channels;
  if ((welcome_.features & kFeatureSampleBatch) != 0) {
    for (Index off = 0; off < count;) {
      const Index k = std::min<Index>(count - off, static_cast<Index>(kMaxBatchSamples));
      append_sample_batch(out_, stream, base_seq + static_cast<std::uint64_t>(off),
                          values + static_cast<std::size_t>(off) * channels, k, channels);
      off += k;
      if (out_.size() >= config_.flush_bytes) flush();
    }
  } else {
    for (Index i = 0; i < count; ++i) {
      append_sample(out_, stream, base_seq + static_cast<std::uint64_t>(i),
                    values + static_cast<std::size_t>(i) * channels, channels);
      if (out_.size() >= config_.flush_bytes) flush();
    }
  }
  if (out_.size() >= config_.flush_bytes) flush();
}

void Client::flush() {
  flush_run();
  if (out_.empty()) return;
  if (use_shm_) {
    // Zero-syscall steady state: bytes go straight into the mapped ring. A
    // full ring is backpressure — spin-then-wait for the daemon to drain,
    // watching the bootstrap socket so a dead daemon cannot wedge us.
    serve::Backoff backoff;
    std::size_t off = 0;
    while (off < out_.size()) {
      bool bell = false;
      const std::size_t n = shm_.c2s().write_some(out_.data() + off, out_.size() - off, bell);
      if (bell) {
        ShmSession::ring_doorbell(shm_.c2s_doorbell());
        ++shm_doorbells_;
      }
      if (n == 0) {
        pollfd pfd{sock_.fd(), POLLIN, 0};
        if (::poll(&pfd, 1, 0) > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          std::uint8_t probe[64];
          if (read_some(sock_.fd(), probe, sizeof(probe)) == 0)
            fail("net: daemon closed the shm session with the ring full");
        }
        backoff.wait();
        continue;
      }
      backoff.reset();
      off += n;
    }
    out_.clear();
    return;
  }
  send_all(sock_.fd(), out_.data(), out_.size());
  out_.clear();
}

void Client::request_stats() {
  append_stats_request(out_);
  flush();
}

void Client::request_shutdown() {
  append_shutdown(out_);
  flush();
}

void Client::send_goodbye() {
  append_goodbye(out_);
  flush();
}

bool Client::take_frame(ClientEvent& out) {
  Frame frame;
  if (!reader_.next(frame)) return false;
  switch (frame.type) {
    case FrameType::Score:
      out.kind = ClientEvent::Kind::Score;
      out.score = decode_score(frame);
      return true;
    case FrameType::Alarm:
      out.kind = ClientEvent::Kind::Alarm;
      out.alarm = decode_alarm(frame);
      return true;
    case FrameType::Nack:
      out.kind = ClientEvent::Kind::Nack;
      out.nack = decode_nack(frame);
      return true;
    case FrameType::StatsReply:
      out.kind = ClientEvent::Kind::Stats;
      out.stats = decode_stats_reply(frame);
      return true;
    case FrameType::Goodbye:
      out.kind = ClientEvent::Kind::Goodbye;
      closed_ = true;
      return true;
    case FrameType::WireError:
      throw Error(decode_wire_error(frame));
    default:
      fail("net: unexpected ", to_string(frame.type), " frame from the daemon");
  }
}

bool Client::fill_from_shm(int remaining_ms) {
  std::uint8_t buf[65536];
  const std::size_t n = shm_.s2c().read_some(buf, sizeof(buf));
  if (n > 0) {
    reader_.feed(buf, n);
    return true;
  }
  // Ring empty: declare ourselves asleep and re-check before blocking. The
  // daemon's next write sees the armed flag and rings the doorbell, so the
  // poll below can never sleep through data (see shm.hpp's ordering
  // contract).
  if (!shm_.s2c().arm_waiting()) {
    shm_.s2c().disarm_waiting();
    return true;  // bytes raced in; drain on the next lap
  }
  pollfd pfds[2] = {{shm_.s2c_doorbell(), POLLIN, 0}, {sock_.fd(), POLLIN, 0}};
  const int rc = ::poll(pfds, 2, remaining_ms);
  shm_.s2c().disarm_waiting();
  if (rc < 0) {
    if (errno != EINTR) fail("net: poll(): ", std::strerror(errno));
    return true;
  }
  if (rc == 0) return false;  // timeout
  if ((pfds[0].revents & POLLIN) != 0) ShmSession::drain_doorbell(shm_.s2c_doorbell());
  if ((pfds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    const long r = read_some(sock_.fd(), buf, sizeof(buf));
    if (r == 0) {
      // Daemon gone: drain what it left in the ring, then treat as EOF.
      for (;;) {
        const std::size_t m = shm_.s2c().read_some(buf, sizeof(buf));
        if (m == 0) break;
        reader_.feed(buf, m);
      }
      shm_eof_ = true;
    }
    // Bytes on the bootstrap socket post-handshake are a daemon bug;
    // discard them rather than desynchronise the ring's FrameReader.
  }
  return true;
}

bool Client::poll_event(ClientEvent& out, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const bool forever = timeout_ms < 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(forever ? 0 : timeout_ms);
  std::uint8_t buf[65536];
  for (;;) {
    if (take_frame(out)) return true;
    if (closed_) return false;  // clean EOF already seen; nothing will arrive
    if (shm_eof_) {
      check(reader_.buffered() == 0, "net: connection dropped mid-frame");
      closed_ = true;
      return false;
    }
    int remaining = -1;
    if (!forever) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
      if (left <= 0) return false;
      remaining = static_cast<int>(left);
    }
    if (use_shm_) {
      if (!fill_from_shm(remaining)) return false;
      continue;
    }
    if (!wait_readable(sock_.fd(), remaining)) return false;
    const long n = read_some(sock_.fd(), buf, sizeof(buf));
    if (n == 0) {
      check(reader_.buffered() == 0, "net: connection dropped mid-frame");
      closed_ = true;
      return false;
    }
    if (n > 0) reader_.feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace varade::net
