// varade::net::Client — the blocking producer-side session against a
// varade-served daemon.
//
// Construction connects, sends HELLO, and blocks for the WELCOME, so a live
// Client always knows the daemon's stream/channel counts, threshold, and the
// admission policy resolved for this connection. Samples are encoded into a
// user-space buffer and flushed in large writes (one syscall carries many
// frames); everything the daemon sends back — scores, alarms, NACKs, the
// GOODBYE — is surfaced through poll_event() in arrival order.
//
// A WIRE_ERROR frame from the daemon (this client broke the protocol) and
// any malformed frame from the peer both throw varade::Error; the socket is
// useless at that point, so the Client is too.
//
// Thread contract: one Client per thread; no internal locking.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "varade/net/shm.hpp"
#include "varade/net/socket.hpp"
#include "varade/net/wire.hpp"

namespace varade::net {

struct ClientConfig {
  /// Admission policy requested in HELLO; nullopt defers to the daemon's
  /// configured default (the resolved policy arrives in the WELCOME).
  std::optional<serve::BackpressurePolicy> policy;
  /// Connect retry window: a daemon that listens but has not entered run()
  /// yet holds connections in the backlog, so this mostly covers the
  /// daemon-not-yet-bound race in tests and forked benchmarks.
  int connect_retry_ms = 2000;
};

/// One frame from the daemon, tagged by kind; exactly one member is valid.
struct ClientEvent {
  enum class Kind { Score, Alarm, Nack, Goodbye };
  Kind kind = Kind::Score;
  ScoreData score;
  AlarmData alarm;
  NackData nack;
};

class Client {
 public:
  /// Connects (retrying refused connects for config.connect_retry_ms),
  /// performs the HELLO/WELCOME handshake, and is ready to push.
  explicit Client(const Endpoint& endpoint, ClientConfig config = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The daemon's session announcement (valid for the Client's lifetime).
  const Welcome& welcome() const { return welcome_; }
  Index n_streams() const { return welcome_.n_streams; }
  Index n_channels() const { return welcome_.n_channels; }

  /// Encodes one sample as one SAMPLE frame (values must hold n_channels()
  /// floats). Flushes once 32 KiB are buffered.
  void send_sample(Index stream, std::uint64_t seq, const float* values);
  /// Encodes `count` consecutive samples of one stream (values is the
  /// row-major [count, n_channels()] block starting at base_seq) as
  /// SAMPLE_BATCH frames — one header per kMaxBatchSamples instead of one
  /// per sample. Falls back to per-sample SAMPLE frames against a daemon
  /// that did not grant the feature.
  void push_batch(Index stream, std::uint64_t base_seq, const float* values, Index count);
  /// Writes out everything buffered (blocking; on the shm transport this
  /// spins-then-waits while the ring is full and makes no syscall otherwise,
  /// except the doorbell when the daemon declared itself asleep).
  void flush();

  /// True when the session runs over shared-memory rings.
  bool shm_active() const { return use_shm_; }
  /// Doorbell syscalls made by this client's push path (shm only). The
  /// zero-syscall claim is this counter staying a small fraction of the
  /// samples pushed — it only moves on empty->nonempty ring transitions
  /// that caught the daemon asleep.
  long shm_doorbells() const { return shm_doorbells_; }

  /// Asks the daemon to shut down (it drains, flushes, and says GOODBYE).
  void request_shutdown();
  /// Announces an orderly departure, releasing this client's streams.
  void send_goodbye();

  /// Blocks up to timeout_ms for the next frame from the daemon. True with
  /// `out` filled, false on timeout. Throws on WIRE_ERROR (carrying the
  /// daemon's message), a malformed frame, or a connection drop mid-frame.
  /// timeout_ms < 0 waits indefinitely (until a frame or EOF).
  bool poll_event(ClientEvent& out, int timeout_ms);

  /// True once the daemon's GOODBYE (or a clean EOF) was observed.
  bool closed() const { return closed_; }

 private:
  bool take_frame(ClientEvent& out);
  /// Blocks up to remaining_ms for ring bytes (or daemon death); true when
  /// progress was made, false on timeout.
  bool fill_from_shm(int remaining_ms);

  Socket sock_;
  FrameReader reader_;
  std::vector<std::uint8_t> out_;
  Welcome welcome_;
  bool closed_ = false;

  ShmSession shm_;
  bool use_shm_ = false;
  bool shm_eof_ = false;  // bootstrap socket EOF seen; ring already drained
  long shm_doorbells_ = 0;
};

}  // namespace varade::net
