// varade::net::Server — the serving daemon's connection loop: the network
// front door over the AsyncScoringRuntime.
//
// One poll()-driven thread owns every socket: it accepts connections on a
// TCP and/or Unix-domain listener, parses length-prefixed frames out of
// whatever fragments the kernel delivers (wire.hpp survives partial reads by
// construction), pushes SAMPLE frames into the runtime's lock-free rings,
// and routes the runtime's scores back out as SCORE/ALARM frames to the
// connection that owns each stream. The runtime's scorer shards run on their
// own threads underneath, so socket I/O and scoring overlap. One eventfd
// wakes the loop for both of its non-socket events: a scorer that has run
// out of input with scores to route (the runtime's scores-ready hook) and a
// stop request. The loop also routes on every pass, so a busy scorer's
// finished rounds leave with the next socket event or the poll timeout.
//
// Admission control: each connection picks a BackpressurePolicy in its HELLO
// (or inherits the daemon default). Block applies ring backpressure by
// stalling intake (the poll thread waits for the scorer, which propagates to
// every client through the kernel socket buffers — the semantics of Block
// end to end); DropOldest evicts silently (the drop is counted in /metrics);
// Reject surfaces as a NACK frame carrying the PushResult. A SAMPLE for a
// stream owned by another live connection is NACKed with reason StreamBusy —
// stream ownership is first-push-wins and released on disconnect.
//
// Protocol violations (bad magic/version/length, wrong payload size,
// non-finite floats, out-of-range stream ids, frames before HELLO) never
// kill the daemon: the offender gets a WIRE_ERROR frame naming the problem
// and its connection is closed after the flush.
//
// Determinism across the socket: per-stream sample order is the client's
// send order (TCP/UDS are ordered, the ring is FIFO, one owner per stream),
// scores travel as exact IEEE-754 bit patterns, and ALARM frames forward the
// alarm transition the engine's own state machine attached to each score
// (StreamScore::alarm) — so scores and alarm events received by a client are
// bit-identical to a synchronous in-process ScoringEngine fed the same
// samples.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "varade/net/shm.hpp"
#include "varade/net/socket.hpp"
#include "varade/net/wire.hpp"
#include "varade/obs/telemetry.hpp"
#include "varade/serve/runtime.hpp"

namespace varade::net {

struct ServerConfig {
  /// TCP listener: port >= 0 enables it (0 picks an ephemeral port, readable
  /// via tcp_port() after construction); -1 disables.
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Unix-domain listener path; empty disables. A stale socket file is
  /// replaced.
  std::string uds_path;
  /// Shared-memory bootstrap listener path ("shm:PATH"); empty disables. A
  /// Unix socket at PATH accepts connections whose HELLO may request the
  /// kFeatureShm bit; granted sessions get a per-connection ring segment
  /// fd-passed in the WELCOME and all further frames travel through the
  /// rings (the socket stays open only as the liveness signal).
  std::string shm_path;
  /// Per-direction ring size for shm sessions (bytes, power of two).
  std::size_t shm_ring_bytes = 1 << 20;
  /// Streams the runtime serves (wire stream ids are [0, n_streams)).
  Index n_streams = 16;
  /// Calibrated alarm threshold (the daemon calibrates before serving).
  float threshold = 0.0F;
  /// Runtime configuration: ring capacity, shard count, engine batching, and
  /// the *default* admission policy (config.runtime.backpressure) used by
  /// connections whose HELLO does not override it.
  serve::AsyncRuntimeConfig runtime;
  /// Prometheus-style metrics endpoint: port >= 0 enables a plain-HTTP
  /// listener serving GET /metrics (0 picks an ephemeral port, readable via
  /// metrics_port() after construction); -1 disables. The endpoint is served
  /// from the same poll loop as the wire protocol — no extra thread.
  int metrics_port = -1;
  std::string metrics_host = "127.0.0.1";
};

class Server {
 public:
  /// Borrows a fitted detector + normalizer (same contract as the runtime).
  /// Creates the listeners and the (not yet started) runtime, so the
  /// resolved tcp_port()/uds_path() are readable — and clients may already
  /// connect and queue in the backlog — before run() is entered.
  Server(core::AnomalyDetector& detector, const data::MinMaxNormalizer& normalizer,
         ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Resolved TCP port (after an ephemeral bind), or -1 when TCP is off.
  int tcp_port() const { return tcp_port_; }
  /// Resolved metrics-endpoint port, or -1 when the endpoint is off.
  int metrics_port() const { return metrics_port_; }
  const std::string& uds_path() const { return config_.uds_path; }
  const std::string& shm_path() const { return config_.shm_path; }
  Index n_streams() const { return config_.n_streams; }
  Index n_channels() const { return n_channels_; }

  /// Starts the runtime and serves until a SHUTDOWN frame or request_stop().
  /// Shutdown is orderly: intake closes, the runtime drains every accepted
  /// sample, the resulting scores are flushed, and every connection gets a
  /// GOODBYE. Call once.
  void run();

  /// Thread- and signal-safe stop request (an atomic flag, then a write to
  /// the poll loop's wake eventfd); run() returns after the orderly
  /// shutdown. Before run(), the first poll of run() sees it.
  void request_stop();

  /// Counters for tests and the daemon's exit report (poll-thread-written;
  /// read them after run() returns, or accept approximate values).
  long connections_accepted() const { return connections_accepted_.load(); }
  long frames_nacked() const { return frames_nacked_.load(); }
  long protocol_errors() const { return protocol_errors_.load(); }
  /// Scores whose owning connection was already gone (dropped, not sent).
  long scores_unrouted() const { return scores_unrouted_.load(); }
  /// Times write_connection() hit EAGAIN with bytes still pending (the
  /// kernel socket buffer was full — the client is reading too slowly).
  long flush_stalls() const { return static_cast<long>(flush_stalls_.value()); }

  const serve::AsyncScoringRuntime& runtime() const { return runtime_; }

  /// Prometheus text-format exposition of every runtime + server metric —
  /// exactly the body a GET /metrics scrape receives. Callable from tests
  /// without a metrics listener.
  std::string metrics_text() const;

 private:
  struct Connection {
    Socket sock;
    FrameReader reader;
    std::vector<std::uint8_t> out;  // encoded frames awaiting write
    std::size_t out_off = 0;        // already-written prefix of `out`
    serve::BackpressurePolicy policy;
    SampleData sample;      // decode scratch, reused per frame
    SampleBatchData batch;  // SAMPLE_BATCH decode scratch, reused per frame
    std::uint8_t features = 0;  // feature bits granted in the WELCOME
    bool helloed = false;
    bool closing = false;       // flush `out`, then close
    bool shm_bootstrap = false;  // accepted on the shm listener
    bool shm_active = false;     // rings negotiated; sock is liveness-only
    ShmSession shm;
  };

  /// Per-stream routing state: the owning connection plus the open alarm
  /// event's onset and peak, folded from the engine's AlarmEdge transitions
  /// in emission order (the same std::max sequence the engine applies), so
  /// each ALARM frame carries the engine's event bit for bit.
  struct StreamMirror {
    Connection* owner = nullptr;  // first-push-wins; null when unowned
    Index onset = 0;              // onset_sample of the latest event
    float peak = 0.0F;            // peak_score of the latest event
  };

  /// One in-flight metrics scrape: a minimal HTTP/1.0 exchange (read the
  /// request head, write one response, close). Kept separate from Connection
  /// so the wire-protocol state machine never sees HTTP bytes. The poll loop
  /// closes a scrape that outlives its deadline (server.cpp).
  struct MetricsConn {
    Socket sock;
    std::chrono::steady_clock::time_point accepted;
    std::string request;            // bytes buffered until the blank line
    std::vector<std::uint8_t> out;  // encoded response awaiting write
    std::size_t out_off = 0;
    bool responded = false;  // response built; close once flushed
  };

  void handle_frame(Connection& conn, const Frame& frame);
  void handle_hello(Connection& conn, const Frame& frame);
  void handle_sample(Connection& conn, const Frame& frame);
  void handle_sample_batch(Connection& conn, const Frame& frame);
  /// The one sample-ingest path behind SAMPLE and SAMPLE_BATCH: stream range
  /// check, first-push-wins ownership, one runtime push per sample, and the
  /// NACKs. Pushes the `valid` leading samples of `values` (seq base_seq,
  /// base_seq + 1, ...); when valid < count, a non-finite value cut the
  /// batch and the tail is NACKed MalformedSample at base_seq + valid.
  void ingest_samples(Connection& conn, Index stream, std::uint64_t base_seq,
                      const float* values, Index valid, Index count);
  /// Appends one NACK frame to `conn` and counts it.
  void nack(Connection& conn, Index stream, std::uint64_t seq, serve::PushResult result,
            NackReason reason);
  /// Sends WIRE_ERROR with `message` and schedules the connection for close.
  void protocol_error(Connection& conn, const std::string& message);
  void route_scores();
  void read_connection(Connection& conn);
  void write_connection(Connection& conn);
  /// Drains the c2s ring through the frame dispatcher; the shm analogue of
  /// read_connection (the bootstrap socket itself is handled in run()).
  void read_shm_connection(Connection& conn);
  /// Moves pending output bytes into the s2c ring, ringing the client's
  /// doorbell when it declared itself asleep; a full ring leaves the rest
  /// for the next loop iteration (the shm analogue of an EAGAIN).
  void write_shm_connection(Connection& conn);
  void read_metrics(MetricsConn& conn);
  void write_metrics(MetricsConn& conn);
  void release_streams(Connection& conn);
  void begin_shutdown();
  /// Adds 1 to the wake eventfd (async-signal-safe).
  void wake() const;

  ServerConfig config_;
  serve::AsyncScoringRuntime runtime_;
  Index n_channels_ = 0;  // fixes every SAMPLE frame's payload size

  Socket tcp_listener_;
  Socket uds_listener_;
  Socket shm_listener_;
  Socket metrics_listener_;
  int tcp_port_ = -1;
  int metrics_port_ = -1;
  /// The poll loop's one wake fd: rung by the scorers when scores are ready
  /// and by request_stop(); run() resets it before routing.
  int wake_fd_ = -1;
  std::atomic<bool> stop_requested_{false};

  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<std::unique_ptr<MetricsConn>> metrics_conns_;
  std::vector<StreamMirror> streams_;

  bool running_ = false;
  bool shutting_down_ = false;

  std::atomic<long> connections_accepted_{0};
  // conns_.size() as published by the poll thread on every accept and
  // erase, so metrics_text() can read it from any thread.
  std::atomic<long> live_connections_{0};
  std::atomic<long> frames_nacked_{0};
  std::atomic<long> protocol_errors_{0};
  std::atomic<long> scores_unrouted_{0};

  // Poll-thread telemetry (snapshot-safe from any thread; see varade::obs).
  obs::LogHistogram decode_hist_;     // frame decode+dispatch per read batch
  obs::LogHistogram out_depth_hist_;  // per-connection pending output bytes
  obs::Counter frames_decoded_;
  obs::Counter flush_stalls_;
  obs::Counter metrics_scrapes_;
  obs::LogHistogram shm_ring_depth_hist_;  // c2s readable bytes per drain
  obs::Counter batch_frames_;          // SAMPLE_BATCH frames dispatched
  obs::Counter batch_samples_;         // samples carried by those frames
  obs::Counter shm_doorbells_rung_;    // s2c doorbells (client was asleep)
};

}  // namespace varade::net
