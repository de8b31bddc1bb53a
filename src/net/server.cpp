#include "varade/net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "varade/obs/prometheus.hpp"

namespace varade::net {

namespace {

/// Hard ceiling on the orderly-shutdown flush: a client that stops reading
/// must not wedge the daemon forever.
constexpr std::chrono::seconds kShutdownFlushDeadline{5};

/// A metrics scrape is one short GET; anything bigger is not a scraper.
constexpr std::size_t kMaxMetricsRequest = 8192;
/// Concurrent scrapes are capped independently of wire connections so a
/// scraper storm cannot crowd out producers.
constexpr std::size_t kMaxMetricsConns = 16;
/// A scrape still open this long after its accept is closed, answered or
/// not, so idle connections cannot hold every kMaxMetricsConns slot.
constexpr std::chrono::seconds kMetricsScrapeDeadline{2};

/// poll() timeout. Sockets, shm doorbells and the wake eventfd (a scorer out
/// of input with scores to route, a stop request) all wake the loop, so this
/// only bounds how long a busy scorer's finished rounds wait while the
/// sockets are quiet, backstops a shm ring written without a doorbell, and
/// paces the shutdown-flush and scrape deadlines.
constexpr int kPollIntervalMs = 2;
/// Wire connections beyond this are refused at accept.
constexpr Index kMaxConnections = 128;
/// listen() backlog of every listener.
constexpr int kListenBacklog = 64;

}  // namespace

Server::Server(core::AnomalyDetector& detector, const data::MinMaxNormalizer& normalizer,
               ServerConfig config)
    : config_(std::move(config)),
      runtime_(detector, normalizer, config_.runtime) {
  check(config_.n_streams >= 1, "Server needs n_streams >= 1");
  check(config_.n_streams <= static_cast<Index>(0xFFFFFFFFU),
        "net: n_streams exceeds the wire's u32 stream id space");
  check(config_.tcp_port >= -1 && config_.tcp_port <= 65535,
        "net: tcp_port out of range [-1, 65535]");
  check(config_.tcp_port >= 0 || !config_.uds_path.empty() || !config_.shm_path.empty(),
        "Server needs at least one listener (tcp_port >= 0, a uds_path, or a shm_path)");
  if (!config_.shm_path.empty()) {
    check(config_.shm_ring_bytes >= kShmMinRingBytes &&
              config_.shm_ring_bytes <= kShmMaxRingBytes &&
              (config_.shm_ring_bytes & (config_.shm_ring_bytes - 1)) == 0,
          "net: shm_ring_bytes must be a power of two in [" +
              std::to_string(kShmMinRingBytes) + ", " + std::to_string(kShmMaxRingBytes) + "]");
  }
  check(config_.metrics_port >= -1 && config_.metrics_port <= 65535,
        "net: metrics_port out of range [-1, 65535]");

  runtime_.add_streams(config_.n_streams);
  runtime_.set_threshold(config_.threshold);
  n_channels_ = normalizer.n_channels();
  check(n_channels_ >= 1, "net: normalizer reports zero channels");

  streams_.resize(static_cast<std::size_t>(config_.n_streams));

  if (config_.tcp_port >= 0) {
    tcp_port_ = config_.tcp_port;
    tcp_listener_ = tcp_listen(config_.tcp_host, tcp_port_, kListenBacklog);
    set_nonblocking(tcp_listener_.fd(), true);
  }
  if (!config_.uds_path.empty()) {
    uds_listener_ = unix_listen(config_.uds_path, kListenBacklog);
    set_nonblocking(uds_listener_.fd(), true);
  }
  if (!config_.shm_path.empty()) {
    shm_listener_ = unix_listen(config_.shm_path, kListenBacklog);
    set_nonblocking(shm_listener_.fd(), true);
  }
  if (config_.metrics_port >= 0) {
    metrics_port_ = config_.metrics_port;
    metrics_listener_ = tcp_listen(config_.metrics_host, metrics_port_, kListenBacklog);
    set_nonblocking(metrics_listener_.fd(), true);
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) fail("net: eventfd(): ", std::strerror(errno));
  // Finished scores wake the poll loop instead of waiting for its timeout.
  runtime_.set_scores_ready([this] { wake(); });
}

Server::~Server() {
  // The scorers ring wake_fd_: join them before it closes. run() normally
  // closed the runtime already; this covers a run() that threw with the
  // scorers live. A scorer failure surfacing here is dropped, as the
  // runtime's own destructor drops it (run() is where it is reported).
  try {
    runtime_.close();
  } catch (...) {
  }
  ::close(wake_fd_);
  if (!config_.uds_path.empty()) (void)unlink(config_.uds_path.c_str());
  if (!config_.shm_path.empty()) (void)unlink(config_.shm_path.c_str());
}

void Server::wake() const {
  const std::uint64_t one = 1;
  const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  (void)rc;  // EAGAIN only on a saturated counter: a wakeup is pending anyway
}

void Server::request_stop() {
  // Async-signal-safe (served_main.cpp calls it from a signal handler): a
  // lock-free store and one write(2).
  static_assert(std::atomic<bool>::is_always_lock_free,
                "request_stop() stores the stop flag from a signal handler");
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

void Server::release_streams(Connection& conn) {
  for (StreamMirror& m : streams_)
    if (m.owner == &conn) m.owner = nullptr;
}

void Server::protocol_error(Connection& conn, const std::string& message) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  append_wire_error(conn.out, message);
  conn.closing = true;
}

void Server::nack(Connection& conn, Index stream, std::uint64_t seq, serve::PushResult result,
                  NackReason reason) {
  NackData data;
  data.stream = stream;
  data.seq = seq;
  data.result = result;
  data.reason = reason;
  append_nack(conn.out, data);
  frames_nacked_.fetch_add(1, std::memory_order_relaxed);
}

void Server::handle_sample(Connection& conn, const Frame& frame) {
  decode_sample(frame, n_channels_, conn.sample);  // throws on size/NaN -> WIRE_ERROR
  ingest_samples(conn, conn.sample.stream, conn.sample.seq, conn.sample.values.data(), 1, 1);
}

void Server::handle_sample_batch(Connection& conn, const Frame& frame) {
  if ((conn.features & kFeatureSampleBatch) == 0) {
    protocol_error(conn, "net: SAMPLE_BATCH frame without the feature negotiated in HELLO");
    return;
  }
  decode_sample_batch(frame, n_channels_, conn.batch);  // structural throws -> WIRE_ERROR
  obs::count(batch_frames_);
  obs::count(batch_samples_, static_cast<std::uint64_t>(conn.batch.count));
  ingest_samples(conn, conn.batch.stream, conn.batch.base_seq, conn.batch.values.data(),
                 conn.batch.valid, conn.batch.count);
}

void Server::ingest_samples(Connection& conn, Index stream, std::uint64_t base_seq,
                            const float* values, Index valid, Index count) {
  if (stream >= config_.n_streams) {
    protocol_error(conn, "net: " + serve::detail::stream_range_message(stream, config_.n_streams));
    return;
  }
  StreamMirror& mirror = streams_[static_cast<std::size_t>(stream)];
  if (mirror.owner == nullptr) mirror.owner = &conn;  // first-push-wins ownership
  if (mirror.owner != &conn) {
    nack(conn, stream, base_seq, serve::PushResult::Rejected, NackReason::StreamBusy);
    return;
  }
  // A batch enters the ring sample by sample, exactly as unbatched SAMPLE
  // frames would — the runtime (and therefore every score) cannot tell the
  // difference.
  for (Index i = 0; i < valid; ++i) {
    const serve::PushResult result =
        runtime_.push(stream, values + i * n_channels_, n_channels_, conn.policy);
    if (result == serve::PushResult::Rejected)
      nack(conn, stream, base_seq + static_cast<std::uint64_t>(i), result,
           NackReason::Backpressure);
  }
  // A non-finite value truncated the batch: name the offending in-batch
  // sample and drop only the tail — the connection survives.
  if (valid < count)
    nack(conn, stream, base_seq + static_cast<std::uint64_t>(valid), serve::PushResult::Rejected,
         NackReason::MalformedSample);
}

void Server::handle_hello(Connection& conn, const Frame& frame) {
  const HelloData hello = decode_hello(frame);  // throws -> WIRE_ERROR
  conn.policy = hello.policy.value_or(config_.runtime.backpressure);
  conn.helloed = true;
  // Grant SAMPLE_BATCH to anyone who asks; the shm rings only on the shm
  // bootstrap listener (a request elsewhere is simply not granted, and the
  // client sees that in the WELCOME's feature echo).
  std::uint8_t granted = hello.features & kFeatureSampleBatch;
  if (conn.shm_bootstrap && (hello.features & kFeatureShm) != 0) granted |= kFeatureShm;
  conn.features = granted;
  Welcome welcome;
  welcome.n_streams = config_.n_streams;
  welcome.n_channels = n_channels_;
  welcome.threshold = runtime_.threshold();
  welcome.policy = conn.policy;
  welcome.features = granted;
  if ((granted & kFeatureShm) != 0) {
    // The WELCOME must carry the segment + doorbell fds, so it bypasses
    // conn.out and goes straight out with sendmsg(SCM_RIGHTS). From here on
    // the socket is only the liveness signal; frames travel in the rings.
    conn.shm = ShmSession::create(config_.shm_ring_bytes);
    std::vector<std::uint8_t> bytes;
    append_welcome(bytes, welcome);
    const int fds[3] = {conn.shm.seg_fd(), conn.shm.c2s_doorbell(), conn.shm.s2c_doorbell()};
    send_with_fds(conn.sock.fd(), bytes.data(), bytes.size(), fds, 3);
    conn.shm.close_seg_fd();
    conn.shm_active = true;
    return;
  }
  append_welcome(conn.out, welcome);
}

void Server::handle_frame(Connection& conn, const Frame& frame) {
  if (!conn.helloed) {
    if (frame.type != FrameType::Hello) {
      protocol_error(conn, std::string("net: expected HELLO as the first frame, got ") +
                               net::to_string(frame.type));
      return;
    }
    handle_hello(conn, frame);
    return;
  }
  switch (frame.type) {
    case FrameType::Hello:
      protocol_error(conn, "net: duplicate HELLO frame");
      return;
    case FrameType::Sample:
      handle_sample(conn, frame);
      return;
    case FrameType::SampleBatch:
      handle_sample_batch(conn, frame);
      return;
    case FrameType::Shutdown:
      begin_shutdown();
      return;
    case FrameType::Goodbye:
      conn.closing = true;
      return;
    default:
      protocol_error(conn, std::string("net: unexpected ") + net::to_string(frame.type) +
                               " frame from client");
      return;
  }
}

void Server::read_connection(Connection& conn) {
  std::uint8_t buf[65536];
  const std::int64_t t_read = obs::tick();
  long frames = 0;
  bool done = false;
  while (!done) {
    const long n = read_some(conn.sock.fd(), buf, sizeof(buf));
    if (n == -1) break;  // drained
    if (n == 0) {
      // Orderly (or abortive) peer close: pending output is moot.
      release_streams(conn);
      conn.sock.close();
      break;
    }
    try {
      conn.reader.feed(buf, static_cast<std::size_t>(n));
      Frame frame;
      while (conn.reader.next(frame)) {
        ++frames;
        handle_frame(conn, frame);
        if (conn.closing) {  // discard the rest of the read buffer
          done = true;
          break;
        }
      }
    } catch (const Error& e) {
      protocol_error(conn, e.what());
      break;
    }
    if (n < static_cast<long>(sizeof(buf))) break;  // socket very likely drained
  }
  // Decode+dispatch latency of the whole read batch (one clock pair per
  // readable socket, not per frame — the telemetry must stay cheaper than
  // what it measures).
  if (frames > 0) {
    obs::record_since(decode_hist_, t_read);
    obs::count(frames_decoded_, static_cast<std::uint64_t>(frames));
  }
}

void Server::read_shm_connection(Connection& conn) {
  const std::size_t depth = conn.shm.c2s().readable();
  if (depth == 0) return;
  obs::record_value(shm_ring_depth_hist_, static_cast<std::int64_t>(depth));
  std::uint8_t buf[65536];
  const std::int64_t t_read = obs::tick();
  long frames = 0;
  bool done = false;
  while (!done) {
    const std::size_t n = conn.shm.c2s().read_some(buf, sizeof(buf));
    if (n == 0) break;
    try {
      conn.reader.feed(buf, n);
      Frame frame;
      while (conn.reader.next(frame)) {
        ++frames;
        handle_frame(conn, frame);
        if (conn.closing) {  // discard the rest of the ring
          done = true;
          break;
        }
      }
    } catch (const Error& e) {
      protocol_error(conn, e.what());
      break;
    }
  }
  if (frames > 0) {
    obs::record_since(decode_hist_, t_read);
    obs::count(frames_decoded_, static_cast<std::uint64_t>(frames));
  }
}

void Server::write_shm_connection(Connection& conn) {
  obs::record_value(out_depth_hist_, static_cast<std::int64_t>(conn.out.size() - conn.out_off));
  while (conn.out_off < conn.out.size()) {
    bool bell = false;
    const std::size_t n = conn.shm.s2c().write_some(conn.out.data() + conn.out_off,
                                                    conn.out.size() - conn.out_off, bell);
    if (bell) {
      ShmSession::ring_doorbell(conn.shm.s2c_doorbell());
      obs::count(shm_doorbells_rung_);
    }
    if (n == 0) {
      obs::count(flush_stalls_);  // ring full: the client reads too slowly
      break;
    }
    conn.out_off += n;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > 65536) {
    conn.out.erase(conn.out.begin(), conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_off));
    conn.out_off = 0;
  }
}

void Server::write_connection(Connection& conn) {
  obs::record_value(out_depth_hist_, static_cast<std::int64_t>(conn.out.size() - conn.out_off));
  while (conn.out_off < conn.out.size()) {
    const ssize_t rc = ::send(conn.sock.fd(), conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        obs::count(flush_stalls_);  // kernel buffer full: the client reads too slowly
        break;
      }
      release_streams(conn);  // peer is gone (EPIPE/ECONNRESET/...)
      conn.sock.close();
      return;
    }
    conn.out_off += static_cast<std::size_t>(rc);
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > 65536) {
    conn.out.erase(conn.out.begin(), conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_off));
    conn.out_off = 0;
  }
}

std::string Server::metrics_text() const {
  const serve::RuntimeStats rs = runtime_.stats();
  const serve::RuntimeTelemetry rt = runtime_.telemetry();
  obs::PrometheusWriter w;

  // Runtime sample accounting (sums over every stream / shard).
  w.counter("varade_samples_pushed_total", "Samples accepted into stream rings.",
            static_cast<std::uint64_t>(rs.pushed));
  w.counter("varade_samples_dropped_total", "Samples evicted under the DropOldest policy.",
            static_cast<std::uint64_t>(rs.dropped));
  w.counter("varade_samples_rejected_total", "Pushes refused (Reject policy or closed intake).",
            static_cast<std::uint64_t>(rs.rejected));
  w.counter("varade_samples_scored_total", "Stream scores emitted by the runtime.",
            static_cast<std::uint64_t>(rs.scored));

  // Per-shard scorer counters.
  for (std::size_t s = 0; s < rs.shards.size(); ++s) {
    const serve::ShardStats& sh = rs.shards[s];
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    w.counter("varade_scorer_rounds_total", "Scoring rounds (drain + engine step) per shard.",
              static_cast<std::uint64_t>(sh.rounds), label);
  }
  for (std::size_t s = 0; s < rs.shards.size(); ++s) {
    const serve::ShardStats& sh = rs.shards[s];
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    w.counter("varade_scorer_naps_total", "Times the shard scorer went to sleep.",
              static_cast<std::uint64_t>(sh.naps), label);
  }
  for (std::size_t s = 0; s < rs.shards.size(); ++s) {
    const serve::ShardStats& sh = rs.shards[s];
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    w.counter("varade_scorer_scored_total", "Stream scores emitted per shard.",
              static_cast<std::uint64_t>(sh.scored), label);
  }

  // Scorer-loop latency (merged across shards; ns recorded, exposed as s).
  w.histogram("varade_scorer_round_seconds",
              "Productive scorer round: ring drain + engine step.", rt.total.round);
  w.histogram("varade_ring_drain_seconds", "Ring-drain sweep of a productive round.",
              rt.total.drain);
  w.histogram("varade_result_emit_seconds", "Result-queue hop per round.",
              rt.total.emit);
  w.histogram("varade_wake_to_drain_seconds",
              "Nap wake to the end of the next productive drain sweep.", rt.total.wake_to_drain);
  w.histogram("varade_score_route_delay_seconds",
              "Result queue's first score to the drain that routes it.", rt.total.route_delay);

  // Engine step phases (merged across shards).
  for (int p = 0; p < serve::kStepPhases; ++p) {
    const std::string label = std::string("phase=\"") + serve::kStepPhaseName[p] + "\"";
    w.histogram("varade_step_phase_seconds", "Engine step() time per pipeline phase.",
                rt.total.engine.phases[p], 1e-9, label);
  }
  w.histogram("varade_engine_step_seconds", "Whole engine step() call (productive rounds).",
              rt.total.engine.step);
  w.histogram("varade_push_to_score_seconds",
              "Sampled end-to-end latency from push() to the score being computed.",
              rt.total.engine.push_to_score);

  // Network front door.
  w.gauge("varade_net_connections", "Live wire-protocol connections.",
          static_cast<double>(live_connections_.load(std::memory_order_relaxed)));
  w.counter("varade_net_connections_accepted_total", "Wire-protocol connections accepted.",
            static_cast<std::uint64_t>(connections_accepted_.load(std::memory_order_relaxed)));
  w.counter("varade_net_frames_decoded_total", "Wire frames decoded and dispatched.",
            frames_decoded_.value());
  w.counter("varade_net_frames_nacked_total", "SAMPLE frames answered with a NACK.",
            static_cast<std::uint64_t>(frames_nacked_.load(std::memory_order_relaxed)));
  w.counter("varade_net_protocol_errors_total", "Connections killed for protocol violations.",
            static_cast<std::uint64_t>(protocol_errors_.load(std::memory_order_relaxed)));
  w.counter("varade_net_scores_unrouted_total",
            "Scores whose owning connection was gone (dropped, not sent).",
            static_cast<std::uint64_t>(scores_unrouted_.load(std::memory_order_relaxed)));
  w.counter("varade_net_flush_stalls_total",
            "Writes that hit a full kernel socket buffer with bytes pending.",
            flush_stalls_.value());
  w.counter("varade_net_metrics_scrapes_total", "GET /metrics requests served.",
            metrics_scrapes_.value());
  w.counter("varade_net_batch_frames_total", "SAMPLE_BATCH frames decoded and dispatched.",
            batch_frames_.value());
  w.counter("varade_net_batch_samples_total", "Samples carried by SAMPLE_BATCH frames.",
            batch_samples_.value());
  w.counter("varade_net_shm_doorbells_total",
            "Server-to-client doorbells rung (the client had declared itself asleep).",
            shm_doorbells_rung_.value());
  w.histogram("varade_net_frame_decode_seconds",
              "Frame decode + dispatch time per readable-socket batch.", decode_hist_.snapshot());
  w.histogram("varade_net_out_buffer_bytes", "Pending output bytes at each flush attempt.",
              out_depth_hist_.snapshot(), 1.0);
  w.histogram("varade_net_shm_ring_depth_bytes",
              "Client-to-server ring occupancy at each nonempty drain.",
              shm_ring_depth_hist_.snapshot(), 1.0);

  return w.text();
}

void Server::read_metrics(MetricsConn& conn) {
  char buf[4096];
  for (;;) {
    const long n = read_some(conn.sock.fd(), buf, sizeof(buf));
    if (n == -1) break;  // drained
    if (n == 0) {        // peer closed; whatever was buffered is moot
      conn.sock.close();
      return;
    }
    conn.request.append(buf, static_cast<std::size_t>(n));
    if (conn.request.size() > kMaxMetricsRequest) {
      conn.sock.close();  // not a scrape — drop without ceremony
      return;
    }
    if (n < static_cast<long>(sizeof(buf))) break;
  }
  if (conn.responded) return;  // ignore extra bytes after the request head
  const std::size_t head_end = conn.request.find("\r\n\r\n");
  if (head_end == std::string::npos) return;  // request head still incomplete

  std::string status = "200 OK";
  std::string body;
  const std::size_t line_end = conn.request.find("\r\n");
  const std::string line = conn.request.substr(0, line_end);
  if (line.rfind("GET ", 0) != 0) {
    status = "405 Method Not Allowed";
    body = "only GET is served here\n";
  } else {
    const std::size_t path_end = line.find(' ', 4);
    const std::string path =
        line.substr(4, path_end == std::string::npos ? std::string::npos : path_end - 4);
    if (path == "/metrics") {
      obs::count(metrics_scrapes_);
      body = metrics_text();
    } else {
      status = "404 Not Found";
      body = "try /metrics\n";
    }
  }
  const std::string response =
      "HTTP/1.0 " + status +
      "\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n\r\n" +
      body;
  conn.out.assign(response.begin(), response.end());
  conn.responded = true;
}

void Server::write_metrics(MetricsConn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t rc = ::send(conn.sock.fd(), conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // flush on the next round
      conn.sock.close();
      return;
    }
    conn.out_off += static_cast<std::size_t>(rc);
  }
  conn.sock.close();  // one response per connection (HTTP/1.0, Connection: close)
}

void Server::route_scores() {
  for (const serve::StreamScore& score : runtime_.drain_scores()) {
    StreamMirror& m = streams_[static_cast<std::size_t>(score.stream)];
    Connection* owner = m.owner;
    const bool routable = owner != nullptr && owner->sock.valid() && !owner->closing;
    if (routable) {
      append_score(owner->out, score.stream, static_cast<std::uint64_t>(score.sample),
                   score.score);
    } else {
      scores_unrouted_.fetch_add(1, std::memory_order_relaxed);
    }
    // The engine already decided the alarm transition; fold it into the
    // stream's onset/peak even when the owner is gone, so a later owner's
    // ALARM frames still describe the engine's event.
    if (score.alarm == core::AlarmEdge::None) continue;
    const bool raised = score.alarm == core::AlarmEdge::Raised;
    if (raised) m.onset = score.sample;
    m.peak = raised ? score.score : std::max(m.peak, score.score);
    if (routable)
      append_alarm(owner->out, {.stream = score.stream,
                                .onset_sample = static_cast<std::uint64_t>(m.onset),
                                .last_sample = static_cast<std::uint64_t>(score.sample),
                                .peak_score = m.peak,
                                .raised = raised});
  }
}

void Server::begin_shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  tcp_listener_.close();
  uds_listener_.close();
  shm_listener_.close();
  metrics_listener_.close();
  metrics_conns_.clear();  // a half-served scrape does not gate shutdown
  // Drain every accepted sample (close() blocks until the scorers finish),
  // then flush the final scores and say goodbye.
  runtime_.close();
  route_scores();
  for (const std::unique_ptr<Connection>& conn : conns_) {
    if (!conn->sock.valid()) continue;
    append_goodbye(conn->out);
    conn->closing = true;
  }
}

void Server::run() {
  check(!running_, "Server::run() called twice");
  running_ = true;
  runtime_.start();

  std::vector<pollfd> pfds;
  std::vector<Connection*> pfd_conns;      // parallel to the connection pfds
  std::vector<MetricsConn*> pfd_mconns;    // parallel to the metrics-conn pfds
  std::chrono::steady_clock::time_point shutdown_started{};

  while (!(shutting_down_ && conns_.empty())) {
    pfds.clear();
    pfd_conns.clear();
    pfd_mconns.clear();
    pfds.push_back({wake_fd_, POLLIN, 0});
    std::size_t n_listeners = 0;
    std::size_t metrics_listener_idx = 0;  // 0 = not polled this round
    if (!shutting_down_) {
      if (tcp_listener_.valid()) {
        pfds.push_back({tcp_listener_.fd(), POLLIN, 0});
        ++n_listeners;
      }
      if (uds_listener_.valid()) {
        pfds.push_back({uds_listener_.fd(), POLLIN, 0});
        ++n_listeners;
      }
      if (shm_listener_.valid()) {
        pfds.push_back({shm_listener_.fd(), POLLIN, 0});
        ++n_listeners;
      }
      if (metrics_listener_.valid()) {
        metrics_listener_idx = pfds.size();
        pfds.push_back({metrics_listener_.fd(), POLLIN, 0});
      }
    }
    const std::size_t first_conn = pfds.size();
    for (const std::unique_ptr<Connection>& conn : conns_) {
      if (!conn->sock.valid()) continue;
      short events = 0;
      // A shm connection's socket is polled even while closing: it is the
      // liveness signal, and output leaves through the ring, never POLLOUT.
      if (!conn->closing || conn->shm_active) events |= POLLIN;
      if (!conn->shm_active && conn->out_off < conn->out.size()) events |= POLLOUT;
      pfds.push_back({conn->sock.fd(), events, 0});
      pfd_conns.push_back(conn.get());
    }
    const std::size_t first_mconn = pfds.size();
    for (const std::unique_ptr<MetricsConn>& mc : metrics_conns_) {
      if (!mc->sock.valid()) continue;
      short events = 0;
      if (!mc->responded) events |= POLLIN;
      if (mc->out_off < mc->out.size()) events |= POLLOUT;
      pfds.push_back({mc->sock.fd(), events, 0});
      pfd_mconns.push_back(mc.get());
    }
    // Shm doorbells: arm each empty c2s ring before sleeping (the armed
    // flag makes the client's next write ring the eventfd — see shm.hpp's
    // ordering contract). A ring with bytes already in it forces a zero
    // timeout instead: the data is older than this poll.
    const std::size_t first_bell = pfds.size();
    int poll_timeout = kPollIntervalMs;
    for (const std::unique_ptr<Connection>& conn : conns_) {
      if (!conn->shm_active || !conn->sock.valid()) continue;
      if (conn->shm.c2s().arm_waiting()) {
        pfds.push_back({conn->shm.c2s_doorbell(), POLLIN, 0});
      } else {
        conn->shm.c2s().disarm_waiting();
        poll_timeout = 0;
      }
    }

    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), poll_timeout);
    if (rc < 0 && errno != EINTR) fail("net: poll(): ", std::strerror(errno));

    // Disarm + drain every doorbell before touching the rings; the drain
    // pass below picks the bytes up regardless of which fd fired.
    for (std::size_t i = first_bell; i < pfds.size(); ++i)
      if ((pfds[i].revents & POLLIN) != 0) ShmSession::drain_doorbell(pfds[i].fd);
    for (const std::unique_ptr<Connection>& conn : conns_)
      if (conn->shm_active) conn->shm.c2s().disarm_waiting();

    // The wake fd: reset it here, before this pass's route_scores() drains
    // (below, after the reads), so a score emitted after that drain finds
    // its shard's queue empty and owes a ring again — no wakeup is lost; a
    // ring for scores the drain already took costs one empty pass.
    if (pfds[0].revents & POLLIN) {
      std::uint64_t rings = 0;
      const ssize_t n = ::read(wake_fd_, &rings, sizeof(rings));
      (void)n;
      if (stop_requested_.load(std::memory_order_acquire)) begin_shutdown();
    }

    // Metrics scrapes: accept, read, respond — all subordinate to the wire
    // traffic and served from the same loop.
    if (metrics_listener_idx != 0 && (pfds[metrics_listener_idx].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(metrics_listener_.fd(), nullptr, nullptr);
        if (fd < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN (drained) or a transient accept failure
        }
        if (metrics_conns_.size() >= kMaxMetricsConns) {
          ::close(fd);  // scraper storm: refuse outright
          continue;
        }
        set_nonblocking(fd, true);
        auto mc = std::make_unique<MetricsConn>();
        mc->sock = Socket(fd);
        mc->accepted = std::chrono::steady_clock::now();
        metrics_conns_.push_back(std::move(mc));
      }
    }

    // Accepts (listener pfds sit between the wake fd and the connections).
    for (std::size_t i = 1; i <= n_listeners && i < first_conn; ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      for (;;) {
        const int fd = ::accept(pfds[i].fd, nullptr, nullptr);
        if (fd < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN (drained) or a transient accept failure
        }
        if (static_cast<Index>(conns_.size()) >= kMaxConnections) {
          ::close(fd);  // over capacity: refuse outright
          continue;
        }
        set_nonblocking(fd, true);
        // Without this, Nagle holds a tick's SCORE frames until the client's
        // next segment arrives.
        if (tcp_listener_.valid() && pfds[i].fd == tcp_listener_.fd()) set_tcp_nodelay(fd);
        auto conn = std::make_unique<Connection>();
        conn->sock = Socket(fd);
        conn->policy = config_.runtime.backpressure;
        conn->shm_bootstrap = shm_listener_.valid() && pfds[i].fd == shm_listener_.fd();
        conns_.push_back(std::move(conn));
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        live_connections_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    for (std::size_t i = first_conn; i < first_mconn; ++i) {
      Connection& conn = *pfd_conns[i - first_conn];
      if (!conn.sock.valid()) continue;
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!conn.shm_active) {
        read_connection(conn);
        continue;
      }
      // Post-handshake the shm socket carries liveness only: EOF means the
      // client is gone (drain what it left in the ring first — those frames
      // were complete before it departed); actual bytes are a client bug.
      std::uint8_t probe[4096];
      for (;;) {
        const long n = read_some(conn.sock.fd(), probe, sizeof(probe));
        if (n == -1) break;
        if (n == 0) {
          read_shm_connection(conn);
          release_streams(conn);
          conn.sock.close();
          break;
        }
        protocol_error(conn, "net: unexpected bytes on the shm bootstrap socket");
        break;
      }
    }
    // Rings are drained every iteration — a doorbell wakes the loop early,
    // but bytes written while the loop was already busy arrive bell-free.
    for (const std::unique_ptr<Connection>& conn : conns_) {
      if (conn->shm_active && conn->sock.valid() && !conn->closing)
        read_shm_connection(*conn);
    }
    for (std::size_t i = first_mconn; i < first_bell; ++i) {
      MetricsConn& mc = *pfd_mconns[i - first_mconn];
      if (!mc.sock.valid()) continue;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_metrics(mc);
    }

    // Route on every pass, not only when the wake fd fired: a scorer rings
    // when it runs out of input, so while it stays busy its finished rounds
    // leave with the next socket event or, at the latest, the poll timeout.
    if (!shutting_down_) route_scores();

    // Flush everything with pending output (fresh frames may have been
    // queued this iteration, after the poll — write eagerly, not only on
    // POLLOUT, so a quiet socket does not add a poll interval of latency).
    for (const std::unique_ptr<Connection>& conn : conns_) {
      if (!conn->sock.valid() || conn->out_off >= conn->out.size()) continue;
      if (conn->shm_active)
        write_shm_connection(*conn);
      else
        write_connection(*conn);
    }
    for (const std::unique_ptr<MetricsConn>& mc : metrics_conns_) {
      if (mc->sock.valid() && mc->responded) write_metrics(*mc);
    }

    // Sweep: drop dead sockets and fully flushed closing connections.
    for (std::size_t i = 0; i < conns_.size();) {
      Connection& conn = *conns_[i];
      const bool flushed = conn.out_off >= conn.out.size();
      if (!conn.sock.valid() || (conn.closing && flushed)) {
        release_streams(conn);
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
        live_connections_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++i;
      }
    }
    if (!metrics_conns_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      std::erase_if(metrics_conns_, [now](const std::unique_ptr<MetricsConn>& mc) {
        return !mc->sock.valid() || now - mc->accepted > kMetricsScrapeDeadline;
      });
    }

    if (shutting_down_) {
      if (shutdown_started == std::chrono::steady_clock::time_point{})
        shutdown_started = std::chrono::steady_clock::now();
      else if (std::chrono::steady_clock::now() - shutdown_started > kShutdownFlushDeadline) {
        conns_.clear();  // a non-reading client shall not wedge the daemon
        live_connections_.store(0, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace varade::net
