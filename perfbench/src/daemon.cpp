#include "daemon.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "varade/net/client.hpp"

namespace perfbench {

namespace {

using namespace varade;

/// Fixed-size record the client sends back after its timed phase.
struct Summary {
  std::int64_t t_first_send = 0;
  std::int64_t t_last_score = 0;
  std::int64_t sent = 0, scored = 0, nacks = 0, alarms = 0, missing = 0;
  std::int64_t latency_count = 0;
  std::int64_t n_slices = 0;
  double slice_sps = 0;                   // over slices, see summarise()
  double lat_p50_ns = 0, lat_p95_ns = 0, lat_p99_ns = 0;
  double lag_p50_ns = 0, lag_p99_ns = 0;
  double send_ns = 0, recv_ns = 0, blocked_ns = 0;
  std::int64_t doorbells = 0, spans = 0, n_kept = 0;
  char error[256] = {};
};

/// One figure from per-slice values. With rotation, every thread visits
/// every CPU over the run, and the slices differ by the speed of the vCPU
/// each ran on: the mean of the middle 60% averages the vCPUs, and a stall
/// of the host moves a slice that is cut. Without it, the median.
double over_slices(std::vector<float>& values, const DriveConfig& cfg) {
  return cfg.rotate ? trimmed_mean(values, 0.2) : quantile(values, 0.5);
}

// Pipe tags, client -> server process.
constexpr char kStart = 'S';   // timed phase begins (just before the first send)
constexpr char kEnd = 'E';     // last SCORE received
constexpr char kResult = 'R';  // Summary + kept scores follow
constexpr char kFailed = 'F';  // Summary with an error message follows

void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) _exit(3);  // the server process is gone; nobody to tell
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Everything the client accumulates; shared by both load shapes.
struct ClientState {
  const StreamSet& in;
  const DriveConfig& cfg;
  Index n;
  Summary sum;
  /// One slice of the timed phase. SCOREs arrive in bursts (one engine
  /// round each), so a slice's rate is taken between its first and last
  /// receipt, excluding the samples received at the first instant.
  struct Slice {
    std::int64_t t_first = 0;
    std::int64_t t_last = 0;
    long n = 0;
    long n_first = 0;
    std::vector<float> latency_ns;
  };
  std::int64_t start = 0;     // timed phase start
  std::vector<Slice> slices;
  std::vector<float> lags;    // ns, open loop only
  std::vector<std::vector<float>> kept;
  std::vector<std::int64_t> expect;  // next score index per stream
  std::vector<char> nacked;          // stream saw a NACK: indices no longer align
  Tracer tracer;

  ClientState(const StreamSet& streams, const DriveConfig& config)
      : in(streams),
        cfg(config),
        n(streams.n_streams()),
        slices(static_cast<std::size_t>(config.seconds / config.slice_s + 1e-9)),
        kept(static_cast<std::size_t>(std::min(config.keep_streams, streams.n_streams()))),
        expect(static_cast<std::size_t>(streams.n_streams()), 0),
        nacked(static_cast<std::size_t>(streams.n_streams()), 0),
        tracer(config.trace) {}

  /// Slice of the timed phase that time t falls in; -1 outside the full slices.
  long slice_of(std::int64_t t) const {
    if (t < start) return -1;
    const auto k = static_cast<long>(static_cast<double>(t - start) * 1e-9 / cfg.slice_s);
    return k < static_cast<long>(slices.size()) ? k : -1;
  }

  /// Books a latency sample; `at` picks its slice (receipt or due time).
  /// Only every cfg.latency_every-th sample is kept, which bounds memory on
  /// the fast workloads.
  void record_latency(std::int64_t at, std::int64_t latency_ns) {
    if (sum.latency_count++ % cfg.latency_every != 0) return;
    const long k = slice_of(at);
    if (k >= 0) slices[static_cast<std::size_t>(k)].latency_ns.push_back(static_cast<float>(latency_ns));
  }

  /// Books the receipt of one SCORE at time t.
  void record_receipt(std::int64_t t) {
    const long k = slice_of(t);
    if (k < 0) return;
    Slice& sl = slices[static_cast<std::size_t>(k)];
    if (sl.n == 0) sl.t_first = t;
    if (t == sl.t_first) ++sl.n_first;
    sl.t_last = t;
    ++sl.n;
  }

  /// Per-slice throughput and latency quantiles, reported over the slices
  /// by over_slices().
  void summarise() {
    std::vector<float> sps, p50, p95, p99;
    for (Slice& sl : slices) {
      if (sl.t_last > sl.t_first)
        sps.push_back(static_cast<float>(static_cast<double>(sl.n - sl.n_first) * 1e9 /
                                         static_cast<double>(sl.t_last - sl.t_first)));
      if (sl.latency_ns.empty()) continue;
      p50.push_back(static_cast<float>(quantile(sl.latency_ns, 0.50)));
      p95.push_back(static_cast<float>(quantile(sl.latency_ns, 0.95)));
      p99.push_back(static_cast<float>(quantile(sl.latency_ns, 0.99)));
    }
    sum.n_slices = static_cast<std::int64_t>(p50.size());
    sum.slice_sps = over_slices(sps, cfg);
    sum.lat_p50_ns = over_slices(p50, cfg);
    sum.lat_p95_ns = over_slices(p95, cfg);
    sum.lat_p99_ns = over_slices(p99, cfg);
    sum.lag_p50_ns = quantile(lags, 0.50);
    sum.lag_p99_ns = quantile(lags, 0.99);
  }

  /// Books one SCORE of `stream`; checks per-stream order.
  void on_score(const net::ScoreData& sc) {
    const Index s = sc.stream;
    if (s < 0 || s >= n) fail("client: SCORE for unknown stream ", s);
    const auto si = static_cast<std::size_t>(s);
    if (nacked[si] == 0) {
      if (static_cast<std::int64_t>(sc.sample) != expect[si])
        fail("client: stream ", s, " scored sample ", sc.sample, ", expected ", expect[si]);
      if (si < kept.size()) kept[si].push_back(sc.score);
    }
    ++expect[si];
    ++sum.scored;
  }
};

/// Closed loop through net::Client: every stream keeps `window` chunks of
/// `chunk` samples in flight and sends its next chunk as soon as its oldest
/// one is scored. One chunk per stream would empty the pipeline every round:
/// the scorer works through the streams in lockstep, so all chunks complete
/// together and the scorer idles until the client has sent the next ones.
/// Latency runs from the chunk's hand-off to net::Client to each sample's
/// SCORE.
void closed_loop(const net::Endpoint& endpoint, ClientState& st, int fd) {
  const DriveConfig& cfg = st.cfg;
  net::ClientConfig config;
  config.connect_retry_ms = 10000;
  net::Client client(endpoint, config);
  const Index n = st.n;
  const Index c = st.in.n_channels();
  check(client.n_channels() == c && client.n_streams() >= n, "client: daemon shape mismatch");
  const Index chunk = cfg.chunk;
  const Index window = cfg.window;
  std::vector<float> rows(static_cast<std::size_t>(chunk * c));
  std::vector<std::int64_t> next_seq(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> done(static_cast<std::size_t>(n), 0);  // scored or NACKed
  // Per stream, one slot per chunk in flight: chunk k uses slot k % window.
  std::vector<std::int64_t> chunk_t(static_cast<std::size_t>(n * window), 0);
  std::vector<int> chunk_span(static_cast<std::size_t>(n * window), -1);
  std::vector<Index> ready;
  std::int64_t ready_t = 0;  // when the streams in `ready` became due
  long inflight = 0;
  Tracer& tr = st.tracer;
  auto slot = [&](Index s, std::int64_t seq) {
    return static_cast<std::size_t>(s * window + (seq / chunk) % window);
  };

  auto send_chunk = [&](Index s) {
    const auto si = static_cast<std::size_t>(s);
    st.in.copy_rows(s, next_seq[si], chunk, rows.data());
    const std::int64_t t0 = now_ns();
    const auto seq = static_cast<std::uint64_t>(next_seq[si]);
    if (cfg.frame_batch > 1) {
      client.push_batch(s, seq, rows.data(), chunk);
    } else {
      for (Index i = 0; i < chunk; ++i)
        client.send_sample(s, seq + static_cast<std::uint64_t>(i), rows.data() + i * c);
    }
    st.sum.send_ns += static_cast<double>(now_ns() - t0);
    chunk_t[slot(s, next_seq[si])] = t0;
    chunk_span[slot(s, next_seq[si])] = tr.add("client.chunk", t0, t0, -1, span_id(s, seq));
    next_seq[si] += chunk;
    st.sum.sent += chunk;
    inflight += chunk;
  };
  // A chunk is due when the chunk `window` before it is scored; its send lag
  // runs from then to the end of the flush that carries it.
  auto flush = [&](std::int64_t due, std::size_t chunks) {
    const std::int64_t t0 = now_ns();
    client.flush();
    const std::int64_t t1 = now_ns();
    st.lags.insert(st.lags.end(), chunks, static_cast<float>(t1 - due));
    st.sum.send_ns += static_cast<double>(t1 - t0);
    st.sum.blocked_ns += static_cast<double>(t1 - t0);
    tr.add("client.flush", t0, t1);
  };
  auto in_flight = [&](Index s) {
    return s >= 0 && s < n && done[static_cast<std::size_t>(s)] < next_seq[static_cast<std::size_t>(s)];
  };
  auto on_event = [&](const net::ClientEvent& ev, std::int64_t t) {
    Index s = -1;
    if (ev.kind == net::ClientEvent::Kind::Score) {
      s = ev.score.stream;
      if (!in_flight(s)) fail("client: SCORE for stream ", s, " with nothing in flight");
      st.on_score(ev.score);
      st.record_latency(t, t - chunk_t[slot(s, done[static_cast<std::size_t>(s)])]);
      st.record_receipt(t);
      st.sum.t_last_score = t;
    } else if (ev.kind == net::ClientEvent::Kind::Nack) {
      s = ev.nack.stream;
      check(in_flight(s), "client: NACK for a stream with nothing in flight");
      st.nacked[static_cast<std::size_t>(s)] = 1;
      ++st.sum.nacks;
    } else if (ev.kind == net::ClientEvent::Kind::Alarm) {
      ++st.sum.alarms;
      return;
    } else if (ev.kind == net::ClientEvent::Kind::Goodbye) {
      fail("client: daemon said GOODBYE mid-run");
    } else {
      return;
    }
    const auto si = static_cast<std::size_t>(s);
    --inflight;
    if (++done[si] % chunk == 0) {
      tr.close_at(chunk_span[slot(s, done[si] - 1)], t);
      if (ready.empty()) ready_t = t;
      ready.push_back(s);
    }
  };

  write_all(fd, &kStart, 1);
  const std::int64_t start = now_ns();
  st.start = start;
  st.sum.t_first_send = start;
  const auto deadline = start + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (Index k = 0; k < window; ++k)
    for (Index s = 0; s < n; ++s) send_chunk(s);
  flush(start, static_cast<std::size_t>(n * window));
  net::ClientEvent ev;
  while (inflight > 0) {
    const std::int64_t w0 = now_ns();
    if (!client.poll_event(ev, 30000)) fail("client: no frame from the daemon for 30 s");
    const std::int64_t w1 = now_ns();
    st.sum.blocked_ns += static_cast<double>(w1 - w0);
    tr.add("client.wait", w0, w1);
    on_event(ev, w1);
    while (client.poll_event(ev, 0)) on_event(ev, w1);
    const std::int64_t r1 = now_ns();
    st.sum.recv_ns += static_cast<double>(r1 - w1);
    tr.add("client.decode", w1, r1);
    if (r1 < deadline && !ready.empty()) {
      for (const Index s : ready) send_chunk(s);
      flush(ready_t, ready.size());
    }
    ready.clear();
  }
  write_all(fd, &kEnd, 1);
  st.sum.doorbells = client.shm_doorbells();
  client.send_goodbye();
}

/// Open loop: every stream samples on one clock, as a cell's sensors do.
/// Global sample g (stream g % n, sequence g / n) is due at
/// t0 + (g / n) * period; each tick's samples leave together as soon as they
/// are due, one SAMPLE frame each, in one write. Latency runs from the due
/// time to the SCORE. net::Client waits for frames in whole milliseconds,
/// too coarse to time a sub-millisecond reply, so this client speaks the
/// wire protocol over net::Socket itself.
void paced_loop(const net::Endpoint& endpoint, ClientState& st, int fd) {
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time, not 50 us late
  const DriveConfig& cfg = st.cfg;
  net::Socket sock;
  for (int attempt = 0;; ++attempt) {
    try {
      sock = net::connect_endpoint(endpoint);
      break;
    } catch (const Error&) {
      if (attempt >= 1000) throw;
      ::usleep(10000);
    }
  }
  std::vector<std::uint8_t> out;
  net::append_hello(out);
  net::send_all(sock.fd(), out.data(), out.size());
  out.clear();
  net::FrameReader reader;
  net::Frame frame;
  std::vector<std::uint8_t> buf(65536);
  while (!reader.next(frame)) {
    check(net::wait_readable(sock.fd(), 5000), "client: timed out waiting for WELCOME");
    const long got = net::read_some(sock.fd(), buf.data(), buf.size());
    check(got != 0, "client: connection closed before WELCOME");
    if (got > 0) reader.feed(buf.data(), static_cast<std::size_t>(got));
  }
  check(frame.type == net::FrameType::Welcome, "client: expected WELCOME");
  const net::Welcome welcome = net::decode_welcome(frame);
  const Index n = st.n;
  const Index c = st.in.n_channels();
  check(welcome.n_channels == c && welcome.n_streams >= n, "client: daemon shape mismatch");

  const auto per_stream = static_cast<long>(cfg.seconds * cfg.rate_hz);
  const long total = per_stream * n;
  const double period_ns = 1e9 / cfg.rate_hz;
  constexpr std::int64_t kGraceNs = 5'000'000'000;  // a SCORE later than this is missing
  std::vector<std::int64_t> sent_t(static_cast<std::size_t>(total), 0);
  std::vector<std::int64_t> recv_t(static_cast<std::size_t>(total), 0);
  st.lags.resize(static_cast<std::size_t>(total));

  write_all(fd, &kStart, 1);
  const std::int64_t t0 = now_ns() + 1'000'000;
  auto due = [&](long g) { return t0 + std::llround(static_cast<double>(g / n) * period_ns); };
  st.start = t0;
  st.sum.t_first_send = t0;
  long g = 0;
  std::int64_t grace_end = 0;
  for (;;) {
    const std::int64_t now = now_ns();
    if (g < total && due(g) <= now) {
      const long g0 = g;
      for (; g < total && due(g) <= now; ++g) {
        const Index s = g % n;
        const std::int64_t seq = g / n;
        net::append_sample(out, s, static_cast<std::uint64_t>(seq), st.in.sample(s, seq), c);
      }
      net::send_all(sock.fd(), out.data(), out.size());
      out.clear();
      const std::int64_t t1 = now_ns();
      st.sum.send_ns += static_cast<double>(t1 - now);
      st.sum.blocked_ns += static_cast<double>(t1 - now);
      for (long k = g0; k < g; ++k) {
        sent_t[static_cast<std::size_t>(k)] = t1;
        st.lags[static_cast<std::size_t>(k)] = static_cast<float>(t1 - due(k));
      }
      st.sum.sent += g - g0;
      if (g == total) grace_end = t1 + kGraceNs;
      continue;
    }
    if (g == total && st.sum.scored + st.sum.nacks >= total) break;
    const std::int64_t wake = g < total ? due(g) : grace_end;
    if (now >= wake) break;  // grace expired with samples still unscored
    const std::int64_t wait = wake - now;
    timespec ts{static_cast<time_t>(wait / 1000000000), static_cast<long>(wait % 1000000000)};
    pollfd pfd{sock.fd(), POLLIN, 0};
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const long got = net::read_some(sock.fd(), buf.data(), buf.size());
    check(got != 0, "client: daemon closed the connection mid-run");
    if (got < 0) continue;
    const std::int64_t t = now_ns();
    reader.feed(buf.data(), static_cast<std::size_t>(got));
    while (reader.next(frame)) {
      if (frame.type == net::FrameType::Score) {
        const net::ScoreData sc = net::decode_score(frame);
        st.on_score(sc);
        const long gi = static_cast<long>(sc.sample) * n + sc.stream;
        if (gi >= g) fail("client: SCORE for sample ", gi, ", not sent yet");
        recv_t[static_cast<std::size_t>(gi)] = t;
        st.record_receipt(t);
        st.sum.t_last_score = t;
      } else if (frame.type == net::FrameType::Alarm) {
        ++st.sum.alarms;
      } else if (frame.type == net::FrameType::Nack) {
        const net::NackData nack = net::decode_nack(frame);
        st.nacked[static_cast<std::size_t>(nack.stream)] = 1;
        ++st.sum.nacks;
      } else if (frame.type == net::FrameType::WireError) {
        fail("client: WIRE_ERROR: ", net::decode_wire_error(frame));
      } else {
        fail("client: unexpected ", net::to_string(frame.type), " frame mid-run");
      }
    }
    st.sum.recv_ns += static_cast<double>(now_ns() - t);
  }
  write_all(fd, &kEnd, 1);
  net::append_goodbye(out);
  net::send_all(sock.fd(), out.data(), out.size());

  // A sample with no SCORE counts as beyond any limit: the grace window.
  for (long k = 0; k < total; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    const bool scored = recv_t[ki] != 0;
    st.record_latency(due(k), scored ? recv_t[ki] - due(k) : kGraceNs);
    if (!scored) ++st.sum.missing;
    if (st.tracer.enabled()) {
      const std::uint64_t id = span_id(k % n, static_cast<std::uint64_t>(k / n));
      const std::int64_t end = scored ? recv_t[ki] : sent_t[ki];
      const int root = st.tracer.add("sample", due(k), end, -1, id);
      st.tracer.add("sample.send", due(k), sent_t[ki], root, id);
      if (scored) st.tracer.add("sample.await", sent_t[ki], recv_t[ki], root, id);
    }
  }
  st.sum.missing -= st.sum.nacks;
}

[[noreturn]] void run_client(const net::Endpoint& endpoint, const StreamSet& in,
                             const DriveConfig& cfg, int fd) {
  ClientState st(in, cfg);
  char tag = kResult;
  try {
    if (cfg.paced)
      paced_loop(endpoint, st, fd);
    else
      closed_loop(endpoint, st, fd);
    st.summarise();
  } catch (const std::exception& e) {
    tag = kFailed;
    std::snprintf(st.sum.error, sizeof(st.sum.error), "%s", e.what());
  }
  if (cfg.trace && tag == kResult) {
    st.sum.spans = static_cast<std::int64_t>(st.tracer.size());
    if (!st.tracer.write_csv(cfg.trace_path)) {
      tag = kFailed;
      std::snprintf(st.sum.error, sizeof(st.sum.error), "cannot write %s",
                    cfg.trace_path.c_str());
    }
  }
  st.sum.n_kept = static_cast<std::int64_t>(st.kept.size());
  write_all(fd, &tag, 1);
  write_all(fd, &st.sum, sizeof(st.sum));
  if (tag == kResult) {
    for (const std::vector<float>& scores : st.kept) {
      const auto count = static_cast<std::int64_t>(scores.size());
      write_all(fd, &count, sizeof(count));
      write_all(fd, scores.data(), scores.size() * sizeof(float));
    }
  }
  ::close(fd);
  _exit(tag == kResult ? 0 : 1);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double rss_mb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f != nullptr) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// The server-process end of the pipe: reads with a deadline, and on any
/// failure kills the client before exiting.
class ClientLink {
 public:
  ClientLink(int fd, pid_t pid) : fd_(fd), pid_(pid) {}

  [[noreturn]] void abort(const std::string& message) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    die(message);
  }

  void read_exact(void* data, std::size_t n, double timeout_s) {
    auto* p = static_cast<char*>(data);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (n > 0) {
      const std::int64_t left = deadline - now_ns();
      if (left <= 0) abort("client timed out");
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(left / 1000000 + 1));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) continue;
      const ssize_t r = ::read(fd_, p, n);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) abort("client exited without reporting");
      p += r;
      n -= static_cast<std::size_t>(r);
    }
  }

  /// True once the pipe has data (or EOF) before `deadline_ns`.
  bool readable_by(std::int64_t deadline_ns) {
    for (;;) {
      const std::int64_t left = deadline_ns - now_ns();
      if (left <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>((left + 999999) / 1000000));
      if (rc > 0) return true;
      if (rc < 0 && errno != EINTR) abort("poll() on the client pipe failed");
    }
  }

  /// Reads the next tag; a failure report ends the run.
  void expect(char want, double timeout_s) {
    char tag = 0;
    read_exact(&tag, 1, timeout_s);
    if (tag == kFailed) {
      Summary sum;
      read_exact(&sum, sizeof(sum), 10.0);
      abort(std::string("client failed: ") + sum.error);
    }
    if (tag != want) abort("client sent an unexpected tag");
  }

 private:
  int fd_;
  pid_t pid_;
};

}  // namespace

DriveResult drive(net::Server& server, const StreamSet& streams, const DriveConfig& cfg) {
  const net::Endpoint endpoint = endpoint_of(server, cfg.transport);
  int fds[2];
  if (::pipe(fds) != 0) die("pipe() failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) die("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    run_client(endpoint, streams, cfg, fds[1]);
  }
  ::close(fds[1]);

  std::exception_ptr server_error;
  std::thread server_thread([&] {
    try {
      server.run();
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  ClientLink link(fds[0], pid);
  DriveResult r;

  link.expect(kStart, 60.0);
  // CPU time at every slice boundary until the client reports its last
  // SCORE, as a rate per slice inside the timed phase. With cfg.rotate,
  // every slice, each thread of both processes moves on to the next CPU.
  const std::vector<int> cpus = cfg.rotate ? usable_cpus() : std::vector<int>{};
  rotate_threads(pid, 0, cpus);
  const std::int64_t start = now_ns();
  const double limit_s = cfg.seconds + 90.0;
  std::vector<double> cpu{cpu_seconds()};
  while (static_cast<double>(cpu.size()) * cfg.slice_s < limit_s &&
         !link.readable_by(start + static_cast<std::int64_t>(static_cast<double>(cpu.size()) *
                                                             cfg.slice_s * 1e9))) {
    cpu.push_back(cpu_seconds());
    rotate_threads(pid, cpu.size() - 1, cpus);
  }
  link.expect(kEnd, 1.0);
  r.cpu_s = cpu_seconds() - cpu.front();
  std::vector<float> cpu_rate;
  for (std::size_t k = 1; k < cpu.size() && static_cast<double>(k) * cfg.slice_s <= cfg.seconds;
       ++k)
    cpu_rate.push_back(static_cast<float>((cpu[k] - cpu[k - 1]) / cfg.slice_s));
  r.rss_mb = rss_mb();
  r.stats = server.runtime().stats();
  r.telemetry = server.runtime().telemetry();
  r.metrics_text = server.metrics_text();
  r.flush_stalls = server.flush_stalls();

  link.expect(kResult, 60.0);
  Summary sum;
  link.read_exact(&sum, sizeof(sum), 10.0);
  r.kept.resize(static_cast<std::size_t>(sum.n_kept));
  for (std::vector<float>& scores : r.kept) {
    std::int64_t count = 0;
    link.read_exact(&count, sizeof(count), 10.0);
    scores.resize(static_cast<std::size_t>(count));
    link.read_exact(scores.data(), scores.size() * sizeof(float), 30.0);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  server.request_stop();
  server_thread.join();
  pin_thread(0, -1, cpus);
  if (server_error) {
    try {
      std::rethrow_exception(server_error);
    } catch (const std::exception& e) {
      die(std::string("server failed: ") + e.what());
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) die("client exited abnormally");

  r.sent = sum.sent;
  r.scored = sum.scored;
  r.nacks = sum.nacks;
  r.alarms = sum.alarms;
  r.missing = sum.missing;
  r.elapsed_s = static_cast<double>(sum.t_last_score - sum.t_first_send) * 1e-9;
  r.throughput_sps = r.elapsed_s > 0 ? static_cast<double>(r.scored) / r.elapsed_s : 0.0;
  r.slice_sps = sum.slice_sps;
  // CPU per sample: the serving process's CPU rate over the rate at which
  // the client received SCOREs, both over the slices.
  r.cpu_us_per_sample = cpu_rate.empty() || r.slice_sps <= 0
                            ? r.cpu_s * 1e6 / static_cast<double>(r.scored)
                            : over_slices(cpu_rate, cfg) * 1e6 / r.slice_sps;
  r.n_slices = sum.n_slices;
  r.latency_count = sum.latency_count;
  r.latency_p50_ms = sum.lat_p50_ns * 1e-6;
  r.latency_p95_ms = sum.lat_p95_ns * 1e-6;
  r.latency_p99_ms = sum.lat_p99_ns * 1e-6;
  r.send_lag_p50_ms = sum.lag_p50_ns * 1e-6;
  r.send_lag_p99_ms = sum.lag_p99_ns * 1e-6;
  r.send_ns = sum.send_ns;
  r.recv_ns = sum.recv_ns;
  r.blocked_ns = sum.blocked_ns;
  r.doorbells = sum.doorbells;
  r.client_spans = sum.spans;
  return r;
}

}  // namespace perfbench
