// Tests for the varade-served binary itself, run as a separate process the
// way an operator runs it. Each test spawns the daemon built by this tree
// (its path comes from CMake), drives it from forked client processes over
// the wire, stops it with a SHUTDOWN frame and parses its exit report:
//
// - unix: socket with the Prometheus endpoint live: two /metrics scrapes
//   while the clients push, key series present, counters non-decreasing;
// - shm: bootstrap socket with 64-sample SAMPLE_BATCH frames: the shm push
//   path stays within its doorbell budget.
//
// In both, every score the clients receive must equal, bit for bit, the
// score of one sequential OnlineMonitor per stream built here. The daemon
// and this test train the identical model from the identical seeds (the
// shared workload in bench/bench_common.hpp), so the contract holds across
// process boundaries. The binary carries the `parity` and `concurrency`
// labels, so the ASan/UBSan and TSan builds run it against a daemon built
// with the same sanitizer.
#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "varade/core/monitor.hpp"
#include "varade/net/client.hpp"
#include "varade/net/socket.hpp"
#include "varade/obs/telemetry.hpp"

extern char** environ;

namespace varade::net {
namespace {

constexpr Index kStreams = 8;
constexpr Index kSamples = 300;
constexpr int kClients = 2;

/// The sequential ground truth: one OnlineMonitor per stream over the model
/// the daemon trains at startup.
const std::vector<std::vector<float>>& baseline_scores() {
  static const std::vector<std::vector<float>> scores = [] {
    const data::MultivariateSeries train_raw = bench::make_sine(1200, 1);
    data::MinMaxNormalizer normalizer;
    normalizer.fit(train_raw);
    const data::MultivariateSeries train = normalizer.transform(train_raw);
    const std::unique_ptr<core::AnomalyDetector> detector =
        core::make_detector(bench::tiny_serve_profile(), "VARADE");
    detector->fit(train);
    const float threshold = core::calibrate_threshold(*detector, train, {});
    std::vector<std::vector<float>> out;
    for (Index s = 0; s < kStreams; ++s) {
      core::OnlineMonitor monitor(*detector, normalizer);
      monitor.set_threshold(threshold);
      const data::MultivariateSeries in =
          bench::make_sine(kSamples, 100 + static_cast<std::uint64_t>(s));
      std::vector<float>& row = out.emplace_back();
      for (Index t = 0; t < in.length(); ++t) row.push_back(monitor.push(in.sample(t)));
    }
    return out;
  }();
  return scores;
}

/// A varade-served process with its stdout on a pipe. The destructor kills
/// it if a failed assertion left it running.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> args) {
    args.insert(args.begin(), VARADE_SERVED_PATH);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    check(::pipe(fds) == 0, "test: pipe() failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const int rc = posix_spawn(&pid_, VARADE_SERVED_PATH, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      fail("test: cannot spawn ", VARADE_SERVED_PATH, ": ", std::strerror(rc));
    }
    out_ = ::fdopen(fds[0], "r");
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ != nullptr) std::fclose(out_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reads stdout up to and including the "serving ..." line, which the
  /// daemon prints once its listeners are bound; returns all of it ("" if
  /// the daemon exited first).
  std::string banner() {
    std::string text;
    char line[512];
    while (std::fgets(line, sizeof(line), out_) != nullptr) {
      text += line;
      if (std::strncmp(line, "serving ", 8) == 0) return text;
    }
    return "";
  }

  /// Waits for the daemon to exit and returns the rest of its stdout; the
  /// raw wait status lands in `status`.
  std::string finish(int& status) {
    std::string text;
    char line[512];
    while (std::fgets(line, sizeof(line), out_) != nullptr) text += line;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return text;
  }

 private:
  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
};

/// What one client process sends back first; each owned stream's score
/// count and scores follow, in stream order.
struct ChildReport {
  std::uint64_t scores = 0;
  std::uint64_t nacks = 0;
  std::uint64_t doorbells = 0;     // shm push-path doorbell syscalls
  std::uint64_t out_of_order = 0;  // SCOREs not for the next expected sample
};

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Client process body: owns streams child, child + kClients, ...; pushes
/// every sample (batch 1: one SAMPLE frame each, interleaved across its
/// streams; batch > 1: push_batch() chunks), collects every score, and
/// writes its report to `fd`. Never returns.
[[noreturn]] void run_child(const Endpoint& endpoint, int child, Index batch, int fd) {
  ChildReport report;
  std::vector<data::MultivariateSeries> series;
  std::vector<std::vector<float>> scores;
  for (Index s = child; s < kStreams; s += kClients) {
    series.push_back(bench::make_sine(kSamples, 100 + static_cast<std::uint64_t>(s)));
    scores.emplace_back();
  }
  const std::uint64_t want = series.size() * static_cast<std::uint64_t>(kSamples);
  try {
    Client client(endpoint, {.connect_retry_ms = 10000});
    auto take = [&](const ClientEvent& ev) {
      if (ev.kind == ClientEvent::Kind::Nack) ++report.nacks;
      if (ev.kind != ClientEvent::Kind::Score) return;
      ++report.scores;
      const Index s = ev.score.stream;
      if (s % kClients != child || s >= kStreams) {
        ++report.out_of_order;  // not one of this client's streams
        return;
      }
      std::vector<float>& mine = scores[static_cast<std::size_t>(s / kClients)];
      if (ev.score.sample != mine.size()) ++report.out_of_order;
      mine.push_back(ev.score.score);
    };
    ClientEvent ev;
    for (Index t = 0; t < kSamples; t += batch) {
      const Index k = std::min(batch, kSamples - t);
      for (std::size_t i = 0; i < series.size(); ++i) {
        const Index stream = child + static_cast<Index>(i) * kClients;
        if (batch == 1) {
          client.send_sample(stream, static_cast<std::uint64_t>(t), series[i].sample(t));
        } else {
          client.push_batch(stream, static_cast<std::uint64_t>(t), series[i].sample(t), k);
        }
      }
      // Keep the return path drained so neither side stalls.
      while (client.poll_event(ev, 0)) take(ev);
    }
    client.flush();
    while (report.scores + report.nacks < want) {
      check(client.poll_event(ev, 30000), "no frame from the daemon for 30 s");
      take(ev);
    }
    client.send_goodbye();
    report.doorbells = static_cast<std::uint64_t>(client.shm_doorbells());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "client %d: %s\n", child, e.what());
    ::_exit(1);
  }
  bool ok = write_all(fd, &report, sizeof(report));
  for (const std::vector<float>& mine : scores) {
    const std::uint64_t n = mine.size();
    ok = ok && write_all(fd, &n, sizeof(n)) && write_all(fd, mine.data(), n * sizeof(float));
  }
  ::_exit(ok ? 0 : 1);
}

/// kClients forked client processes against one endpoint.
class Clients {
 public:
  /// Forks the clients. This process runs no thread of its own at this
  /// point, so each child starts from a consistent heap.
  Clients(const Endpoint& endpoint, Index batch) {
    for (int c = 0; c < kClients; ++c) {
      int fds[2];
      check(::pipe(fds) == 0, "test: pipe() failed");
      const pid_t pid = ::fork();
      check(pid >= 0, "test: fork() failed");
      if (pid == 0) {
        ::close(fds[0]);
        run_child(endpoint, c, batch, fds[1]);
      }
      ::close(fds[1]);
      pids_.push_back(pid);
      pipes_.push_back(fds[0]);
    }
  }
  ~Clients() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    for (const int fd : pipes_) ::close(fd);
  }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  /// Waits for every client; sums their reports into `total` and gathers
  /// the scores by stream. False if any client died or sent a short report.
  bool collect(ChildReport& total, std::vector<std::vector<float>>& scores) {
    scores.assign(static_cast<std::size_t>(kStreams), {});
    bool ok = true;
    for (int c = 0; c < kClients; ++c) {
      const int fd = pipes_[static_cast<std::size_t>(c)];
      ChildReport report;
      bool got = read_all(fd, &report, sizeof(report));
      for (Index s = c; got && s < kStreams; s += kClients) {
        std::uint64_t n = 0;
        std::vector<float>& row = scores[static_cast<std::size_t>(s)];
        got = read_all(fd, &n, sizeof(n));
        row.resize(got ? n : 0);
        got = got && read_all(fd, row.data(), n * sizeof(float));
      }
      int status = 0;
      ::waitpid(pids_[static_cast<std::size_t>(c)], &status, 0);
      if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ADD_FAILURE() << "client " << c << " failed (wait status " << status << ")";
        ok = false;
      }
      total.scores += report.scores;
      total.nacks += report.nacks;
      total.doorbells += report.doorbells;
      total.out_of_order += report.out_of_order;
    }
    pids_.clear();
    return ok;
  }

 private:
  std::vector<pid_t> pids_;
  std::vector<int> pipes_;
};

/// Every sample of every stream came back as a SCORE, in order, equal bit
/// for bit to the sequential OnlineMonitor's score.
void expect_every_score_bit_exact(const ChildReport& total,
                                  const std::vector<std::vector<float>>& scores) {
  EXPECT_EQ(total.scores, static_cast<std::uint64_t>(kStreams * kSamples));
  EXPECT_EQ(total.nacks, 0U);
  EXPECT_EQ(total.out_of_order, 0U);
  const std::vector<std::vector<float>>& want = baseline_scores();
  for (Index s = 0; s < kStreams; ++s) {
    const std::vector<float>& got = scores[static_cast<std::size_t>(s)];
    const std::vector<float>& ref = want[static_cast<std::size_t>(s)];
    ASSERT_EQ(got.size(), ref.size()) << "stream " << s;
    for (std::size_t t = 0; t < got.size(); ++t)
      ASSERT_EQ(std::memcmp(&got[t], &ref[t], sizeof(float)), 0)
          << "stream " << s << " sample " << t << ": daemon " << got[t] << ", sequential "
          << ref[t];
  }
}

/// Sends SHUTDOWN on a fresh connection, expects the GOODBYE and a clean
/// exit, and parses the exit report: every sample the clients sent was
/// pushed, every pushed sample not dropped was scored, nothing was NACKed
/// and every score reached its client.
void expect_clean_shutdown(const Endpoint& endpoint, Daemon& daemon) {
  {
    Client closer(endpoint);
    closer.request_shutdown();
    ClientEvent ev;
    bool goodbye = false;
    while (!goodbye && closer.poll_event(ev, 30000))
      goodbye = ev.kind == ClientEvent::Kind::Goodbye;
    EXPECT_TRUE(goodbye) << "SHUTDOWN got no GOODBYE";
  }
  int status = 0;
  const std::string tail = daemon.finish(status);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "daemon wait status " << status << ", stdout:\n"
      << tail;
  long connections = 0, pushed = 0, scored = 0, dropped = 0, rejected = 0, nacks = 0,
       protocol_errors = 0, unrouted = 0;
  const std::size_t at = tail.find("shutdown: ");
  ASSERT_NE(at, std::string::npos) << "no exit report in:\n" << tail;
  ASSERT_EQ(std::sscanf(tail.c_str() + at,
                        "shutdown: %ld connections, %ld samples pushed, %ld scored, %ld dropped,"
                        " %ld rejected, %ld nacks, %ld protocol errors, %ld unrouted scores",
                        &connections, &pushed, &scored, &dropped, &rejected, &nacks,
                        &protocol_errors, &unrouted),
            8)
      << tail;
  EXPECT_EQ(connections, kClients + 1);  // the clients and the closer
  EXPECT_EQ(pushed, kStreams * kSamples);
  EXPECT_EQ(scored, pushed - dropped);
  EXPECT_EQ(rejected, 0);
  EXPECT_EQ(nacks, 0);
  EXPECT_EQ(protocol_errors, 0);
  EXPECT_EQ(unrouted, 0);
}

/// A per-process socket path, unlinked when the test ends however it ends
/// (a daemon killed by ~Daemon leaves its socket behind).
struct SocketPath {
  explicit SocketPath(const char* tag)
      : path("/tmp/varade_test_served_" + std::string(tag) + "_" + std::to_string(::getpid()) +
             ".sock") {}
  ~SocketPath() { ::unlink(path.c_str()); }
  std::string path;
};

/// One GET /metrics; the body of an HTTP 200 response, or "" (with a test
/// failure) for anything else.
std::string scrape(int port) {
  const Socket sock =
      connect_endpoint(Endpoint{.kind = Endpoint::Kind::Tcp, .host = "127.0.0.1", .port = port});
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  send_all(sock.fd(), request.data(), request.size());
  std::string response;
  char buf[8192];
  for (;;) {  // the daemon closes after one response
    if (!wait_readable(sock.fd(), 30000)) break;
    const long n = read_some(sock.fd(), buf, sizeof(buf));
    if (n == 0) break;
    if (n > 0) response.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t split = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 || split == std::string::npos) {
    ADD_FAILURE() << "/metrics did not answer HTTP 200:\n" << response.substr(0, 200);
    return "";
  }
  return response.substr(split + 4);
}

/// Value of the first sample line that starts with `prefix`; NaN if none.
double series_value(const std::string& body, const std::string& prefix) {
  for (std::size_t pos = 0; pos < body.size();) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    if (body.compare(pos, prefix.size(), prefix) == 0)
      return std::strtod(body.c_str() + body.rfind(' ', eol) + 1, nullptr);
    pos = eol + 1;
  }
  return std::nan("");
}

TEST(Served, UnixDaemonUnderLoadServesMetricsAndShutsDownCleanly) {
  baseline_scores();  // train before forking, so the clients start from a quiet process
  const SocketPath sock("uds");
  const std::string& path = sock.path;
  Daemon daemon({"--listen", "unix:" + path, "--metrics", "tcp:127.0.0.1:0", "--streams",
                 std::to_string(kStreams), "--quiet"});
  const std::string banner = daemon.banner();
  ASSERT_NE(banner.find("listening on unix:" + path), std::string::npos) << banner;
  const std::string metrics_line = "metrics on tcp:127.0.0.1:";
  const std::size_t metrics_at = banner.find(metrics_line);
  ASSERT_NE(metrics_at, std::string::npos) << banner;
  const int port = std::atoi(banner.c_str() + metrics_at + metrics_line.size());
  ASSERT_GT(port, 0);

  const Endpoint endpoint = parse_endpoint("unix:" + path);
  ChildReport total;
  std::vector<std::vector<float>> scores;
  std::string first, second;
  {
    Clients clients(endpoint, 1);
    // Both scrapes while the clients push: the counters must never go back.
    first = scrape(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    second = scrape(port);
    ASSERT_TRUE(clients.collect(total, scores));
  }
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  // The series dashboards key on. The families are exposed even by a
  // -DVARADE_OBS=OFF daemon; only their values stay zero.
  for (const char* series :
       {"varade_samples_pushed_total ", "varade_samples_scored_total ",
        "varade_scorer_rounds_total{shard=\"0\"}", "varade_scorer_scored_total{shard=\"0\"}",
        "varade_step_phase_seconds_bucket{phase=\"stage\"",
        "varade_step_phase_seconds_count{phase=\"score\"}", "varade_engine_step_seconds_count ",
        "varade_push_to_score_seconds_count ", "varade_scorer_round_seconds_count ",
        "varade_net_connections ", "varade_net_frames_decoded_total "})
    EXPECT_NE(first.find(series), std::string::npos) << "missing series " << series;
  for (const char* series :
       {"varade_samples_pushed_total ", "varade_samples_scored_total ",
        "varade_scorer_rounds_total{shard=\"0\"}", "varade_net_frames_decoded_total ",
        "varade_net_connections_accepted_total ", "varade_net_metrics_scrapes_total ",
        "varade_engine_step_seconds_count "}) {
    const double v1 = series_value(first, series);
    const double v2 = series_value(second, series);
    EXPECT_FALSE(std::isnan(v1) || std::isnan(v2)) << "missing series " << series;
    EXPECT_LE(v1, v2) << series << " went backwards between scrapes";
  }
  if constexpr (obs::kEnabled) {
    EXPECT_GE(series_value(second, "varade_net_metrics_scrapes_total "),
              series_value(first, "varade_net_metrics_scrapes_total ") + 1.0);
  }

  expect_every_score_bit_exact(total, scores);
  expect_clean_shutdown(endpoint, daemon);
}

TEST(Served, ShmDaemonScoresBatchedFramesBitExactlyWithinTheDoorbellBudget) {
  baseline_scores();
  const SocketPath sock("shm");
  const std::string& path = sock.path;
  Daemon daemon({"--listen", "shm:" + path, "--streams", std::to_string(kStreams), "--quiet"});
  const std::string banner = daemon.banner();
  ASSERT_NE(banner.find("listening on shm:" + path), std::string::npos) << banner;

  const Endpoint endpoint = parse_endpoint("shm:" + path);
  ChildReport total;
  std::vector<std::vector<float>> scores;
  {
    Clients clients(endpoint, 64);
    ASSERT_TRUE(clients.collect(total, scores));
  }
  expect_every_score_bit_exact(total, scores);
  // The zero-syscall claim: steady-state pushes make no syscalls, so the
  // doorbells (rung only on an empty ring that caught the daemon asleep)
  // stay a small fraction of the samples pushed.
  EXPECT_LE(total.doorbells, static_cast<std::uint64_t>(kStreams * kSamples / 4 + 64));
  expect_clean_shutdown(endpoint, daemon);
}

}  // namespace
}  // namespace varade::net
