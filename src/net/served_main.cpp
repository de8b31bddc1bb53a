// varade-served: the serving daemon. Trains a detector on the shared
// synthetic workload (seed-deterministic, so every client process can
// regenerate the exact streams), calibrates the alarm threshold, then serves
// the binary wire protocol over TCP and/or a Unix-domain socket until a
// SHUTDOWN frame or SIGINT/SIGTERM.
//
// Usage:
//   varade-served --listen unix:/tmp/varade.sock [--listen tcp:127.0.0.1:7733]
//                 [--listen shm:/tmp/varade-shm.sock] [--metrics tcp:HOST:PORT]
//                 [--streams N] [--detector <name>] [--shards N]
//                 [--policy block|drop-oldest|reject] [--ring-capacity N]
//                 [--shm-ring-bytes N] [--quiet]
//
// `--listen shm:PATH` accepts connections on a Unix bootstrap socket at PATH
// and upgrades them to per-connection shared-memory rings (see
// varade/net/shm.hpp); samples then flow without per-sample syscalls.
//
// The resolved TCP port (ephemeral when :0 was asked for) is printed as
//   listening on tcp:HOST:PORT
// before serving starts, so wrappers can scrape it; --metrics prints a
//   metrics on tcp:HOST:PORT
// line the same way and serves Prometheus text at GET /metrics.
//
// The one-line exit report is printed even under --quiet: it is the ground
// truth the tests reconcile against /metrics and RuntimeStats (in particular
// "scored" is RuntimeStats::scored — results actually emitted — not the
// accepted-sample count, which silently diverges when a client disconnects
// mid-drain and its remaining scores go unrouted).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "varade/core/monitor.hpp"
#include "varade/core/profiles.hpp"
#include "varade/net/server.hpp"

namespace {

using namespace varade;

net::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

serve::BackpressurePolicy parse_policy(const char* value) {
  if (std::strcmp(value, "block") == 0) return serve::BackpressurePolicy::Block;
  if (std::strcmp(value, "drop-oldest") == 0) return serve::BackpressurePolicy::DropOldest;
  if (std::strcmp(value, "reject") == 0) return serve::BackpressurePolicy::Reject;
  std::fprintf(stderr, "error: --policy expects block|drop-oldest|reject, got \"%s\"\n", value);
  std::exit(2);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen <unix:PATH|tcp:HOST:PORT|shm:PATH> [--listen ...]\n"
               "          [--metrics tcp:HOST:PORT] [--streams N] [--detector <name>]\n"
               "          [--shards N] [--policy block|drop-oldest|reject]\n"
               "          [--ring-capacity N] [--shm-ring-bytes N] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerConfig config;
  config.tcp_port = -1;
  std::string detector_name = "VARADE";
  bool quiet = false;
  bool have_listener = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--listen") == 0 && a + 1 < argc) {
      const net::Endpoint ep = net::parse_endpoint(argv[++a]);
      if (ep.kind == net::Endpoint::Kind::Unix) {
        config.uds_path = ep.path;
      } else if (ep.kind == net::Endpoint::Kind::Shm) {
        config.shm_path = ep.path;
      } else {
        config.tcp_host = ep.host;
        config.tcp_port = ep.port;
      }
      have_listener = true;
    } else if (std::strcmp(argv[a], "--metrics") == 0 && a + 1 < argc) {
      const net::Endpoint ep = net::parse_endpoint(argv[++a]);
      if (ep.kind != net::Endpoint::Kind::Tcp) {
        std::fprintf(stderr, "error: --metrics expects tcp:HOST:PORT\n");
        return 2;
      }
      config.metrics_host = ep.host;
      config.metrics_port = ep.port;
    } else if (std::strcmp(argv[a], "--streams") == 0 && a + 1 < argc) {
      config.n_streams = bench::parse_long_arg("--streams", argv[++a]);
    } else if (std::strcmp(argv[a], "--shards") == 0 && a + 1 < argc) {
      config.runtime.n_shards = bench::parse_long_arg("--shards", argv[++a]);
    } else if (std::strcmp(argv[a], "--ring-capacity") == 0 && a + 1 < argc) {
      config.runtime.ring_capacity = bench::parse_pow2_arg("--ring-capacity", argv[++a]);
    } else if (std::strcmp(argv[a], "--shm-ring-bytes") == 0 && a + 1 < argc) {
      config.shm_ring_bytes =
          static_cast<std::size_t>(bench::parse_pow2_arg("--shm-ring-bytes", argv[++a]));
    } else if (std::strcmp(argv[a], "--policy") == 0 && a + 1 < argc) {
      config.runtime.backpressure = parse_policy(argv[++a]);
    } else if (std::strcmp(argv[a], "--detector") == 0 && a + 1 < argc) {
      detector_name = argv[++a];
    } else if (std::strcmp(argv[a], "--quiet") == 0) {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_listener) {
    std::fprintf(stderr, "error: at least one --listen endpoint is required\n");
    return usage(argv[0]);
  }

  try {
    // Self-train on the shared serving workload: the daemon and its clients
    // agree on the model by regenerating it from the same seeds.
    if (!quiet) std::printf("training %s (tiny serving configuration)...\n",
                            detector_name.c_str());
    const core::Profile profile = bench::tiny_serve_profile();
    const data::MultivariateSeries train_raw = bench::make_sine(1200, 1);
    data::MinMaxNormalizer normalizer;
    normalizer.fit(train_raw);
    const data::MultivariateSeries train = normalizer.transform(train_raw);
    const std::unique_ptr<core::AnomalyDetector> detector =
        core::make_detector(profile, detector_name);  // throws on an unknown name
    detector->fit(train);
    config.threshold = core::calibrate_threshold(*detector, train, {});

    net::Server server(*detector, normalizer, config);
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    if (server.tcp_port() >= 0)
      std::printf("listening on tcp:%s:%d\n", config.tcp_host.c_str(), server.tcp_port());
    if (!server.uds_path().empty())
      std::printf("listening on unix:%s\n", server.uds_path().c_str());
    if (!server.shm_path().empty())
      std::printf("listening on shm:%s\n", server.shm_path().c_str());
    if (server.metrics_port() >= 0)
      std::printf("metrics on tcp:%s:%d\n", config.metrics_host.c_str(), server.metrics_port());
    std::printf("serving %ld streams x %ld channels (threshold %.6f, policy %s)\n",
                static_cast<long>(server.n_streams()), static_cast<long>(server.n_channels()),
                static_cast<double>(config.threshold),
                serve::to_string(config.runtime.backpressure));
    std::fflush(stdout);

    server.run();

    g_server = nullptr;
    // The exit report is printed even under --quiet (--quiet silences the
    // training/serving chatter, not the final accounting line). It must
    // agree with /metrics and RuntimeStats: "scored" is stats.scored — the
    // results the runtime actually emitted — not stats.pushed, which keeps
    // counting samples whose scores went unrouted after a client
    // disconnected mid-drain. After the orderly close(),
    // scored == pushed - dropped holds exactly.
    const serve::RuntimeStats stats = server.runtime().stats();
    std::printf("shutdown: %ld connections, %ld samples pushed, %ld scored, %ld dropped,"
                " %ld rejected, %ld nacks, %ld protocol errors, %ld unrouted scores\n",
                server.connections_accepted(), stats.pushed, stats.scored, stats.dropped,
                stats.rejected, server.frames_nacked(), server.protocol_errors(),
                server.scores_unrouted());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "varade-served: %s\n", e.what());
    return 1;
  }
}
