// perfbench: the serving benchmark.
//
//   perfbench --workload <varade-cell|gbrf-imu|varade-paced> --seed N
//             --seconds S --trace <0|1>
//
// Every input is generated from --seed. The set-up (training data, fit,
// threshold calibration, net::Server construction with its listener bound)
// runs at least three times and for at least a second before the run and as
// often again after it; its median is setup_s. A forked client process then
// drives the workload through the daemon for S seconds: client ->
// net::Client / wire -> transport -> net::Server -> AsyncScoringRuntime ->
// ScoringEngine -> detector score_batch. The scores it receives are checked
// bit for bit against one sequential OnlineMonitor per stream on a fixed
// subset of the streams; a mismatch exits 1 without printing a result.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// more with client spans on, then the cost ledger (ledger.hpp) and the
// transport matrix, and prints the per-layer metrics. Spans are written to
// .bench_build/traces/. The last stdout line is always the JSON result.
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "daemon.hpp"
#include "ledger.hpp"
#include "varade/core/monitor.hpp"
#include "varade/eval/metrics.hpp"

namespace {

using namespace perfbench;
using varade::Index;

constexpr const char* kBuildDir = ".bench_build";
constexpr Index kKeptStreams = 32;  // scores of streams [0, 32) come back for checking

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <varade-cell|gbrf-imu|varade-paced>"
               " --seed N --seconds S --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (!(a.seconds > 0.0 && a.seconds <= 60.0)) usage("--seconds must be in (0, 60]");
    } else if (flag == "--trace") {
      a.trace = std::strtol(value, &end, 10) != 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) usage(("bad value for " + flag).c_str());
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The correctness gate: streams 0 and kept-1 must match one sequential
/// OnlineMonitor each, bit for bit, over every score received. Returns the
/// AUC against their labels of each kept stream's first tile_length()
/// post-warm-up scores (fewer if a short run received fewer), so that the
/// AUC of a seed does not depend on how fast the run went.
double check_scores(const DriveResult& r, Model& model, const StreamSet& streams) {
  const Index window = model.detector->context_window();
  const auto kept = static_cast<Index>(r.kept.size());
  for (const Index s : {Index{0}, kept - 1}) {
    const std::vector<float>& got = r.kept[static_cast<std::size_t>(s)];
    if (static_cast<Index>(got.size()) <= window)
      die("stream " + std::to_string(s) + " received only " + std::to_string(got.size()) +
          " scores");
    varade::core::OnlineMonitor monitor(*model.detector, model.normalizer);
    monitor.set_threshold(model.threshold);
    for (std::size_t t = 0; t < got.size(); ++t) {
      const float want = monitor.push(streams.sample(s, static_cast<Index>(t)));
      if (std::memcmp(&want, &got[t], sizeof(float)) != 0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "score mismatch on stream %ld sample %zu: daemon %.9g, sequential %.9g",
                      static_cast<long>(s), t, static_cast<double>(got[t]),
                      static_cast<double>(want));
        die(buf);
      }
    }
    std::printf("check: stream %ld, %zu scores bit-identical to the sequential monitor\n",
                static_cast<long>(s), got.size());
  }
  auto end = static_cast<std::size_t>(window + streams.tile_length());
  for (const std::vector<float>& got : r.kept) end = std::min(end, got.size());
  std::vector<float> scores;
  std::vector<int> labels;
  for (Index s = 0; s < kept; ++s) {
    const std::vector<float>& got = r.kept[static_cast<std::size_t>(s)];
    for (auto t = static_cast<std::size_t>(window); t < end; ++t) {
      scores.push_back(got[t]);
      labels.push_back(streams.label(s, static_cast<Index>(t)));
    }
  }
  return varade::eval::auc_roc(scores, labels);
}

DriveConfig drive_config(const WorkloadSpec& spec, double seconds) {
  DriveConfig cfg;
  cfg.transport = spec.transport;
  cfg.paced = spec.paced;
  cfg.chunk = spec.chunk;
  cfg.window = spec.window;
  cfg.frame_batch = spec.frame_batch;
  cfg.rate_hz = spec.rate_hz;
  cfg.seconds = seconds;
  cfg.keep_streams = std::min(spec.n_streams, kKeptStreams);
  cfg.slice_s = seconds / 20;
  // The closed loops move their threads round the CPUs; left to the
  // scheduler, gbrf-imu's ten-run throughput spread once reached 0.59 on a
  // 4-vCPU shared KVM host. The paced load's latency suffers when threads
  // move.
  cfg.rotate = !spec.paced;
  cfg.latency_every = spec.varade ? 1 : 16;
  return cfg;
}

void print_drive(const char* label, const DriveResult& r) {
  std::printf("%s: %ld sent, %ld scored, %ld nacked, %ld missing, %ld alarms in %.3f s"
              " -> %.1f samples/s (trimmed mean of %ld slices %.1f)\n",
              label, r.sent, r.scored, r.nacks, r.missing, r.alarms, r.elapsed_s,
              r.throughput_sps, r.n_slices, r.slice_sps);
  std::printf("  latency (trimmed mean over slices) p50 %.4f ms, p95 %.4f ms, p99 %.4f ms;"
              " %ld samples, %ld per slice beyond p99; send lag p50 %.4f ms, p99 %.4f ms\n",
              r.latency_p50_ms, r.latency_p95_ms, r.latency_p99_ms, r.latency_count,
              r.n_slices > 0 ? r.latency_count / r.n_slices / 100 : 0, r.send_lag_p50_ms,
              r.send_lag_p99_ms);
  std::printf("  serving process: %.3f s CPU (%.3f us/sample overall,"
              " %.3f trimmed mean over slices), %.1f MiB resident\n",
              r.cpu_s, r.cpu_s * 1e6 / static_cast<double>(r.scored), r.cpu_us_per_sample,
              r.rss_mb);
}

/// Quantile q of a Prometheus histogram family in `text`, in the exposed
/// unit: the upper edge of the first bucket whose cumulative count reaches
/// q * count. 0 when the family has no samples.
double histogram_quantile(const std::string& text, const std::string& family, double q) {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  const std::string prefix = family + "_bucket{le=\"";
  std::size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    const std::size_t le0 = pos + prefix.size();
    const std::size_t le1 = text.find('"', le0);
    const std::size_t sp = text.find(' ', le1);
    const std::string le = text.substr(le0, le1 - le0);
    const double edge = le == "+Inf" ? 0.0 : std::strtod(le.c_str(), nullptr);
    buckets.emplace_back(edge, std::strtod(text.c_str() + sp + 1, nullptr));
    pos = sp;
  }
  if (buckets.empty() || buckets.back().second <= 0) return 0.0;
  const double want = q * buckets.back().second;
  for (const auto& [edge, cum] : buckets)
    if (cum >= want && edge > 0.0) return edge;
  return buckets.size() > 1 ? buckets[buckets.size() - 2].first : 0.0;
}

double counter_value(const std::string& text, const std::string& name) {
  const std::size_t pos = text.find("\n" + name + " ");
  if (pos == std::string::npos) die("metrics exposition lacks " + name);
  return std::strtod(text.c_str() + pos + name.size() + 2, nullptr);
}

/// Per-layer metrics the daemon run itself exposes: runtime counters and
/// telemetry, server getters and metrics_text(), and the client's timings.
void report_daemon_layers(const DriveResult& r, Report& rep) {
  const auto scored = static_cast<double>(r.stats.scored);
  const varade::obs::HistogramSnapshot& p2s = r.telemetry.total.engine.push_to_score;
  rep.add("serve.runtime.push_to_score.p50_us", static_cast<double>(p2s.quantile(0.50)) * 1e-3, "us");
  rep.add("serve.runtime.push_to_score.p99_us", static_cast<double>(p2s.quantile(0.99)) * 1e-3, "us");
  rep.add("serve.runtime.samples_per_round", scored / static_cast<double>(r.stats.rounds), "samples");
  rep.add("serve.runtime.naps_per_ksample", 1000.0 * static_cast<double>(r.stats.naps) / scored, "count");
  rep.add("net.server.decode.p50_us",
          histogram_quantile(r.metrics_text, "varade_net_frame_decode_seconds", 0.50) * 1e6, "us");
  rep.add("net.server.flush_stalls", static_cast<double>(r.flush_stalls), "count");
  rep.add("net.server.out_depth.p99_bytes",
          histogram_quantile(r.metrics_text, "varade_net_out_buffer_bytes", 0.99), "B");
  rep.add("net.server.frames_per_sample",
          counter_value(r.metrics_text, "varade_net_frames_decoded_total") /
              static_cast<double>(r.stats.pushed),
          "frames");
  rep.add("net.client.send.ns_per_sample", r.send_ns / static_cast<double>(r.sent), "ns");
  rep.add("net.client.recv.ns_per_score", r.recv_ns / static_cast<double>(r.scored), "ns");
  rep.add("net.client.blocked_frac", r.blocked_ns / (r.elapsed_s * 1e9), "ratio");
  rep.add("net.client.send_lag.p99_ms", r.send_lag_p99_ms, "ms");
}

/// {uds, tcp, shm} x frame batch {1, 64}, closed loop on the gbrf-imu inputs.
void transport_matrix(std::uint64_t seed, const std::string& sock, Report& rep) {
  const WorkloadSpec& spec = *find_workload("gbrf-imu");
  Model model = fit_model(spec);
  const StreamSet streams = make_streams(spec, seed);
  std::printf("\ntransport matrix (gbrf-imu inputs, %ld streams, closed loop):\n",
              static_cast<long>(spec.n_streams));
  for (const Transport t : {Transport::Uds, Transport::Tcp, Transport::Shm}) {
    for (const Index batch : {Index{1}, Index{64}}) {
      const auto server = make_server(model, spec.n_streams, t, sock);
      DriveConfig cfg = drive_config(spec, 1.0);
      cfg.transport = t;
      cfg.frame_batch = batch;
      cfg.keep_streams = 0;
      const DriveResult r = drive(*server, streams, cfg);
      const std::string name =
          std::string("net.transport.") + to_string(t) + ".b" + std::to_string(batch) + ".sps";
      std::printf("  %-4s batch %-3ld %12.0f samples/s\n", to_string(t), static_cast<long>(batch),
                  r.throughput_sps);
      rep.add(name, r.throughput_sps, "1/s");
      if (t == Transport::Shm && batch == 64)
        rep.add("net.transport.shm.doorbells_per_ksample",
                1000.0 * static_cast<double>(r.doorbells) / static_cast<double>(r.sent), "count");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());
  ::signal(SIGPIPE, SIG_IGN);
  const std::string run_dir = std::string(kBuildDir) + "/run";
  const std::string trace_dir = std::string(kBuildDir) + "/traces";
  for (const std::string& dir : {std::string(kBuildDir), run_dir, trace_dir})
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) die("cannot create " + dir);
  // Relative, so it fits sun_path wherever the checkout lives.
  const std::string sock = run_dir + "/" + std::to_string(::getpid()) + ".sock";
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed);

  // Set-up, timed: at least three times and for at least a second before
  // the run, the last one serving, and as many times again after it. The
  // host's speed drifts over seconds, so the median of both ends (setup_s)
  // varies less from run to run than that of one burst. The traced run sets
  // up once. Each set-up runs on the next CPU, for the reason
  // rotate_threads() gives.
  const std::vector<int> cpus = usable_cpus();
  Model model;
  std::unique_ptr<varade::net::Server> server;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  auto set_up = [&] {
    if (!cpus.empty()) pin_thread(0, cpus[setup_s.size() % cpus.size()], cpus);
    server.reset();  // borrows the model: goes first
    const std::int64_t t0 = now_ns();
    model = fit_model(*spec);
    server = make_server(model, spec->n_streams, spec->transport, sock);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    setup_total += setup_s.back();
  };
  while (setup_s.empty() ||
         (!args.trace && setup_s.size() < 64 && (setup_s.size() < 3 || setup_total < 1.0)))
    set_up();
  pin_thread(0, -1, cpus);
  const int setups = static_cast<int>(setup_s.size());
  const StreamSet streams = make_streams(*spec, args.seed);
  std::printf("%s: seed %llu, %ld streams x %ld channels, set-up %.3f s (median of %d)\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              static_cast<long>(spec->n_streams), static_cast<long>(streams.n_channels()),
              median(setup_s), setups);

  DriveConfig cfg = drive_config(*spec, args.seconds);
  cfg.trace = args.trace;
  cfg.trace_path = trace_dir + "/" + tag + "-client.csv";
  const DriveResult r = drive(*server, streams, cfg);
  print_drive(args.trace ? "traced daemon run" : "daemon run", r);
  const double auc = check_scores(r, model, streams);

  Report rep;
  if (!args.trace) {
    for (int k = 0; k < setups; ++k) set_up();
    rep.add("throughput_sps", r.slice_sps, "1/s");
    rep.add("latency_p50_ms", r.latency_p50_ms, "ms");
    rep.add("cpu_us_per_sample", r.cpu_us_per_sample, "us");
    rep.add("rss_mb", r.rss_mb, "MiB");
    rep.add("setup_s", median(setup_s), "s");
    rep.add("auc", auc, "auc");
  } else {
    // The traced run's own end-to-end numbers: set beside an untraced run's,
    // the difference is the tracing overhead.
    rep.add("traced.throughput_sps", r.slice_sps, "1/s");
    rep.add("traced.latency_p50_ms", r.latency_p50_ms, "ms");
    rep.add("traced.latency_p95_ms", r.latency_p95_ms, "ms");
    rep.add("traced.latency_p99_ms", r.latency_p99_ms, "ms");
    rep.add("traced.cpu_us_per_sample", r.cpu_us_per_sample, "us");
    report_daemon_layers(r, rep);

    Tracer tracer(true);
    const LedgerEnv env{*spec, model, streams, tracer, 0.6};
    const LedgerRows rows3 = ledger_rows(env, rep);
    // The daemon row is the serving process's CPU time per sample, all its
    // threads together: the closed loops pipeline the server's poll thread
    // with the scorer, so their wall time per sample would hide the net
    // layer behind the scorer, and the paced load does not saturate.
    const double daemon = r.cpu_us_per_sample * 1e3;
    rep.add("daemon.ns_per_sample", daemon, "ns");
    std::printf("\ncost ledger, ns per sample (each row minus the row above is that layer):\n");
    const char* names[] = {"core.score_batch", "serve.engine", "serve.runtime", "daemon"};
    const double rows[] = {rows3.score_batch, rows3.engine, rows3.runtime, daemon};
    for (int i = 0; i < 4; ++i)
      std::printf("  %-18s %12.1f  %+12.1f  %6.1f%% of daemon\n", names[i], rows[i],
                  i == 0 ? rows[0] : rows[i] - rows[i - 1], 100.0 * rows[i] / daemon);
    // What the workload was chosen for, as the ledger sees it (reported,
    // not enforced: it is a property of the program, not of its outputs).
    const double share = rows3.score_batch / daemon;
    const double naps = 1000.0 * static_cast<double>(r.stats.naps) /
                        static_cast<double>(r.stats.scored);
    if (spec->paced)
      std::printf("chosen for: an idle runtime that naps: %.1f naps per 1000 samples (%s)\n",
                  naps, naps > 0 ? "holds" : "DOES NOT HOLD");
    else if (spec->varade)
      std::printf("chosen for: model-bound, score_batch >= 85%% of the daemon: %.1f%% (%s)\n",
                  100.0 * share, share >= 0.85 ? "holds" : "DOES NOT HOLD");
    else
      std::printf("chosen for: stack-bound, score_batch <= 40%% of the daemon: %.1f%% (%s)\n",
                  100.0 * share, share <= 0.40 ? "holds" : "DOES NOT HOLD");
    ledger_nn(env, rep);
    ledger_normalize(env, rep);
    ledger_wire(env, rep);
    transport_matrix(args.seed, sock, rep);
    rep.add("trace.spans", static_cast<double>(tracer.size() + static_cast<std::size_t>(r.client_spans)),
            "count");
    const std::string span_path = trace_dir + "/" + tag + "-ledger.csv";
    if (!tracer.write_csv(span_path)) die("cannot write " + span_path);
    std::printf("spans: %s (%zu, %ld dropped), %s (%ld)\n", span_path.c_str(), tracer.size(),
                tracer.dropped(), cfg.trace_path.c_str(), r.client_spans);
  }
  rep.print_table(args.trace ? "\nper-layer metrics:" : "\nend-to-end metrics:");
  std::printf("%s\n", rep.json(true, r.sent, r.nacks + r.missing).c_str());
  return 0;
}
