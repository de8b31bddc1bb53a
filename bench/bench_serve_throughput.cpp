// Serving-layer throughput bench: stream-samples/sec of the ScoringEngine
// versus batch size, against the sequential OnlineMonitor baseline — for any
// of the paper's six detectors.
//
// Each selected detector is trained once (tiny configuration) on a synthetic
// sine cell; N independent streams are then replayed through (a) one
// OnlineMonitor per stream, sequentially, and (b) a ScoringEngine at each
// max_batch. All configurations produce bit-identical scores (asserted via
// checksum), so the numbers isolate the serving layer's batching win. All
// six detectors have native score_batch overrides and clone_fitted replicas,
// so every one benefits from batching and sharding.
//
// --async additionally replays the streams through the AsyncScoringRuntime
// (N concurrent producer threads pushing into lock-free per-stream rings,
// background scoring threads draining them) and reports end-to-end samples/s
// against the same sequential baseline, score-checksum-verified.
//
// --shards N (with --async) additionally runs the sharded runtime: streams
// partitioned across N scorer threads, each with its own clone_fitted
// engine. Reported next to the single-shard async rate so the scaling step
// is visible; 0 = auto (hardware_concurrency). Shards are the serving
// stack's one parallelism setting.
//
// --json <path> writes the per-detector sequential vs. batched samples/s as a
// machine-readable record (the repo's BENCH_*.json perf trajectory points).
//
// --stream-sweep [N] replaces the grid with the fleet-capacity sweep: stream
// counts {1k, 10k, 100k, 1M} (or the single count N) through one
// SoA ScoringEngine, reporting samples/s and resident bytes per stream at
// each point. Every stream replays one of 64 input archetypes (stream s
// plays archetype s % 64, values fully determined by (archetype, t, c)), so
// the sequential OnlineMonitor baseline runs once per archetype and every
// stream's score sum is required to match its archetype's to the last bit —
// a bit-exact fleet-scale parity check that doesn't need a million
// monitors. --samples (default 96 here) bounds per-stream length; --json
// writes the sweep record (BENCH_pr8.json format).
//
// Usage: bench_serve_throughput [--quick] [--async] [--shards N] [--streams N]
//                               [--samples N] [--stream-sweep [N]]
//                               [--detector <name>|all] [--json <path>]
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "varade/core/monitor.hpp"
#include "varade/core/profiles.hpp"
#include "varade/data/window.hpp"
#include "varade/obs/telemetry.hpp"
#include "varade/serve/runtime.hpp"
#include "varade/serve/scoring_engine.hpp"

namespace {

using namespace varade;
using bench::make_sine;
using bench::parse_long_arg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BenchResult {
  std::string detector;
  // Direct scoring path: the same pre-gathered (context, observation) pairs
  // through 1-row score_batch calls (what OnlineMonitor runs) vs. chunks of
  // kScoreChunk — isolates batching from serving-layer overhead.
  double seq_samples_per_s = 0.0;      // score_batch, one row per call
  double batched_samples_per_s = 0.0;  // score_batch, chunks of kScoreChunk
  // End-to-end serving stack.
  double base_samples_per_s = 0.0;  // sequential OnlineMonitor
  double best_samples_per_s = 0.0;  // best engine configuration
  std::string best_config;
  // Async ingestion runtime (--async only; 0 when not measured).
  double async_samples_per_s = 0.0;  // best single-shard async configuration
  std::string async_config;
  // Sharded runtime (--async --shards N with N != 1 only; 0 otherwise).
  double sharded_samples_per_s = 0.0;  // best multi-shard configuration
  std::string sharded_config;
  // Score-latency quantiles (ns) from varade::obs telemetry: engine step()
  // rounds of the best engine configuration, scorer rounds and sampled
  // push->score latency of the best async configuration. All zero when the
  // build is -DVARADE_OBS=OFF (the bench still runs; only the latency
  // columns disappear).
  std::int64_t step_p50_ns = 0, step_p95_ns = 0, step_p99_ns = 0;
  std::int64_t round_p50_ns = 0, round_p95_ns = 0, round_p99_ns = 0;
  std::int64_t push_to_score_p50_ns = 0, push_to_score_p95_ns = 0, push_to_score_p99_ns = 0;
};

constexpr Index kScoreChunk = 64;

/// Scores the tail of `series` (already normalised; the training recording —
/// these are timing numbers, not detection quality) twice — once through a
/// loop of 1-row score_batch calls and once in chunks of kScoreChunk —
/// taking the best of three timed repetitions per path, and exits the
/// process unless the two score vectors are bit-identical.
void score_path_bench(core::AnomalyDetector& detector, const data::MultivariateSeries& series,
                      BenchResult& result) {
  const Index window = detector.context_window();
  const Index c = series.n_channels();
  const Index rows = series.length() - window;

  Tensor contexts({rows, c, window});
  Tensor observed({rows, c});
  for (Index r = 0; r < rows; ++r) {
    const Index t = window + r;
    const Tensor context = data::extract_context(series, t - 1, window);
    std::memcpy(contexts.data() + r * c * window, context.data(),
                static_cast<std::size_t>(c * window) * sizeof(float));
    std::memcpy(observed.data() + r * c, series.sample(t),
                static_cast<std::size_t>(c) * sizeof(float));
  }

  std::vector<float> seq_scores(static_cast<std::size_t>(rows));
  std::vector<float> batch_scores(static_cast<std::size_t>(rows));
  // Times score_batch over all rows in chunks of `chunk`; best of three.
  const auto time_chunks = [&](Index chunk, std::vector<float>& scores) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      for (Index begin = 0; begin < rows; begin += chunk) {
        const Index n = std::min(chunk, rows - begin);
        detector.score_batch(contexts.slice0(begin, begin + n),
                             observed.slice0(begin, begin + n), scores.data() + begin);
      }
      const double s = seconds_since(start);
      if (rep == 0 || s < best) best = s;
    }
    return best;
  };
  const double seq_s = time_chunks(1, seq_scores);
  const double batch_s = time_chunks(kScoreChunk, batch_scores);
  if (std::memcmp(seq_scores.data(), batch_scores.data(),
                  static_cast<std::size_t>(rows) * sizeof(float)) != 0) {
    std::fprintf(stderr, "FATAL: %s score_batch(%ld) drifted from 1-row calls in the microbench\n",
                 detector.name().c_str(), static_cast<long>(kScoreChunk));
    std::exit(1);
  }
  result.seq_samples_per_s = static_cast<double>(rows) / seq_s;
  result.batched_samples_per_s = static_cast<double>(rows) / batch_s;
  std::printf("scoring path: score_batch(1) %.0f samples/s, score_batch(%ld) %.0f samples/s"
              " (%.2fx, bit-identical)\n",
              result.seq_samples_per_s, static_cast<long>(kScoreChunk),
              result.batched_samples_per_s,
              result.batched_samples_per_s / result.seq_samples_per_s);
}

/// Replays the streams through the AsyncScoringRuntime with `n_producers`
/// concurrent producer threads (streams round-robin across producers, one
/// producer per stream) and the stream space partitioned across `n_shards`
/// scoring threads; returns wall-clock seconds from first push to close()
/// (which drains the backlog) plus draining the result queue, from which
/// the score checksum is accumulated.
double bench_async_once(core::AnomalyDetector& detector,
                        const data::MinMaxNormalizer& normalizer, float threshold,
                        const std::vector<data::MultivariateSeries>& streams,
                        Index n_samples, int n_producers, Index n_shards,
                        double& checksum_out, serve::ShardTelemetry& telemetry_out) {
  const auto n_streams = static_cast<Index>(streams.size());
  serve::AsyncRuntimeConfig cfg;
  cfg.engine = {.max_batch = 32};
  cfg.ring_capacity = 1024;
  cfg.backpressure = serve::BackpressurePolicy::Block;
  cfg.n_shards = n_shards;
  serve::AsyncScoringRuntime runtime(detector, normalizer, cfg);
  runtime.add_streams(n_streams);
  runtime.set_threshold(threshold);
  runtime.start();

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  for (int p = 0; p < n_producers; ++p) {
    producers.emplace_back([&, p] {
      for (Index t = 0; t < n_samples; ++t) {
        for (Index s = p; s < n_streams; s += n_producers) {
          const auto r = runtime.push(s, streams[static_cast<std::size_t>(s)].sample(t), 3);
          if (r == serve::PushResult::Rejected) {
            std::fprintf(stderr, "FATAL: Block push rejected mid-run\n");
            std::exit(1);
          }
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  runtime.close();  // drains the backlog: part of the measured work
  double checksum = 0.0;
  for (const serve::StreamScore& r : runtime.drain_scores()) checksum += r.score;
  const double secs = seconds_since(start);
  checksum_out = checksum;
  telemetry_out = runtime.telemetry().total;
  return secs;
}

/// Runs the baseline + engine grid for one fitted detector; returns the
/// throughput summary. Exits the process on a checksum mismatch.
BenchResult bench_detector(core::AnomalyDetector& detector,
                           const data::MinMaxNormalizer& normalizer,
                           const data::MultivariateSeries& train,
                           const std::vector<data::MultivariateSeries>& streams,
                           Index n_samples, bool run_async, Index n_shards) {
  const auto n_streams = static_cast<Index>(streams.size());
  const long total = static_cast<long>(n_streams) * static_cast<long>(n_samples);

  // Calibrate once outside every timed region; all paths share the threshold.
  const float threshold = core::calibrate_threshold(detector, train, {});

  // Baseline: one OnlineMonitor per stream, run to completion sequentially.
  double checksum_base = 0.0;
  const auto t0 = Clock::now();
  for (Index s = 0; s < n_streams; ++s) {
    core::OnlineMonitor monitor(detector, normalizer);
    monitor.set_threshold(threshold);
    const auto& in = streams[static_cast<std::size_t>(s)];
    for (Index t = 0; t < in.length(); ++t) checksum_base += monitor.push(in.sample(t));
  }
  const double base_s = seconds_since(t0);

  BenchResult result;
  result.detector = detector.name();
  result.base_samples_per_s = static_cast<double>(total) / base_s;

  std::printf("\n=== %s ===\n", detector.name().c_str());
  score_path_bench(detector, train, result);
  std::printf("%-34s %10s %12s %9s\n", "configuration", "time s", "samples/s", "speedup");
  std::printf("%-34s %10.3f %12.0f %9s\n", "sequential OnlineMonitor", base_s,
              static_cast<double>(total) / base_s, "1.00x");

  for (const Index max_batch : {1, 8, 32, 64}) {
    serve::ScoringEngine engine(detector, normalizer, {.max_batch = max_batch});
    engine.add_streams(n_streams);
    engine.set_threshold(threshold);

    double checksum = 0.0;
    const auto start = Clock::now();
    // Replay in bursts so many streams are pending per step(), as a serving
    // frontend would see under load.
    constexpr Index kBurst = 50;
    for (Index t0_ = 0; t0_ < n_samples; t0_ += kBurst) {
      const Index t1 = std::min(n_samples, t0_ + kBurst);
      for (Index s = 0; s < n_streams; ++s) {
        const auto& in = streams[static_cast<std::size_t>(s)];
        for (Index t = t0_; t < t1; ++t) engine.push(s, in.sample(t), in.n_channels());
      }
      for (const serve::StreamScore& r : engine.step()) checksum += r.score;
    }
    const double secs = seconds_since(start);
    const double samples_per_s = static_cast<double>(total) / secs;

    char label[64];
    std::snprintf(label, sizeof(label), "engine  max_batch=%ld", static_cast<long>(max_batch));
    std::printf("%-34s %10.3f %12.0f %8.2fx", label, secs, samples_per_s, base_s / secs);
    std::printf("   (%ld forward calls)\n", engine.forward_calls());

    if (samples_per_s > result.best_samples_per_s) {
      result.best_samples_per_s = samples_per_s;
      result.best_config = label;
      const serve::EngineTelemetry et = engine.telemetry();
      result.step_p50_ns = et.step.quantile(0.50);
      result.step_p95_ns = et.step.quantile(0.95);
      result.step_p99_ns = et.step.quantile(0.99);
    }
    if (std::abs(checksum - checksum_base) > 1e-6 * std::abs(checksum_base)) {
      std::fprintf(stderr, "FATAL: %s checksum mismatch vs baseline (%.9g vs %.9g)\n",
                   detector.name().c_str(), checksum, checksum_base);
      std::exit(1);
    }
  }
  std::printf("all engine configurations matched the sequential checksum\n");
  if (run_async) {
    // Single-shard first (the PR4 trajectory point), then the sharded
    // runtime when --shards asks for more than one scorer thread.
    std::vector<Index> shard_counts = {1};
    const Index resolved = serve::ShardPartition::resolve(n_shards);
    if (resolved != 1) shard_counts.push_back(resolved);
    for (const Index shards : shard_counts) {
      for (const int producers : {1, 2, 4}) {
        if (static_cast<Index>(producers) > n_streams) break;
        double checksum = 0.0;
        serve::ShardTelemetry telemetry;
        const double secs = bench_async_once(detector, normalizer, threshold, streams,
                                             n_samples, producers, shards, checksum, telemetry);
        const double samples_per_s = static_cast<double>(total) / secs;
        char label[64];
        std::snprintf(label, sizeof(label), "async runtime  shards=%ld producers=%d",
                      static_cast<long>(shards), producers);
        std::printf("%-34s %10.3f %12.0f %8.2fx   (lock-free rings, %s, %ld scorers)\n",
                    label, secs, samples_per_s, base_s / secs,
                    serve::to_string(serve::BackpressurePolicy::Block),
                    static_cast<long>(std::min(shards, n_streams)));
        if (shards == 1 && samples_per_s > result.async_samples_per_s) {
          result.async_samples_per_s = samples_per_s;
          result.async_config = label;
          result.round_p50_ns = telemetry.round.quantile(0.50);
          result.round_p95_ns = telemetry.round.quantile(0.95);
          result.round_p99_ns = telemetry.round.quantile(0.99);
          result.push_to_score_p50_ns = telemetry.engine.push_to_score.quantile(0.50);
          result.push_to_score_p95_ns = telemetry.engine.push_to_score.quantile(0.95);
          result.push_to_score_p99_ns = telemetry.engine.push_to_score.quantile(0.99);
        }
        if (shards != 1 && samples_per_s > result.sharded_samples_per_s) {
          result.sharded_samples_per_s = samples_per_s;
          result.sharded_config = label;
        }
        if (std::abs(checksum - checksum_base) > 1e-6 * std::abs(checksum_base)) {
          std::fprintf(stderr, "FATAL: %s async checksum mismatch vs baseline (%.9g vs %.9g)\n",
                       detector.name().c_str(), checksum, checksum_base);
          std::exit(1);
        }
      }
    }
    std::printf("all async configurations matched the sequential checksum\n");
  }
  if (result.step_p50_ns > 0)
    std::printf("score latency (best engine): step p50 %.1f us  p95 %.1f us  p99 %.1f us\n",
                static_cast<double>(result.step_p50_ns) * 1e-3,
                static_cast<double>(result.step_p95_ns) * 1e-3,
                static_cast<double>(result.step_p99_ns) * 1e-3);
  if (result.round_p50_ns > 0)
    std::printf("score latency (best async): round p50 %.1f us  p95 %.1f us  p99 %.1f us,"
                " push->score p50 %.1f us  p95 %.1f us  p99 %.1f us\n",
                static_cast<double>(result.round_p50_ns) * 1e-3,
                static_cast<double>(result.round_p95_ns) * 1e-3,
                static_cast<double>(result.round_p99_ns) * 1e-3,
                static_cast<double>(result.push_to_score_p50_ns) * 1e-3,
                static_cast<double>(result.push_to_score_p95_ns) * 1e-3,
                static_cast<double>(result.push_to_score_p99_ns) * 1e-3);
  return result;
}

/// Writes the per-detector sequential vs. batched samples/s as JSON — the
/// format of the repo's BENCH_*.json perf-trajectory records.
void write_json(const std::string& path, Index n_streams, Index n_samples, Index n_shards,
                const std::vector<BenchResult>& results) {
  std::ofstream f(path);
  if (!f.is_open()) {
    std::fprintf(stderr, "error: cannot open --json path %s for writing\n", path.c_str());
    std::exit(1);
  }
  f << "{\n";
  f << "  \"bench\": \"serve_throughput\",\n";
  f << "  \"streams\": " << n_streams << ",\n";
  f << "  \"samples\": " << n_samples << ",\n";
  f << "  \"shards\": " << serve::ShardPartition::resolve(n_shards) << ",\n";
  f << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  f << "  \"telemetry_enabled\": " << (obs::kEnabled ? "true" : "false") << ",\n";
  f << "  \"detectors\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    char line[1152];
    std::snprintf(line, sizeof(line),
                  "    {\"detector\": \"%s\", \"sequential_samples_per_s\": %.1f, "
                  "\"batched_samples_per_s\": %.1f, \"batched_speedup\": %.3f, "
                  "\"monitor_samples_per_s\": %.1f, \"engine_best_samples_per_s\": %.1f, "
                  "\"engine_best_config\": \"%s\", \"async_samples_per_s\": %.1f, "
                  "\"async_config\": \"%s\", \"sharded_samples_per_s\": %.1f, "
                  "\"sharded_config\": \"%s\", "
                  "\"step_p50_ns\": %lld, \"step_p95_ns\": %lld, \"step_p99_ns\": %lld, "
                  "\"round_p50_ns\": %lld, \"round_p95_ns\": %lld, \"round_p99_ns\": %lld, "
                  "\"push_to_score_p50_ns\": %lld, \"push_to_score_p95_ns\": %lld, "
                  "\"push_to_score_p99_ns\": %lld}%s\n",
                  r.detector.c_str(), r.seq_samples_per_s, r.batched_samples_per_s,
                  r.batched_samples_per_s / r.seq_samples_per_s, r.base_samples_per_s,
                  r.best_samples_per_s, r.best_config.c_str(), r.async_samples_per_s,
                  r.async_config.c_str(), r.sharded_samples_per_s, r.sharded_config.c_str(),
                  static_cast<long long>(r.step_p50_ns), static_cast<long long>(r.step_p95_ns),
                  static_cast<long long>(r.step_p99_ns), static_cast<long long>(r.round_p50_ns),
                  static_cast<long long>(r.round_p95_ns), static_cast<long long>(r.round_p99_ns),
                  static_cast<long long>(r.push_to_score_p50_ns),
                  static_cast<long long>(r.push_to_score_p95_ns),
                  static_cast<long long>(r.push_to_score_p99_ns),
                  i + 1 < results.size() ? "," : "");
    f << line;
  }
  f << "  ]\n}\n";
  if (!f) {
    std::fprintf(stderr, "error: failed writing %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Fleet-capacity stream sweep (--stream-sweep)
// ---------------------------------------------------------------------------

/// Input archetypes shared by all sweep streams: stream s replays archetype
/// s % kArchetypes, so the bit-exact baseline needs kArchetypes monitors no
/// matter how many streams the engine serves.
constexpr Index kArchetypes = 64;
constexpr Index kSweepChannels = 3;

/// Deterministic noise in [-0.1, 0.1] from an integer key (splitmix64
/// finaliser) — stateless, so a sample's value depends only on
/// (archetype, t, c) and any stream can be regenerated on the fly.
float hash_noise(std::uint64_t key) {
  std::uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
  z ^= z >> 31U;
  return (static_cast<float>(z >> 40U) / static_cast<float>(1U << 24U) - 0.5F) * 0.2F;
}

/// One 3-channel sample of `archetype` at time t: phase-shifted sines plus
/// hash noise, in the value range of the training cell.
void sweep_sample(Index archetype, Index t, float* out) {
  const auto a = static_cast<double>(archetype);
  const auto x = static_cast<double>(t);
  out[0] = static_cast<float>(std::sin(0.050 * x + 0.10 * a));
  out[1] = static_cast<float>(0.8 * std::sin(0.110 * x + 0.07 * a) + 0.1);
  out[2] = static_cast<float>(0.5 * std::sin(0.023 * x + 0.13 * a) - 0.2);
  const auto base = (static_cast<std::uint64_t>(archetype) << 40U) |
                    (static_cast<std::uint64_t>(t) << 8U);
  for (Index c = 0; c < kSweepChannels; ++c)
    out[c] += hash_noise(base | static_cast<std::uint64_t>(c));
}

/// Resident set size from /proc/self/status (0 where unavailable) — the
/// sweep's memory-per-stream numbers are OS-resident bytes, not allocator
/// estimates.
long resident_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      long kb = 0;
      if (std::sscanf(line.c_str() + 6, "%ld", &kb) == 1) return kb * 1024;
      return 0;
    }
  }
  return 0;
}

struct SweepPoint {
  Index streams = 0;
  double engine_samples_per_s = 0.0;
  double monitor_samples_per_s = 0.0;
  double bytes_per_stream = 0.0;
  bool bit_exact = false;
};

/// Replays `n_streams` archetype streams of `n_samples` samples through one
/// SoA ScoringEngine and checks every stream's score sum bit-exactly against
/// the per-archetype sequential OnlineMonitor baseline. Exits on mismatch.
SweepPoint sweep_one(core::AnomalyDetector& detector, const data::MinMaxNormalizer& normalizer,
                     float threshold, Index n_streams, Index n_samples) {
  SweepPoint point;
  point.streams = n_streams;
  float sample[kSweepChannels];

  // Baseline: one OnlineMonitor per archetype, sequential. Score sums
  // accumulate in push order (doubles), the exact order the engine emits a
  // stream's scores in — so equality below can demand the last bit.
  const Index n_archetypes = std::min(kArchetypes, n_streams);
  std::vector<double> base_sum(static_cast<std::size_t>(n_archetypes), 0.0);
  const auto t0 = Clock::now();
  for (Index a = 0; a < n_archetypes; ++a) {
    core::OnlineMonitor monitor(detector, normalizer);
    monitor.set_threshold(threshold);
    for (Index t = 0; t < n_samples; ++t) {
      sweep_sample(a, t, sample);
      base_sum[static_cast<std::size_t>(a)] += static_cast<double>(monitor.push(sample));
    }
  }
  point.monitor_samples_per_s =
      static_cast<double>(n_archetypes) * static_cast<double>(n_samples) / seconds_since(t0);

  // Per-stream score sums, allocated before the memory baseline so the
  // bytes-per-stream figure isolates the engine's own state.
  std::vector<double> sums(static_cast<std::size_t>(n_streams), 0.0);
  const long rss_before = resident_bytes();

  serve::ScoringEngine engine(detector, normalizer, {.max_batch = 64});
  engine.add_streams(n_streams);
  engine.set_threshold(threshold);

  // Replay in bursts of a few samples per stream per step(), the pattern a
  // loaded frontend produces. Samples are regenerated on the fly — storing
  // 1M streams' inputs would dwarf the state being measured.
  constexpr Index kBurst = 8;
  const auto run0 = Clock::now();
  for (Index t0_ = 0; t0_ < n_samples; t0_ += kBurst) {
    const Index t1 = std::min(n_samples, t0_ + kBurst);
    for (Index s = 0; s < n_streams; ++s) {
      for (Index t = t0_; t < t1; ++t) {
        sweep_sample(s % kArchetypes, t, sample);
        engine.push(s, sample, kSweepChannels);
      }
    }
    for (const serve::StreamScore& r : engine.step())
      sums[static_cast<std::size_t>(r.stream)] += static_cast<double>(r.score);
  }
  const double secs = seconds_since(run0);
  const long rss_after = resident_bytes();

  point.engine_samples_per_s =
      static_cast<double>(n_streams) * static_cast<double>(n_samples) / secs;
  point.bytes_per_stream =
      static_cast<double>(rss_after - rss_before) / static_cast<double>(n_streams);

  for (Index s = 0; s < n_streams; ++s) {
    // Bit-exact, not epsilon: identical accumulation order makes == the
    // right comparison, and the whole point is catching layout bugs.
    if (sums[static_cast<std::size_t>(s)] !=
        base_sum[static_cast<std::size_t>(s % kArchetypes)]) {
      std::fprintf(stderr,
                   "FATAL: stream %ld score sum %.17g != archetype %ld baseline %.17g\n",
                   static_cast<long>(s), sums[static_cast<std::size_t>(s)],
                   static_cast<long>(s % kArchetypes),
                   base_sum[static_cast<std::size_t>(s % kArchetypes)]);
      std::exit(1);
    }
  }
  point.bit_exact = true;
  return point;
}

void write_sweep_json(const std::string& path, const std::string& detector, Index n_samples,
                      const std::vector<SweepPoint>& points) {
  std::ofstream f(path);
  if (!f.is_open()) {
    std::fprintf(stderr, "error: cannot open --json path %s for writing\n", path.c_str());
    std::exit(1);
  }
  f << "{\n";
  f << "  \"bench\": \"stream_sweep\",\n";
  f << "  \"detector\": \"" << detector << "\",\n";
  f << "  \"samples\": " << n_samples << ",\n";
  f << "  \"archetypes\": " << kArchetypes << ",\n";
  f << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  f << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"streams\": %ld, \"engine_samples_per_s\": %.1f, "
                  "\"monitor_samples_per_s\": %.1f, \"bytes_per_stream\": %.1f, "
                  "\"checksum_bit_exact\": %s}%s\n",
                  static_cast<long>(p.streams), p.engine_samples_per_s,
                  p.monitor_samples_per_s, p.bytes_per_stream,
                  p.bit_exact ? "true" : "false", i + 1 < points.size() ? "," : "");
    f << line;
  }
  f << "  ]\n}\n";
  if (!f) {
    std::fprintf(stderr, "error: failed writing %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

int run_stream_sweep(const std::string& detector_name, Index n_samples,
                     const std::vector<Index>& points, const std::string& json_path) {
  const core::Profile profile = bench::tiny_serve_profile();
  const auto train_raw = make_sine(1200, 1);
  data::MinMaxNormalizer normalizer;
  normalizer.fit(train_raw);
  const auto train = normalizer.transform(train_raw);

  std::printf("Training %s (tiny bench configuration)...\n", detector_name.c_str());
  const std::unique_ptr<core::AnomalyDetector> detector =
      core::make_detector(profile, detector_name);
  detector->fit(train);
  const float threshold = core::calibrate_threshold(*detector, train, {});

  std::printf("stream sweep: %s, %ld samples/stream, %ld archetypes  (%u hardware threads)\n",
              detector_name.c_str(), static_cast<long>(n_samples),
              static_cast<long>(kArchetypes), std::thread::hardware_concurrency());
  std::printf("%12s %16s %16s %16s %10s\n", "streams", "engine s/s", "monitor s/s",
              "bytes/stream", "parity");

  std::vector<SweepPoint> results;
  for (const Index n : points) {
    const SweepPoint p = sweep_one(*detector, normalizer, threshold, n, n_samples);
    std::printf("%12ld %16.0f %16.0f %16.0f %10s\n", static_cast<long>(p.streams),
                p.engine_samples_per_s, p.monitor_samples_per_s, p.bytes_per_stream,
                p.bit_exact ? "bit-exact" : "FAIL");
    results.push_back(p);
  }
  std::printf("all %zu sweep points matched the per-archetype baseline bit-exactly\n",
              results.size());
  if (!json_path.empty()) write_sweep_json(json_path, detector_name, n_samples, results);
  std::printf("\nDone.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Index n_streams = 16;
  Index n_samples = 2000;
  Index n_shards = 1;
  std::string detector_arg = "VARADE";
  std::string json_path;
  bool run_async = false;
  bool stream_sweep = false;
  bool samples_given = false;
  bool detector_given = false;
  std::vector<Index> sweep_points;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--quick") == 0) {
      n_streams = 8;
      n_samples = 400;
    } else if (std::strcmp(argv[a], "--async") == 0) {
      run_async = true;
    } else if (std::strcmp(argv[a], "--shards") == 0 && a + 1 < argc) {
      n_shards = parse_long_arg("--shards", argv[++a]);
    } else if (std::strcmp(argv[a], "--streams") == 0 && a + 1 < argc) {
      n_streams = parse_long_arg("--streams", argv[++a]);
    } else if (std::strcmp(argv[a], "--samples") == 0 && a + 1 < argc) {
      n_samples = parse_long_arg("--samples", argv[++a]);
      samples_given = true;
    } else if (std::strcmp(argv[a], "--stream-sweep") == 0) {
      stream_sweep = true;
      // Optional numeric operand: one sweep point instead of the full curve.
      if (a + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[a + 1][0])) != 0)
        sweep_points.push_back(parse_long_arg("--stream-sweep", argv[++a]));
    } else if (std::strcmp(argv[a], "--detector") == 0 && a + 1 < argc) {
      detector_arg = argv[++a];
      detector_given = true;
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--async] [--shards N] [--streams N] [--samples N]"
                   " [--stream-sweep [N]] [--detector <name>|all]"
                   " [--json <path>]\n"
                   "detectors: all",
                   argv[0]);
      for (const std::string& name : core::detector_names())
        std::fprintf(stderr, ", \"%s\"", name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  if (n_streams < 1 || n_samples < 1) {
    std::fprintf(stderr, "error: --streams and --samples must be >= 1\n");
    return 2;
  }
  if (n_shards < 0) {
    std::fprintf(stderr, "error: --shards must be >= 0 (0 = auto)\n");
    return 2;
  }
  if (stream_sweep) {
    if (sweep_points.empty()) sweep_points = {1000, 10000, 100000, 1000000};
    for (const Index p : sweep_points) {
      if (p < 1) {
        std::fprintf(stderr, "error: --stream-sweep point must be >= 1\n");
        return 2;
      }
    }
    // Sweep defaults differ from the grid's: GBRF (the fastest scorer, so
    // the sweep probes the serving layer, not the detector) and a short
    // per-stream replay (stream count is the swept axis).
    if (detector_arg == "all") {
      std::fprintf(stderr, "error: --stream-sweep needs a single --detector\n");
      return 2;
    }
    return run_stream_sweep(detector_given ? detector_arg : "GBRF",
                            samples_given ? n_samples : 96, sweep_points, json_path);
  }

  std::vector<std::string> names;
  if (detector_arg == "all") {
    names = core::detector_names();
  } else {
    names.push_back(detector_arg);
  }

  const core::Profile profile = bench::tiny_serve_profile();
  const auto train_raw = make_sine(1200, 1);
  data::MinMaxNormalizer normalizer;
  normalizer.fit(train_raw);
  const auto train = normalizer.transform(train_raw);

  std::vector<data::MultivariateSeries> streams;
  for (Index s = 0; s < n_streams; ++s)
    streams.push_back(make_sine(n_samples, 100 + static_cast<std::uint64_t>(s)));

  const long total = static_cast<long>(n_streams) * static_cast<long>(n_samples);
  std::printf("%ld streams x %ld samples = %ld stream-samples per run  (%u hardware threads)\n",
              static_cast<long>(n_streams), static_cast<long>(n_samples), total,
              std::thread::hardware_concurrency());

  std::vector<BenchResult> results;
  for (const std::string& name : names) {
    std::printf("\nTraining %s (tiny bench configuration)...\n", name.c_str());
    const std::unique_ptr<core::AnomalyDetector> detector =
        core::make_detector(profile, name);  // throws on an unknown name
    detector->fit(train);
    results.push_back(bench_detector(*detector, normalizer, train, streams, n_samples,
                                     run_async, n_shards));
  }

  if (results.size() > 1) {
    std::printf("\n%-20s %14s %14s %8s %14s %14s %14s %14s\n", "detector", "step s/s",
                "batch s/s", "speedup", "monitor s/s", "best engine s/s", "best async s/s",
                "sharded s/s");
    for (const BenchResult& r : results) {
      std::printf("%-20s %14.0f %14.0f %7.2fx %14.0f %14.0f ", r.detector.c_str(),
                  r.seq_samples_per_s, r.batched_samples_per_s,
                  r.batched_samples_per_s / r.seq_samples_per_s, r.base_samples_per_s,
                  r.best_samples_per_s);
      if (run_async) {
        std::printf("%14.0f ", r.async_samples_per_s);
      } else {
        std::printf("%14s ", "-");  // not measured without --async
      }
      if (r.sharded_samples_per_s > 0.0) {
        std::printf("%14.0f\n", r.sharded_samples_per_s);
      } else {
        std::printf("%14s\n", "-");  // not measured without --shards N (N != 1)
      }
    }
  }
  if (!json_path.empty())
    write_json(json_path, n_streams, n_samples, n_shards, results);
  std::printf("\nDone.\n");
  return 0;
}
