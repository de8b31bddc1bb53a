// Drives one workload through the real daemon: a forked client process
// connects over the workload's transport, sends the generated samples
// (closed loop or on a schedule), receives every SCORE, and reports back over
// a pipe; this process serves with net::Server and measures its own CPU time
// and memory over the client's timed phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "varade/serve/runtime.hpp"
#include "workload.hpp"

namespace perfbench {

struct DriveConfig {
  Transport transport = Transport::Uds;
  bool paced = false;
  Index chunk = 64;        ///< closed loop: samples per stream per round trip
  Index window = 1;        ///< closed loop: chunks in flight per stream
  Index frame_batch = 64;  ///< closed loop: samples per SAMPLE_BATCH frame
  double rate_hz = 0.0;    ///< open loop: per-stream rate
  double seconds = 10.0;   ///< how long the client sends
  double slice_s = 0.5;    ///< the timed phase is cut into slices this long
  /// Move the threads round the CPUs every slice (rotate_threads) and report
  /// trimmed means over the slices; otherwise leave the threads where the
  /// scheduler puts them and report medians over the slices.
  bool rotate = true;
  long latency_every = 1;  ///< keep every n-th latency sample
  Index keep_streams = 0;  ///< received scores of streams [0, keep) are returned
  bool trace = false;      ///< record client-side spans
  std::string trace_path;  ///< where the client writes its spans
};

struct DriveResult {
  // Client side.
  long sent = 0;
  long scored = 0;
  long nacks = 0;
  long alarms = 0;
  long missing = 0;       ///< sent, neither scored nor NACKed
  double elapsed_s = 0.0;  ///< first send to last SCORE received
  double throughput_sps = 0.0;  ///< scored / elapsed_s
  double slice_sps = 0.0;       ///< SCOREs received per second, over slices (see `rotate`)
  long n_slices = 0;
  long latency_count = 0;
  double latency_p50_ms = 0.0;  ///< each slice's p50, over slices (see `rotate`)
  double latency_p95_ms = 0.0;  ///< each slice's p95, over slices (see `rotate`)
  double latency_p99_ms = 0.0;  ///< each slice's p99, over slices (see `rotate`)
  double send_lag_p50_ms = 0.0;
  double send_lag_p99_ms = 0.0;
  double send_ns = 0.0;     ///< total time in the send calls (encode + flush)
  double recv_ns = 0.0;     ///< total time decoding already-buffered frames
  double blocked_ns = 0.0;  ///< total time blocked in flush / waiting for frames
  long doorbells = 0;       ///< shm push-path doorbells
  long client_spans = 0;
  std::vector<std::vector<float>> kept;  ///< received scores by stream, in order

  // Serving process, over the client's timed phase.
  double cpu_s = 0.0;
  double cpu_us_per_sample = 0.0;  ///< CPU rate over slices / slice_sps
  double rss_mb = 0.0;
  varade::serve::RuntimeStats stats;
  varade::serve::RuntimeTelemetry telemetry;
  std::string metrics_text;
  long flush_stalls = 0;
};

/// Forks the client, serves until it is done, shuts the server down, and
/// returns both sides' measurements. Moves the threads of both processes
/// round the CPUs while the client sends, if cfg.rotate. Exits the process
/// on any failure. Must be called while this process runs no other thread.
DriveResult drive(varade::net::Server& server, const StreamSet& streams, const DriveConfig& cfg);

}  // namespace perfbench
