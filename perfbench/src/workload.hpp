// The benchmark's three workloads: what each replays, how it loads the
// daemon, and the set-up (data generation, fit, calibration, server
// construction) that precedes it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "varade/core/detector.hpp"
#include "varade/data/normalize.hpp"
#include "varade/data/timeseries.hpp"
#include "varade/net/server.hpp"

namespace perfbench {

using varade::Index;

enum class Transport { Uds, Tcp, Shm };
const char* to_string(Transport t);

struct WorkloadSpec {
  const char* name;
  bool varade;          ///< VARADE on the robot cell; otherwise GBRF on sine streams
  Index n_streams;
  Transport transport;
  bool paced;           ///< open loop at rate_hz per stream; otherwise closed loop
  Index chunk;          ///< closed loop: samples per stream per round trip
  Index window;         ///< closed loop: chunks in flight per stream
  Index frame_batch;    ///< closed loop: samples per SAMPLE_BATCH frame (1 = SAMPLE)
  double rate_hz;       ///< open loop: samples per second per stream
};

/// Looks a workload up by name; null when unknown.
const WorkloadSpec* find_workload(const std::string& name);

/// The streams a workload replays: stream s reads sources[source_of[s]]
/// cyclically, starting at offset_of[s], in raw (unnormalised) units.
struct StreamSet {
  std::vector<varade::data::MultivariateSeries> sources;
  std::vector<Index> source_of;
  std::vector<Index> offset_of;

  Index n_streams() const { return static_cast<Index>(source_of.size()); }
  Index n_channels() const { return sources.front().n_channels(); }
  const float* sample(Index stream, Index t) const;
  int label(Index stream, Index t) const;
  /// Samples per stream that together cover each source once: the streams
  /// sharing a source start spread over it.
  Index tile_length() const;
  /// Copies samples [t0, t0 + k) of `stream` as row-major [k, C] into dst.
  void copy_rows(Index stream, Index t0, Index k, float* dst) const;
};

/// A fitted detector with its normaliser and calibrated alarm threshold.
struct Model {
  std::unique_ptr<varade::core::AnomalyDetector> detector;
  varade::data::MinMaxNormalizer normalizer;
  varade::data::MultivariateSeries train;  ///< normalised training split
  float threshold = 0.0F;
};

/// Set-up: records the training data, fits and calibrates. The deployed
/// model is the same for every seed; only the inputs it scores vary.
Model fit_model(const WorkloadSpec& spec);

/// The workload's replay inputs, in raw units with labels, from `seed`.
StreamSet make_streams(const WorkloadSpec& spec, std::uint64_t seed);

/// Constructs the daemon at the program's defaults, its one listener bound
/// (`uds_path` names the Unix socket for Uds and the bootstrap socket for
/// Shm). No thread is started until run().
std::unique_ptr<varade::net::Server> make_server(Model& model, Index n_streams,
                                                 Transport transport,
                                                 const std::string& uds_path);

/// The endpoint a client uses to reach `server`.
varade::net::Endpoint endpoint_of(const varade::net::Server& server, Transport transport);

}  // namespace perfbench
