#include "workload.hpp"

#include <cmath>

#include "common.hpp"
#include "varade/core/monitor.hpp"
#include "varade/core/profiles.hpp"
#include "varade/robot/simulator.hpp"
#include "varade/tensor/rng.hpp"

namespace perfbench {

namespace {

using namespace varade;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      // The paper's deployment: model-bound.
      {"varade-cell", true, 16, Transport::Uds, false, 64, 1, 64, 0.0},
      // A cheap detector: bound by the serving stack around it. Two chunks
      // per stream in flight keep the scorer busy while the client refills.
      {"gbrf-imu", false, 256, Transport::Uds, false, 64, 2, 64, 0.0},
      // Sensors at the paper's 200 Hz on one clock, one SAMPLE frame per
      // sample over TCP: a tick's 16 samples take about a quarter of the
      // 5 ms period to score, which leaves room for a slow host.
      {"varade-paced", true, 16, Transport::Tcp, true, 1, 1, 1, 200.0},
  };
  return all;
}

/// VARADE at the repro profile's architecture (86 channels, window 32,
/// base_channels 16) with the training budget cut to two epochs over two
/// minutes of normal operation, so one set-up takes well under a second.
/// The collision experiment is ten minutes with a collision every ten
/// seconds: long enough that the AUC of one seed's recording varies little
/// from the next.
core::Profile varade_profile() {
  core::Profile p = core::repro_profile();
  p.train_duration_s = 120.0;
  p.varade.epochs = 2;
  p.test_duration_s = 600.0;
  p.n_collisions = 60;
  return p;
}

/// The simulated robot cell as core::generate_experiment_data records it:
/// the profile's action library, with the given sensor-noise seed.
robot::SimulatorConfig cell(const core::Profile& p, std::uint64_t noise_seed) {
  robot::SimulatorConfig sim;
  sim.sample_rate_hz = p.sample_rate_hz;
  sim.seed = p.seed;
  sim.noise_seed = noise_seed;
  return sim;
}

/// GBRF at the serving benches' tiny configuration.
core::Profile gbrf_profile() {
  core::Profile p = core::repro_profile();
  p.gbrf.window = 32;
  p.gbrf.feature_steps = 4;
  p.gbrf.forest.n_trees = 8;
  p.gbrf.forest.tree.max_depth = 3;
  return p;
}

/// A 3-channel noisy sine cell with a 15-sample high-noise burst every 250
/// samples (label 1 inside the burst).
data::MultivariateSeries make_sine(Index length, std::uint64_t seed) {
  Rng rng(seed);
  data::MultivariateSeries s(3);
  std::vector<float> row(3);
  for (Index t = 0; t < length; ++t) {
    const bool anomalous = (t % 250) >= 200 && (t % 250) < 215;
    for (Index c = 0; c < 3; ++c)
      row[static_cast<std::size_t>(c)] =
          std::sin(0.05F * static_cast<float>(t) + static_cast<float>(c)) +
          rng.normal(0.0F, anomalous ? 0.9F : 0.03F);
    s.append(row, anomalous ? 1 : 0);
  }
  return s;
}

}  // namespace

const char* to_string(Transport t) {
  switch (t) {
    case Transport::Uds: return "uds";
    case Transport::Tcp: return "tcp";
    case Transport::Shm: return "shm";
  }
  return "?";
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

const float* StreamSet::sample(Index stream, Index t) const {
  const auto& src = sources[static_cast<std::size_t>(source_of[static_cast<std::size_t>(stream)])];
  return src.sample((offset_of[static_cast<std::size_t>(stream)] + t) % src.length());
}

int StreamSet::label(Index stream, Index t) const {
  const auto& src = sources[static_cast<std::size_t>(source_of[static_cast<std::size_t>(stream)])];
  return src.label((offset_of[static_cast<std::size_t>(stream)] + t) % src.length());
}

Index StreamSet::tile_length() const {
  const auto sharing = n_streams() / static_cast<Index>(sources.size());
  return sources.front().length() / sharing;
}

void StreamSet::copy_rows(Index stream, Index t0, Index k, float* dst) const {
  const Index c = n_channels();
  for (Index i = 0; i < k; ++i) {
    const float* row = sample(stream, t0 + i);
    std::copy(row, row + c, dst + i * c);
  }
}

Model fit_model(const WorkloadSpec& spec) {
  Model m;
  data::MultivariateSeries train_raw;
  core::Profile profile;
  if (spec.varade) {
    // Normal operation of the cell (no collisions), as the training split of
    // core::generate_experiment_data.
    profile = varade_profile();
    robot::RobotCellSimulator sim(cell(profile, profile.seed * 1000 + 1));
    train_raw = sim.record(profile.train_duration_s);
  } else {
    profile = gbrf_profile();
    train_raw = make_sine(1200, 1);
  }
  m.normalizer.fit(train_raw);
  m.train = m.normalizer.transform(train_raw);
  m.detector = core::make_detector(profile, spec.varade ? "VARADE" : "GBRF");
  m.detector->fit(m.train);
  m.threshold = core::calibrate_threshold(*m.detector, m.train, {});
  return m;
}

StreamSet make_streams(const WorkloadSpec& spec, std::uint64_t seed) {
  StreamSet set;
  if (spec.varade) {
    // A collision experiment on the same cell, as the test split of
    // core::generate_experiment_data, with its noise and its collision
    // schedule drawn from `seed`; each stream replays it from its own offset.
    const core::Profile profile = varade_profile();
    robot::RobotCellSimulator sim(cell(profile, seed * 1000 + 2));
    robot::CollisionScheduleConfig collisions;
    collisions.n_events = profile.n_collisions;
    collisions.experiment_duration = profile.test_duration_s;
    collisions.seed = seed * 1000 + 3;
    sim.set_collision_schedule(robot::CollisionSchedule(collisions));
    set.sources.push_back(sim.record(profile.test_duration_s));
    Rng rng(seed * 7919 + 11);
    const Index len = set.sources.front().length();
    for (Index s = 0; s < spec.n_streams; ++s) {
      set.source_of.push_back(0);
      set.offset_of.push_back(
          (s * len / spec.n_streams + static_cast<Index>(rng.uniform(0.0F, 500.0F))) % len);
    }
  } else {
    // One sine series per stream, each from its own seed.
    for (Index s = 0; s < spec.n_streams; ++s) {
      set.sources.push_back(make_sine(4000, seed * 7919 + 100 + static_cast<std::uint64_t>(s)));
      set.source_of.push_back(s);
      set.offset_of.push_back(0);
    }
  }
  return set;
}

std::unique_ptr<net::Server> make_server(Model& model, Index n_streams, Transport transport,
                                         const std::string& uds_path) {
  net::ServerConfig config;  // program defaults for every tuning knob
  switch (transport) {
    case Transport::Uds: config.uds_path = uds_path; break;
    case Transport::Shm: config.shm_path = uds_path; break;
    case Transport::Tcp: config.tcp_port = 0; break;
  }
  config.n_streams = n_streams;
  config.threshold = model.threshold;
  return std::make_unique<net::Server>(*model.detector, model.normalizer, config);
}

net::Endpoint endpoint_of(const net::Server& server, Transport transport) {
  net::Endpoint e;
  switch (transport) {
    case Transport::Uds:
      e.kind = net::Endpoint::Kind::Unix;
      e.path = server.uds_path();
      break;
    case Transport::Shm:
      e.kind = net::Endpoint::Kind::Shm;
      e.path = server.shm_path();
      break;
    case Transport::Tcp:
      e.kind = net::Endpoint::Kind::Tcp;
      e.host = "127.0.0.1";
      e.port = server.tcp_port();
      break;
  }
  return e;
}

}  // namespace perfbench
