// Live monitoring scenario: the paper's deployment loop (section 4.3) — a
// script continuously reads sensors, preprocesses, and calls the detector —
// recreated against the simulated cell.
//
// The detector is trained offline on a normal recording, an alarm threshold
// is calibrated on training scores (99.5th percentile), and a
// core::OnlineMonitor then consumes the live stream sample by sample,
// raising debounced alarms in real time. At the end the alarm log is
// compared with the ground-truth collision schedule.
//
// Three modes:
//   (default)            — everything in one process, as above.
//   --daemon <endpoint>  — train, then serve the detector over the wire
//                          (varade::net) until SIGINT or a SHUTDOWN frame.
//   --client <endpoint>  — run only the simulated cell; stream raw samples
//                          to a daemon and report the ALARM frames it sends
//                          back against the local ground truth.
// Split across two terminals, --daemon/--client is the paper's loop with the
// sensor script and the scoring engine in separate processes. Both modes
// score through the same alarm rules, so they report the same alarms.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>

#include "varade/core/monitor.hpp"
#include "varade/core/varade.hpp"
#include "varade/data/normalize.hpp"
#include "varade/net/client.hpp"
#include "varade/net/server.hpp"
#include "varade/robot/simulator.hpp"

namespace {

using namespace varade;

/// Shared sampling config so daemon and client agree on rates and seeds.
robot::SimulatorConfig base_sim_config() {
  robot::SimulatorConfig sim_cfg;
  sim_cfg.sample_rate_hz = 50.0;
  sim_cfg.seed = 11;
  sim_cfg.noise_seed = 111;
  return sim_cfg;
}

/// Offline phase: record a normal run, fit the normalizer and detector,
/// calibrate the alarm threshold (99.5th percentile of training scores).
struct Offline {
  data::MinMaxNormalizer normalizer;
  std::unique_ptr<core::VaradeDetector> detector;  // not movable by value
  float threshold = 0.0F;
};

core::VaradeConfig example_varade_config() {
  core::VaradeConfig cfg;
  cfg.window = 32;
  cfg.base_channels = 16;
  cfg.lambda = 1.0F;
  cfg.epochs = 12;
  cfg.learning_rate = 1e-3F;
  cfg.train_stride = 4;
  return cfg;
}

Offline train_offline() {
  robot::RobotCellSimulator train_sim(base_sim_config());
  const data::MultivariateSeries train_raw = train_sim.record(180.0);

  const core::VaradeConfig cfg = example_varade_config();
  Offline off;
  off.detector = std::make_unique<core::VaradeDetector>(cfg);
  off.normalizer.fit(train_raw);
  const data::MultivariateSeries train = off.normalizer.transform(train_raw);
  std::printf("offline: training VARADE on %ld samples...\n", train.length());
  off.detector->fit(train);

  off.threshold = core::calibrate_threshold(*off.detector, train, {});
  std::printf("offline: alarm threshold %.5f (99.5th percentile of train scores)\n",
              off.threshold);
  return off;
}

/// The live cell with its scheduled collisions — identical in every mode, so
/// the client-mode ground truth matches what the default mode sees.
robot::RobotCellSimulator make_live_sim() {
  robot::SimulatorConfig sim_cfg = base_sim_config();
  sim_cfg.noise_seed = 112;
  robot::RobotCellSimulator live_sim(sim_cfg);
  robot::CollisionScheduleConfig collisions;
  collisions.n_events = 8;
  collisions.experiment_duration = 120.0;
  collisions.seed = 113;
  live_sim.set_collision_schedule(robot::CollisionSchedule(collisions));
  return live_sim;
}

constexpr double kLiveSeconds = 120.0;

/// Ground truth of the live run, filled in as the simulation advances: the
/// time of every sample, its label, and the [first, last] sample range of
/// each collision event.
struct GroundTruth {
  std::vector<double> times;
  std::vector<bool> labels;
  std::vector<std::pair<Index, Index>> events;

  void add(const robot::RobotSample& sample) {
    const auto step = static_cast<Index>(labels.size());
    if (sample.label && (labels.empty() || !labels.back()))
      events.emplace_back(step, step);
    else if (sample.label)
      events.back().second = step;
    times.push_back(sample.time);
    labels.push_back(sample.label);
  }

  void print_alarm(Index onset, float score) const {
    const bool labelled = labels[static_cast<std::size_t>(onset)];
    std::printf("  t=%7.2fs  ALARM  score %.5f  (ground truth: %s)\n",
                times[static_cast<std::size_t>(onset)], score,
                labelled ? "collision" : "normal");
  }

  /// Alarm log vs ground truth: an event is detected when any alarm overlaps
  /// it.
  void print_summary(const std::vector<core::AnomalyEvent>& alarms) const {
    long on_labelled = 0;
    for (const core::AnomalyEvent& a : alarms)
      if (labels[static_cast<std::size_t>(a.onset_sample)]) ++on_labelled;
    long detected = 0;
    for (const auto& [first, last] : events) {
      for (const core::AnomalyEvent& a : alarms) {
        if (a.onset_sample <= last && a.last_sample >= first) {
          ++detected;
          break;
        }
      }
    }
    std::printf("\nsummary: %zu alarms raised, %ld on labelled samples; %ld / %zu collision "
                "events detected\n",
                alarms.size(), on_labelled, detected, events.size());
  }
};

net::Server* g_server = nullptr;
void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// --daemon: train, then hand the detector to a varade::net server and block
/// until SIGINT/SIGTERM or a client's SHUTDOWN frame.
int run_daemon(const std::string& endpoint_spec) {
  const net::Endpoint endpoint = net::parse_endpoint(endpoint_spec);
  Offline off = train_offline();

  net::ServerConfig config;
  if (endpoint.kind == net::Endpoint::Kind::Unix) {
    config.uds_path = endpoint.path;
  } else {
    config.tcp_host = endpoint.host;
    config.tcp_port = endpoint.port;
  }
  config.n_streams = 1;  // one robot cell
  config.threshold = off.threshold;
  net::Server server(*off.detector, off.normalizer, config);
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("daemon: serving 1 stream x %ld channels on %s (ctrl-C to stop)\n",
              static_cast<long>(data::kKukaChannelCount), net::to_string(endpoint).c_str());
  server.run();
  g_server = nullptr;
  std::printf("daemon: stopped\n");
  return 0;
}

/// --client: no model in this process at all — stream raw sensor samples to
/// the daemon and fold its ALARM frames back onto the local ground truth.
int run_client(const std::string& endpoint_spec) {
  const net::Endpoint endpoint = net::parse_endpoint(endpoint_spec);
  net::Client client(endpoint);
  if (client.n_channels() != data::kKukaChannelCount) {
    std::fprintf(stderr, "daemon serves %ld channels, the cell has %ld\n",
                 static_cast<long>(client.n_channels()),
                 static_cast<long>(data::kKukaChannelCount));
    return 1;
  }
  std::printf("client: connected to %s (threshold %.5f)\n", net::to_string(endpoint).c_str(),
              client.welcome().threshold);

  robot::RobotCellSimulator live_sim = make_live_sim();
  const double sample_rate = base_sim_config().sample_rate_hz;
  const auto n_steps = static_cast<Index>(kLiveSeconds * sample_rate);
  std::printf("client: streaming %ld samples (%.0f s at %.0f Hz)...\n\n",
              static_cast<long>(n_steps), kLiveSeconds, sample_rate);

  GroundTruth truth;
  std::vector<core::AnomalyEvent> alarms;
  Index scores_seen = 0;
  net::ClientEvent ev;
  auto handle = [&](const net::ClientEvent& e) {
    if (e.kind == net::ClientEvent::Kind::Score) {
      ++scores_seen;
    } else if (e.kind == net::ClientEvent::Kind::Alarm) {
      const auto onset = static_cast<Index>(e.alarm.onset_sample);
      const auto last = static_cast<Index>(e.alarm.last_sample);
      // The onset indexes the ground truth; a daemon can only name samples
      // this client already sent.
      if (onset < 0 || onset >= static_cast<Index>(truth.labels.size())) return;
      if (e.alarm.raised) {
        alarms.push_back({onset, last, e.alarm.peak_score});
        truth.print_alarm(onset, e.alarm.peak_score);
      } else if (!alarms.empty()) {
        alarms.back().last_sample = last;  // extension of the open event
      }
    }
  };

  for (Index step = 0; step < n_steps; ++step) {
    const robot::RobotSample sample = live_sim.step();
    truth.add(sample);
    client.send_sample(0, static_cast<std::uint64_t>(step), sample.channels.data());
    while (client.poll_event(ev, 0)) handle(ev);
  }
  client.flush();
  while (scores_seen < n_steps && client.poll_event(ev, 30000)) handle(ev);
  client.send_goodbye();
  truth.print_summary(alarms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace varade;

  if (argc == 3 && std::strcmp(argv[1], "--daemon") == 0) return run_daemon(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "--client") == 0) return run_client(argv[2]);
  if (argc != 1) {
    std::fprintf(stderr,
                 "usage: %s                     # in-process monitoring loop\n"
                 "       %s --daemon <endpoint> # train + serve over the wire\n"
                 "       %s --client <endpoint> # stream the cell to a daemon\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  Offline off = train_offline();
  core::OnlineMonitor monitor(*off.detector, off.normalizer);
  monitor.set_threshold(off.threshold);

  // Live phase: the monitoring loop.
  robot::RobotCellSimulator live_sim = make_live_sim();
  GroundTruth truth;
  monitor.on_event(
      [&truth](const core::AnomalyEvent& e) { truth.print_alarm(e.onset_sample, e.peak_score); });

  const double sample_rate = base_sim_config().sample_rate_hz;
  const auto n_steps = static_cast<Index>(kLiveSeconds * sample_rate);
  std::printf("live: monitoring %ld samples (%.0f s at %.0f Hz)...\n\n",
              static_cast<long>(n_steps), kLiveSeconds, sample_rate);
  for (Index step = 0; step < n_steps; ++step) {
    const robot::RobotSample sample = live_sim.step();
    truth.add(sample);
    monitor.push(sample.channels.data());
  }
  truth.print_summary(monitor.events());
  return 0;
}
