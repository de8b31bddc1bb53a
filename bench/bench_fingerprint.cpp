// Training fingerprint: the exact bits a build trains and scores.
//
// Trains all six detectors at the tiny serving profile on the synthetic sine
// cell, then prints each neural detector's per-epoch loss as hex floats, a
// hash of every detector's score_series output, and a hash of a short robot
// cell recording. Two builds whose outputs `diff` clean train, score and
// simulate bit for bit; `./ci.sh --numeric` compares the default build with
// an -march=x86-64-v3 build this way.
//
//   ./build/bench/bench_fingerprint > fingerprint.txt
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "varade/core/baselines/ar_lstm.hpp"
#include "varade/core/baselines/autoencoder.hpp"
#include "varade/core/varade.hpp"
#include "varade/robot/simulator.hpp"

namespace {

using namespace varade;

/// FNV-1a over the bytes of `values`.
std::uint64_t hash_floats(const std::vector<float>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

const std::vector<float>* loss_history(core::AnomalyDetector& det) {
  if (auto* v = dynamic_cast<core::VaradeDetector*>(&det)) return &v->loss_history();
  if (auto* a = dynamic_cast<core::ArLstmDetector*>(&det)) return &a->loss_history();
  if (auto* e = dynamic_cast<core::AutoencoderDetector*>(&det)) return &e->loss_history();
  return nullptr;
}

}  // namespace

int main() {
  const core::Profile profile = bench::tiny_serve_profile();
  const data::MultivariateSeries train = bench::make_sine(1500, 11);
  const data::MultivariateSeries test = bench::make_sine(600, 12);
  for (const std::string& name : core::detector_names()) {
    auto det = core::make_detector(profile, name);
    det->fit(train);
    if (const std::vector<float>* losses = loss_history(*det)) {
      std::printf("%s loss", name.c_str());
      for (const float l : *losses) std::printf(" %a", static_cast<double>(l));
      std::printf("\n");
    }
    const core::SeriesScores scores = det->score_series(test);
    std::printf("%s scores %zu %016llx\n", name.c_str(), scores.scores.size(),
                static_cast<unsigned long long>(hash_floats(scores.scores)));
  }

  robot::SimulatorConfig sim_cfg;
  sim_cfg.sample_rate_hz = 50.0;
  robot::RobotCellSimulator sim(sim_cfg);
  const data::MultivariateSeries recording = sim.record(/*duration_s=*/20.0);
  std::printf("simulator %ldx%ld %016llx\n", recording.length(), recording.n_channels(),
              static_cast<unsigned long long>(hash_floats(recording.raw())));
  return 0;
}
