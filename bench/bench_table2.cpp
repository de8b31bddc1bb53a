// Reproduces the paper's Table 2: the six anomaly detectors on the two
// modelled Jetson boards, reporting CPU%, GPU%, RAM, GPU RAM, power, AUC-ROC
// and inference frequency next to the published values.
//
// AUC-ROC comes from detectors trained in this process on the simulated KUKA
// cell at the active profile's scale. The resource/frequency columns are
// edge-profiler estimates of the *paper-scale* architectures (those costs are
// static properties of the published configurations and do not require
// training the full-size models). Host wall-clock per inference of the
// trained (profile-scale) models is reported as an extra column.
//
// Usage: bench_table2 [--quick | --paper]
#include "bench_common.hpp"

#include "varade/edge/profiler.hpp"

namespace {

using namespace varade;

void print_board(const edge::DeviceSpec& spec, bool is_nx,
                 const std::vector<core::DetectorRun>& runs) {
  const edge::EdgeProfiler profiler(spec);
  std::printf("\n=== %s ===\n", spec.name.c_str());
  std::printf("%-18s %7s %7s %9s %9s %7s | %7s %7s | %9s %9s | %9s\n", "Detector", "CPU%%",
              "GPU%%", "RAM MB", "gRAM MB", "Power W", "AUC", "(paper)", "Est Hz", "(paper)",
              "Host Hz");
  bench::print_rule();

  // Idle row (copied into the device spec from the paper).
  std::printf("%-18s %7.1f %7.1f %9.1f %9.1f %7.2f | %7s %7s | %9s %9s | %9s\n", "Idle",
              spec.idle_cpu_util_pct, spec.idle_gpu_util_pct, spec.idle_ram_mb,
              spec.idle_gpu_ram_mb, spec.idle_power_w, "-", "-", "-", "-", "-");

  for (const core::DetectorRun& run : runs) {
    const edge::ModelCost paper_cost = core::paper_model_cost(run.detector);
    const edge::EstimatedPerformance perf = profiler.estimate(paper_cost);
    const bench::PaperTable2Row& paper = bench::paper_row(run.detector);
    std::printf("%-18s %7.1f %7.1f %9.1f %9.1f %7.2f | %7.3f %7.3f | %9.2f %9.2f | %9.1f\n",
                run.detector.c_str(), perf.cpu_util_pct, perf.gpu_util_pct, perf.ram_mb,
                perf.gpu_ram_mb, perf.power_w, run.auc_roc, is_nx ? paper.nx_auc : paper.orin_auc,
                perf.inference_hz, is_nx ? paper.nx_hz : paper.orin_hz, run.host_inference_hz);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  const core::Profile profile = bench::select_profile(opt);

  std::printf("bench_table2: profile '%s' — train %.0fs @ %.0f Hz, test %.0fs, %d collisions\n",
              profile.name.c_str(), profile.train_duration_s, profile.sample_rate_hz,
              profile.test_duration_s, profile.n_collisions);

  const core::ExperimentData& data = bench::shared_experiment(profile);
  std::printf("dataset: train %ld samples, test %ld samples (%.1f%% anomalous, %d events)\n",
              data.train.length(), data.test.length(),
              100.0 * static_cast<double>(data.test.count_anomalous_samples()) /
                  static_cast<double>(data.test.length()),
              data.n_collision_events);

  std::vector<varade::core::DetectorRun> runs;
  for (const std::string& name : varade::core::detector_names()) {
    std::printf("training %s...\n", name.c_str());
    std::fflush(stdout);
    runs.push_back(varade::core::run_detector(name, data, profile));
    std::printf("  %-18s AUC %.3f  train %.1fs  host %.2f Hz\n", name.c_str(),
                runs.back().auc_roc, runs.back().train_seconds, runs.back().host_inference_hz);
    std::fflush(stdout);
  }

  print_board(varade::edge::jetson_xavier_nx(), true, runs);
  print_board(varade::edge::jetson_agx_orin(), false, runs);

  std::printf(
      "\nNotes: resource and frequency columns estimate the paper-scale architectures on the\n"
      "modelled boards (calibrated against the published idle rows); AUC is measured on the\n"
      "simulated KUKA collision experiment at the active profile's scale (repro VARADE uses\n"
      "lambda = 1, not the paper's 0.01; see bench_ablation_lambda).\n");
  return 0;
}
