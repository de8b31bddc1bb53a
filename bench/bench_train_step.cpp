// Training-step cost of the VARADE model, phase by phase: the training
// forward (with the activation caches), the backward and the Adam update, in
// milliseconds per batch of 32 windows on 86 channels (the robot cell's
// channel count), at three sizes: the repro profile (T 32, base 16), T 128 /
// base 64, and the paper's architecture (T 512, base 128). Each phase is the
// median over the timed repetitions after one untimed warm-up step. The loss
// and zero_grad() run between the phases untimed.
//
//   ./build/bench/bench_train_step           # all three sizes (~10 s)
//   ./build/bench/bench_train_step --quick   # the repro size only (CI smoke)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "varade/core/varade.hpp"
#include "varade/nn/layers.hpp"
#include "varade/nn/loss.hpp"
#include "varade/nn/optimizer.hpp"

namespace {

using namespace varade;
using Clock = std::chrono::steady_clock;

constexpr Index kBatch = 32;
constexpr Index kChannels = 86;

struct Size {
  const char* name;
  Index window;
  Index base_channels;
  int reps;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void run(const Size& size) {
  core::VaradeConfig config;
  config.window = size.window;
  config.base_channels = size.base_channels;
  Rng rng(1);
  core::VaradeModel model(kChannels, config, rng);
  const std::vector<nn::Parameter*> params = model.parameters();
  nn::Adam optimizer(config.learning_rate);
  const Tensor contexts = Tensor::randn({kBatch, kChannels, size.window}, rng);
  const Tensor targets = Tensor::randn({kBatch, kChannels}, rng);

  std::vector<double> forward_ms;
  std::vector<double> backward_ms;
  std::vector<double> adam_ms;
  for (int rep = 0; rep <= size.reps; ++rep) {  // rep 0 is the warm-up
    model.zero_grad();
    auto start = Clock::now();
    const core::VaradeModel::Output out = model.forward(contexts);
    const double f = ms_since(start);
    const nn::VariationalLossResult loss =
        nn::elbo_loss(out.mu, out.logvar, targets, config.lambda);
    start = Clock::now();
    model.backward(loss.grad_mu, loss.grad_logvar);
    const double b = ms_since(start);
    start = Clock::now();
    optimizer.step(params);
    const double a = ms_since(start);
    if (rep == 0) continue;
    forward_ms.push_back(f);
    backward_ms.push_back(b);
    adam_ms.push_back(a);
  }
  std::printf("%-26s %9ld %12.3f %12.3f %10.3f %5d\n", size.name, model.num_params(),
              median(forward_ms), median(backward_ms), median(adam_ms), size.reps);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (argc > 1 && !quick) {
    std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
    return 2;
  }
  std::vector<Size> sizes = {{"repro (T 32, base 16)", 32, 16, 50},
                             {"T 128, base 64", 128, 64, 8},
                             {"paper (T 512, base 128)", 512, 128, 3}};
  if (quick) sizes = {{"repro (T 32, base 16)", 32, 16, 5}};
  std::printf("VARADE training step, batch %ld x %ld channels, kernels: %s\n", kBatch, kChannels,
              nn::conv1d_kernel_name());
  std::printf("%-26s %9s %12s %12s %10s %5s\n", "size", "params", "forward_ms", "backward_ms",
              "adam_ms", "reps");
  for (const Size& size : sizes) run(size);
  return 0;
}
