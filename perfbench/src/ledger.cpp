#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "varade/core/varade.hpp"
#include "varade/net/wire.hpp"
#include "varade/serve/runtime.hpp"
#include "varade/serve/scoring_engine.hpp"
#include "varade/tensor/rng.hpp"

namespace perfbench {

namespace {

using namespace varade;

/// Runs body() until `budget_s` of wall time has passed (at least once);
/// returns the iteration count and writes the elapsed nanoseconds.
template <class Body>
long timed_loop(double budget_s, double& elapsed_ns, Body&& body) {
  const std::int64_t start = now_ns();
  const auto stop = start + static_cast<std::int64_t>(budget_s * 1e9);
  long iters = 0;
  std::int64_t now = start;
  do {
    body();
    ++iters;
    now = now_ns();
  } while (now < stop);
  elapsed_ns = static_cast<double>(now - start);
  return iters;
}

/// `count` score_batch inputs of `rows` rows each, cut from the workload's
/// streams and normalised the way the engine does it: contexts [rows, C, T]
/// (channels-major, oldest sample first) and observations [rows, C]. Batches
/// follow the engine's order: one batch per group of `rows` streams, and the
/// next sample of every group in the following round.
struct Batches {
  std::vector<Tensor> contexts;
  std::vector<Tensor> observed;
};

Batches make_batches(const LedgerEnv& env, Index rows, int count) {
  const Index window = env.model.detector->context_window();
  const Index c = env.streams.n_channels();
  const Index n = env.streams.n_streams();
  std::vector<float> norm(static_cast<std::size_t>(c));
  Batches b;
  const Index groups = std::max<Index>(1, n / rows);
  for (int k = 0; k < count; ++k) {
    Tensor ctx({rows, c, window});
    Tensor obs({rows, c});
    for (Index r = 0; r < rows; ++r) {
      const Index s = ((k % groups) * rows + r) % n;
      const Index t = window + k / groups;
      for (Index j = 0; j < window; ++j) {
        env.model.normalizer.transform_sample(env.streams.sample(s, t - window + j), norm.data());
        for (Index ch = 0; ch < c; ++ch) ctx.data()[(r * c + ch) * window + j] = norm[ch];
      }
      env.model.normalizer.transform_sample(env.streams.sample(s, t), obs.data() + r * c);
    }
    b.contexts.push_back(std::move(ctx));
    b.observed.push_back(std::move(obs));
  }
  return b;
}

}  // namespace

LedgerRows ledger_rows(const LedgerEnv& env, Report& report) {
  constexpr int kRounds = 8;
  const double pass_s = env.budget_s / kRounds;
  core::AnomalyDetector& det = *env.model.detector;
  const Index n = env.streams.n_streams();
  const Index c = env.streams.n_channels();
  const Index window = det.context_window();
  const Index chunk = env.spec.chunk;  // samples per stream per round (paced: one tick)

  // Engine row: one default ScoringEngine fed the workload's round shape,
  // its contexts warmed first so every timed round scores.
  serve::ScoringEngine engine(det, env.model.normalizer);
  engine.add_streams(n);
  engine.set_threshold(env.model.threshold);
  for (Index s = 0; s < n; ++s)
    for (Index t = 0; t < window; ++t) engine.push(s, env.streams.sample(s, t), c);
  engine.step();
  const serve::EngineTelemetry before = engine.telemetry();
  const long calls0 = engine.forward_calls();
  Index engine_t = window;
  long engine_samples = 0;
  auto engine_pass = [&] {
    const int root = env.tracer.open("ledger.engine");
    long samples = 0;
    double elapsed = 0.0;
    timed_loop(pass_s, elapsed, [&] {
      for (Index s = 0; s < n; ++s)
        for (Index i = 0; i < chunk; ++i)
          engine.push(s, env.streams.sample(s, engine_t + i), c);
      const int span = env.tracer.open("ledger.engine.step", root);
      engine.step();
      env.tracer.close(span);
      engine_t += chunk;
      samples += n * chunk;
    });
    env.tracer.close(root);
    engine_samples += samples;
    return elapsed / static_cast<double>(samples);
  };

  // score_batch row, at the batch size the engine actually used. The rows
  // are distinct contexts in the engine's order, as in serving (a repeated
  // batch trains the branch predictor), and fit in L2 with room to spare, as
  // the engine's freshly gathered batch does.
  Index rows = 0;
  Batches batches;
  std::vector<float> out;
  std::size_t next_batch = 0;
  auto score_pass = [&] {
    const int root = env.tracer.open("ledger.core");
    long calls = 0;
    double elapsed = 0.0;
    calls = timed_loop(pass_s, elapsed, [&] {
      const int span = env.tracer.open("ledger.score_batch", root);
      det.score_batch(batches.contexts[next_batch], batches.observed[next_batch], out.data());
      env.tracer.close(span);
      next_batch = (next_batch + 1) % batches.contexts.size();
    });
    env.tracer.close(root);
    return elapsed / static_cast<double>(calls * rows);
  };

  // Runtime row: a fresh default AsyncScoringRuntime per pass, pushed the
  // workload's round shape from this thread, drained after every round. The
  // paced shape waits for each tick's scores before pushing the next tick,
  // as the scorer does under the paced load.
  std::vector<float> push_ns;
  Index runtime_t = window;
  auto runtime_pass = [&] {
    serve::AsyncScoringRuntime rt(det, env.model.normalizer);
    rt.add_streams(n);
    rt.set_threshold(env.model.threshold);
    rt.start();
    long drained = 0;
    for (Index s = 0; s < n; ++s)
      for (Index t = 0; t < window; ++t) rt.push(s, env.streams.sample(s, runtime_t + t), c);
    while (drained < n * window) drained += static_cast<long>(rt.drain_scores().size());
    runtime_t += window;
    long pushed = 0;
    long scored = 0;
    const int root = env.tracer.open("ledger.runtime");
    const std::int64_t start = now_ns();
    double elapsed = 0.0;
    timed_loop(pass_s, elapsed, [&] {
      for (Index s = 0; s < n; ++s) {
        for (Index i = 0; i < chunk; ++i) {
          const float* row = env.streams.sample(s, runtime_t + i);
          if ((pushed & 15) == 0) {  // time one push in 16
            const std::int64_t t0 = now_ns();
            rt.push(s, row, c);
            const std::int64_t t1 = now_ns();
            push_ns.push_back(static_cast<float>(t1 - t0));
            env.tracer.add("ledger.runtime.push", t0, t1, root,
                           span_id(s, static_cast<std::uint64_t>(runtime_t + i)));
          } else {
            rt.push(s, row, c);
          }
          ++pushed;
        }
      }
      // Yield between polls: a busy poll can hold the scorer's CPU.
      while (env.spec.paced && scored < pushed) {
        scored += static_cast<long>(rt.drain_scores().size());
        if (scored < pushed) std::this_thread::yield();
      }
      const int span = env.tracer.open("ledger.runtime.drain", root);
      scored += static_cast<long>(rt.drain_scores().size());
      env.tracer.close(span);
      runtime_t += chunk;
    });
    rt.close();  // scores what is still buffered: part of the pushed samples' cost
    scored += static_cast<long>(rt.drain_scores().size());
    const auto total_ns = static_cast<double>(now_ns() - start);
    env.tracer.close(root);
    if (scored != pushed)
      die("runtime ledger scored " + std::to_string(scored) + " of " + std::to_string(pushed) +
          " pushed samples");
    return total_ns / static_cast<double>(pushed);
  };

  // Interleaved passes, so a change in the host's speed during the ledger
  // shifts every row alike. The daemon run's threads visit every CPU (see
  // rotate_threads), so the single-threaded passes of round k run on the
  // k-th CPU, and each row is the mean of its passes; the runtime's two
  // threads go where the scheduler puts them.
  const std::vector<int> cpus = usable_cpus();
  std::vector<float> engine_ns, score_ns, runtime_ns;
  for (int round = 0; round < kRounds; ++round) {
    if (!cpus.empty()) pin_thread(0, cpus[static_cast<std::size_t>(round) % cpus.size()], cpus);
    engine_ns.push_back(static_cast<float>(engine_pass()));
    if (round == 0) {
      const long calls = engine.forward_calls() - calls0;
      rows = std::max<Index>(1, static_cast<Index>(std::lround(
                                    static_cast<double>(engine_samples) / static_cast<double>(calls))));
      const Index max_rows = std::max<Index>(rows, (256 << 10) / (c * window));  // 1 MiB
      batches = make_batches(env, rows, static_cast<int>(std::min<Index>(4096, max_rows) / rows));
      out.resize(static_cast<std::size_t>(rows));
    }
    score_ns.push_back(static_cast<float>(score_pass()));
    pin_thread(0, -1, cpus);
    runtime_ns.push_back(static_cast<float>(runtime_pass()));
  }

  LedgerRows r;
  r.score_batch = trimmed_mean(score_ns, 0.0);
  r.engine = trimmed_mean(engine_ns, 0.0);
  r.runtime = trimmed_mean(runtime_ns, 0.0);
  const serve::EngineTelemetry after = engine.telemetry();
  const double per = 1.0 / static_cast<double>(engine_samples);
  report.add("core.score_batch.ns_per_sample", r.score_batch, "ns");
  report.add("serve.engine.ns_per_sample", r.engine, "ns");
  for (int p = 0; p < serve::kStepPhases; ++p)
    report.add(std::string("serve.engine.") + serve::kStepPhaseName[p] + ".ns_per_sample",
               static_cast<double>(after.phases[p].sum - before.phases[p].sum) * per, "ns");
  report.add("serve.engine.rows_per_call",
             static_cast<double>(engine_samples) /
                 static_cast<double>(engine.forward_calls() - calls0),
             "rows");
  report.add("serve.runtime.ns_per_sample", r.runtime, "ns");
  report.add("serve.runtime.push.p99_ns", quantile(push_ns, 0.99), "ns");
  return r;
}

void ledger_nn(const LedgerEnv& env, Report& report) {
  constexpr Index kRows = 32;
  const Index c = env.streams.n_channels();
  core::VaradeModel* model = nullptr;
  std::unique_ptr<core::VaradeModel> stand_in;
  if (auto* varade = dynamic_cast<core::VaradeDetector*>(env.model.detector.get())) {
    model = varade->model();
  } else {
    // The workload serves no network: time an unfitted VARADE of the repro
    // architecture at this workload's channel count (cost does not depend on
    // the weights).
    core::VaradeConfig cfg;
    cfg.window = 32;
    cfg.base_channels = 16;
    Rng rng(1);
    stand_in = std::make_unique<core::VaradeModel>(c, cfg, rng);
    model = stand_in.get();
  }
  Tensor h = make_batches(env, kRows, 1).contexts[0];
  if (h.dim(2) != model->window()) die("nn ledger: context window mismatch");
  nn::Sequential& trunk = model->trunk();
  const double budget = env.budget_s / static_cast<double>(trunk.size() + 1);
  Shape shape{c, model->window()};
  double total_ns_row = 0.0;
  long total_flops = 0;
  const int root = env.tracer.open("ledger.nn");
  std::printf("\nnn roofline: VARADE trunk at [%ld, %ld, %ld], per row\n", static_cast<long>(kRows),
              static_cast<long>(c), static_cast<long>(model->window()));
  std::printf("  %-3s %-8s %-14s %12s %12s %10s\n", "i", "layer", "out shape", "flops", "ns", "GFLOP/s");
  auto row = [&](const std::string& label, const std::string& kind, const Shape& out, long flops,
                 double ns_row) {
    std::string dims;
    for (std::size_t d = 0; d < out.size(); ++d) {
      if (d > 0) dims += 'x';
      dims += std::to_string(out[d]);
    }
    std::printf("  %-3s %-8s %-14s %12ld %12.1f %10.3f\n", label.c_str(), kind.c_str(),
                dims.c_str(), flops, ns_row, ns_row > 0 ? static_cast<double>(flops) / ns_row : 0.0);
  };
  for (std::size_t i = 0; i < trunk.size(); ++i) {
    nn::Module& layer = trunk.layer(i);
    const long flops = layer.flops(shape);
    Tensor out = layer.forward_inference(h);
    const int span = env.tracer.open("ledger.nn.layer", root, i);
    double elapsed = 0.0;
    const long iters = timed_loop(budget, elapsed, [&] { out = layer.forward_inference(h); });
    env.tracer.close(span);
    const double ns_row = elapsed / static_cast<double>(iters * kRows);
    report.add("nn.trunk." + std::to_string(i) + ".ns_per_row", ns_row, "ns");
    shape = layer.output_shape(shape);
    row(std::to_string(i), layer.name(), shape, flops, ns_row);
    total_ns_row += ns_row;
    total_flops += flops;
    h = std::move(out);
  }
  const long head_flops = model->mu_head().flops(shape) + model->logvar_head().flops(shape);
  const int span = env.tracer.open("ledger.nn.heads", root);
  double elapsed = 0.0;
  const long iters = timed_loop(budget, elapsed, [&] {
    const Tensor mu = model->mu_head().forward_inference(h);
    const Tensor logvar = model->logvar_head().forward_inference(h);
  });
  env.tracer.close(span);
  env.tracer.close(root);
  const double heads_ns = elapsed / static_cast<double>(iters * kRows);
  report.add("nn.heads.ns_per_row", heads_ns, "ns");
  row("h", "heads", {c}, head_flops, heads_ns);
  total_ns_row += heads_ns;
  total_flops += head_flops;
  const double gflops = static_cast<double>(model->flops()) / total_ns_row;
  report.add("nn.gflops", gflops, "GFLOP/s");
  std::printf("  sum of layers %ld flops (VaradeModel::flops() %ld) in %.1f ns/row: %.3f GFLOP/s\n",
              total_flops, model->flops(), total_ns_row, gflops);
  if (stand_in == nullptr) {
    const edge::ModelCost cost = env.model.detector->cost();
    std::printf("  cost(): %.0f flops, %.0f param bytes, %.0f activation bytes per inference;"
                " measured %.2f flop/byte of weights at %.3f GFLOP/s\n",
                cost.flops, cost.param_bytes, cost.activation_bytes,
                cost.flops / cost.param_bytes, cost.flops / total_ns_row);
  } else {
    std::printf("  (unfitted stand-in: this workload's detector has no nn layers)\n");
  }
}

void ledger_normalize(const LedgerEnv& env, Report& report) {
  constexpr Index kRows = 4096;
  const Index c = env.streams.n_channels();
  const Index n = env.streams.n_streams();
  std::vector<float> in(static_cast<std::size_t>(kRows * c));
  std::vector<float> out(in.size());
  for (Index r = 0; r < kRows; ++r) {
    const float* row = env.streams.sample(r % n, r / n);
    std::copy(row, row + c, in.data() + r * c);
  }
  const int span = env.tracer.open("ledger.normalize");
  double elapsed = 0.0;
  const long iters = timed_loop(env.budget_s / 4, elapsed, [&] {
    env.model.normalizer.transform_rows(in.data(), kRows, out.data());
  });
  env.tracer.close(span);
  report.add("data.normalize.ns_per_sample", elapsed / static_cast<double>(iters * kRows), "ns");
}

void ledger_wire(const LedgerEnv& env, Report& report) {
  constexpr Index kSamples = 4096;
  const Index c = env.streams.n_channels();
  const Index fb = env.spec.frame_batch;
  std::vector<float> rows(static_cast<std::size_t>(kSamples * c));
  env.streams.copy_rows(0, 0, kSamples, rows.data());
  std::vector<std::uint8_t> bytes;
  auto encode = [&] {
    bytes.clear();
    for (Index off = 0; off < kSamples; off += fb) {
      const auto seq = static_cast<std::uint64_t>(off);
      if (fb > 1)
        net::append_sample_batch(bytes, 0, seq, rows.data() + off * c, fb, c);
      else
        net::append_sample(bytes, 0, seq, rows.data() + off * c, c);
    }
  };
  encode();
  const double up_bytes = static_cast<double>(bytes.size()) / kSamples;
  int span = env.tracer.open("ledger.wire.encode");
  double elapsed = 0.0;
  long iters = timed_loop(env.budget_s / 4, elapsed, encode);
  env.tracer.close(span);
  report.add("net.wire.encode.ns_per_sample", elapsed / static_cast<double>(iters * kSamples), "ns");

  net::FrameReader reader;
  net::Frame frame;
  net::SampleData one;
  net::SampleBatchData batch;
  long decoded = 0;
  span = env.tracer.open("ledger.wire.decode");
  iters = timed_loop(env.budget_s / 4, elapsed, [&] {
    reader.feed(bytes.data(), bytes.size());
    while (reader.next(frame)) {
      if (fb > 1) {
        net::decode_sample_batch(frame, c, batch);
        decoded += batch.valid;
      } else {
        net::decode_sample(frame, c, one);
        ++decoded;
      }
    }
  });
  env.tracer.close(span);
  if (decoded != iters * kSamples) die("wire ledger decoded a different sample count");
  report.add("net.wire.decode.ns_per_sample", elapsed / static_cast<double>(decoded), "ns");

  std::vector<std::uint8_t> score;
  net::append_score(score, 0, 0, 1.0F);
  report.add("net.wire.up.bytes_per_sample", up_bytes, "B");
  report.add("net.wire.down.bytes_per_sample", static_cast<double>(score.size()), "B");
}

}  // namespace perfbench
