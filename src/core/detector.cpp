#include "varade/core/detector.hpp"

#include <algorithm>
#include <chrono>

#include "varade/core/monitor.hpp"
#include "varade/data/window.hpp"

namespace varade::core {

void AnomalyDetector::check_batch_args(const Tensor& contexts, const Tensor& observed) const {
  // Branch-then-fail (not check()): OnlineMonitor makes one call per sample,
  // so the passing path must not build message strings.
  if (contexts.rank() != 3)
    fail(name(), ": score_batch expects contexts [B, C, T], got ",
         shape_to_string(contexts.shape()));
  if (contexts.dim(2) != context_window())
    fail(name(), ": score_batch expects context length ", context_window(), ", got ",
         contexts.dim(2));
  if (observed.rank() != 2 || observed.dim(0) != contexts.dim(0) ||
      observed.dim(1) != contexts.dim(1))
    fail(name(), ": score_batch expects observed [", contexts.dim(0), ", ", contexts.dim(1),
         "], got ", shape_to_string(observed.shape()));
}

void AnomalyDetector::check_batch_channels(const Tensor& contexts, Index expected) const {
  if (contexts.dim(1) != expected)
    fail(name(), " score_batch expects ", expected, " channels, got ", contexts.dim(1));
}

Index AnomalyDetector::stream_state_floats(Index channels) const {
  Index floats = 0;
  if (__builtin_mul_overflow(channels, context_window(), &floats))
    fail(name(), ": stream state of ", channels, " channels overflows Index");
  return floats;
}

void AnomalyDetector::score_streams(const StreamBatch& batch, StreamScratch& scratch,
                                    float* out) {
  const Index window = context_window();
  const Index c = batch.channels;
  const Index row_floats = c * window;
  // Reuse the scratch tensors while the chunk shape repeats (full chunks).
  if (scratch.contexts.rank() != 3 || scratch.contexts.dim(0) != batch.rows ||
      scratch.contexts.dim(1) != c || scratch.contexts.dim(2) != window) {
    scratch.contexts = Tensor({batch.rows, c, window});
    scratch.observed = Tensor({batch.rows, c});
  }
  for (Index r = 0; r < batch.rows; ++r)
    write_context(batch.states[r], c, window, batch.seen[r] % window,
                  scratch.contexts.data() + r * row_floats);
  std::copy_n(batch.samples, static_cast<std::size_t>(batch.rows * c), scratch.observed.data());
  score_batch(scratch.contexts, scratch.observed, out);
}

void AnomalyDetector::advance_streams(const StreamBatch& batch, StreamScratch&) {
  const Index window = context_window();
  const Index c = batch.channels;
  for (Index r = 0; r < batch.rows; ++r) {
    // Sample k lives at time index k % T: while the ring fills that is the
    // next free slot, once warm it is the oldest sample's slot.
    const Index pos = batch.seen[r] % window;
    float* ring = batch.states[r];
    const float* x = batch.samples + r * c;
    for (Index ch = 0; ch < c; ++ch) ring[ch * window + pos] = x[ch];
  }
}

SeriesScores AnomalyDetector::score_series(const data::MultivariateSeries& test, Index stride,
                                           Index batch) {
  check(fitted(), name() + ": score_series before fit");
  check(stride >= 1, "stride must be >= 1");
  check(batch >= 1, "batch must be >= 1");
  const Index window = context_window();
  check(test.length() > window, name() + ": test series shorter than context window");

  SeriesScores out;
  for (Index t = window; t < test.length(); t += stride) out.times.push_back(t);
  const auto n_scores = static_cast<Index>(out.times.size());
  out.scores.resize(out.times.size());
  out.labels.reserve(out.times.size());
  for (Index t : out.times) out.labels.push_back(test.label(t));

  const Index c = test.n_channels();
  using Clock = std::chrono::steady_clock;
  double total_ms = 0.0;

  for (Index begin = 0; begin < n_scores; begin += batch) {
    const Index rows = std::min(batch, n_scores - begin);
    Tensor contexts({rows, c, window});
    Tensor observed({rows, c});
    for (Index r = 0; r < rows; ++r) {
      const Index t = out.times[static_cast<std::size_t>(begin + r)];
      const Tensor context = data::extract_context(test, t - 1, window);
      std::copy_n(context.data(), static_cast<std::size_t>(c * window),
                  contexts.data() + r * c * window);
      std::copy_n(test.sample(t), static_cast<std::size_t>(c), observed.data() + r * c);
    }

    const auto t0 = Clock::now();
    score_batch(contexts, observed, out.scores.data() + begin);
    const auto t1 = Clock::now();
    total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
  }
  out.mean_latency_ms = n_scores > 0 ? total_ms / static_cast<double>(n_scores) : 0.0;
  return out;
}

}  // namespace varade::core
