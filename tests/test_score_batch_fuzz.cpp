// Fuzzing harness for the batched scoring contract.
//
// score_batch is the only way a detector scores. This suite pins the
// contract the batched frontends (score_series, threshold calibration,
// serve::ScoringEngine) and OnlineMonitor's 1-row calls depend on, against
// seeded-random inputs rather than the well-behaved series the other parity
// suites use:
//  1. score_batch at batch sizes {1, 2, 5, 31, 64, 257} == 1-row score_batch
//     calls to the last bit on random contexts/observations;
//  2. the same parity holds after clone_fitted() (replicas share no state
//     with the original, so a drifting copy would surface here);
//  3. edge cases of the native paths: B = 0 is a no-op, a mismatched channel
//     count and a context shorter than the window throw with the
//     "expects N ... got M" wording;
//  4. the convolution kernel dispatch table actually selects the vectorised
//     kernel on AVX2 hosts, including sanitized builds (this suite carries
//     the parity label, so ci.sh runs it under ASan/UBSan);
//  5. streamed VARADE inference (one new column per conv layer per sample,
//     kept in per-stream state by serve::ScoringEngine) scores every sample
//     exactly like a full-window 1-row score_batch call, across windows of
//     2-5 conv layers, with and without channel doubling, ragged stream
//     starts, ring wrap-around, exact zeros and large inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "varade/core/profiles.hpp"
#include "varade/core/varade.hpp"
#include "varade/data/normalize.hpp"
#include "varade/nn/layers.hpp"
#include "varade/serve/scoring_engine.hpp"

namespace varade::core {
namespace {

constexpr Index kChannels = 3;

data::MultivariateSeries make_sine(Index length, std::uint64_t seed) {
  Rng rng(seed);
  data::MultivariateSeries s(kChannels);
  std::vector<float> row(static_cast<std::size_t>(kChannels));
  for (Index t = 0; t < length; ++t) {
    for (Index c = 0; c < kChannels; ++c) {
      row[static_cast<std::size_t>(c)] =
          std::sin(0.05F * static_cast<float>(t) + static_cast<float>(c)) +
          rng.normal(0.0F, 0.03F);
    }
    s.append(row);
  }
  return s;
}

/// Tiny-footprint configurations of all six detectors (fit must stay fast;
/// the scoring contract under test is size-independent).
Profile tiny_profile() {
  Profile p = repro_profile();
  p.varade.window = 16;
  p.varade.base_channels = 8;
  p.varade.epochs = 2;
  p.varade.learning_rate = 1e-3F;
  p.varade.train_stride = 4;

  p.ar_lstm.window = 16;
  p.ar_lstm.hidden = 8;
  p.ar_lstm.n_layers = 2;  // two stacked LSTMs so the batched path chains
  p.ar_lstm.epochs = 1;
  p.ar_lstm.learning_rate = 1e-3F;
  p.ar_lstm.train_stride = 8;

  p.gbrf.window = 16;
  p.gbrf.feature_steps = 4;
  p.gbrf.forest.n_trees = 5;
  p.gbrf.forest.tree.max_depth = 3;

  p.ae.window = 16;
  p.ae.base_channels = 8;
  p.ae.epochs = 1;
  p.ae.learning_rate = 1e-3F;
  p.ae.train_stride = 8;

  p.knn.max_reference_points = 400;
  p.iforest.forest.n_trees = 25;
  p.iforest.forest.subsample = 64;
  return p;
}

/// All six detectors fitted once on a shared synthetic recording (fitting
/// dominates the runtime of this binary; every test only scores).
struct DetectorRig {
  data::MultivariateSeries train_raw = make_sine(600, 1);
  data::MinMaxNormalizer normalizer;
  data::MultivariateSeries train;
  Profile profile = tiny_profile();
  std::vector<std::unique_ptr<AnomalyDetector>> detectors;

  DetectorRig() {
    normalizer.fit(train_raw);
    train = normalizer.transform(train_raw);
    for (const std::string& name : detector_names()) {
      detectors.push_back(make_detector(profile, name));
      detectors.back()->fit(train);
    }
  }
};

DetectorRig& rig() {
  static DetectorRig* r = new DetectorRig();
  return *r;
}

const std::vector<Index>& fuzz_batch_sizes() {
  static const std::vector<Index> sizes = {1, 2, 5, 31, 64, 257};
  return sizes;
}

/// Seeded-random (contexts, observations) in roughly the normalised data
/// range, with occasional out-of-range excursions so the fuzz also covers
/// values the detectors never trained on.
void random_pairs(Index rows, Index window, std::uint64_t seed, Tensor& contexts,
                  Tensor& observed) {
  Rng rng(seed);
  contexts = Tensor({rows, kChannels, window});
  for (Index i = 0; i < contexts.numel(); ++i)
    contexts[i] = rng.bernoulli(0.05) ? rng.normal(0.0F, 3.0F) : rng.uniform(0.0F, 1.0F);
  observed = Tensor({rows, kChannels});
  for (Index i = 0; i < observed.numel(); ++i)
    observed[i] = rng.bernoulli(0.05) ? rng.normal(0.0F, 3.0F) : rng.uniform(0.0F, 1.0F);
}

/// One 1-row score_batch call per row (what OnlineMonitor runs per sample) —
/// the reference the batch must match.
std::vector<float> single_row_scores(AnomalyDetector& detector, const Tensor& contexts,
                                     const Tensor& observed) {
  const Index rows = contexts.dim(0);
  std::vector<float> out(static_cast<std::size_t>(rows));
  for (Index r = 0; r < rows; ++r)
    detector.score_batch(contexts.slice0(r, r + 1), observed.slice0(r, r + 1),
                         &out[static_cast<std::size_t>(r)]);
  return out;
}

/// Bitwise float comparison: EXPECT_EQ would accept -0.0f == 0.0f and reject
/// identical NaNs; the contract is "the same bits".
void expect_bit_equal(const std::vector<float>& got, const std::vector<float>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t g = 0;
    std::uint32_t w = 0;
    std::memcpy(&g, &got[i], sizeof(g));
    std::memcpy(&w, &want[i], sizeof(w));
    EXPECT_EQ(g, w) << label << " row " << i << " (" << got[i] << " vs " << want[i] << ")";
  }
}

TEST(ScoreBatchFuzz, RandomContextsMatchSingleRowToTheLastBit) {
  std::uint64_t seed = 1000;
  for (auto& detector : rig().detectors) {
    const Index window = detector->context_window();
    for (const Index batch : fuzz_batch_sizes()) {
      Tensor contexts;
      Tensor observed;
      random_pairs(batch, window, seed++, contexts, observed);
      const std::vector<float> reference = single_row_scores(*detector, contexts, observed);
      std::vector<float> scores(static_cast<std::size_t>(batch), -1.0F);
      detector->score_batch(contexts, observed, scores.data());
      expect_bit_equal(scores, reference,
                       detector->name() + " batch " + std::to_string(batch));
    }
  }
}

TEST(ScoreBatchFuzz, ClonedReplicasKeepBitParityOnRandomContexts) {
  std::uint64_t seed = 5000;
  for (auto& detector : rig().detectors) {
    const std::unique_ptr<AnomalyDetector> clone = detector->clone_fitted();
    ASSERT_NE(clone, nullptr) << detector->name();
    const Index window = detector->context_window();
    for (const Index batch : fuzz_batch_sizes()) {
      Tensor contexts;
      Tensor observed;
      random_pairs(batch, window, seed++, contexts, observed);
      const std::vector<float> reference = single_row_scores(*detector, contexts, observed);
      std::vector<float> scores(static_cast<std::size_t>(batch), -1.0F);
      clone->score_batch(contexts, observed, scores.data());
      expect_bit_equal(scores, reference,
                       detector->name() + " clone batch " + std::to_string(batch));
    }
  }
}

TEST(KernelDispatch, SelectedConvKernelMatchesHostCpu) {
  // The dispatch table must pick the AVX2+FMA kernels whenever the host
  // supports both — in particular under TSan/ASan, where the previous
  // target_clones ifunc machinery silently pinned the build to the scalar
  // kernel.
  const std::string kernel = nn::conv1d_kernel_name();
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    EXPECT_EQ(kernel, "avx2+fma");
  } else {
    EXPECT_EQ(kernel, "portable");
  }
#else
  EXPECT_EQ(kernel, "portable");
#endif
}

TEST(ScoreBatchEdgeCases, EmptyBatchIsANoOpForEveryDetector) {
  for (auto& detector : rig().detectors) {
    const Index window = detector->context_window();
    float sentinel = 42.0F;
    EXPECT_NO_THROW(detector->score_batch(Tensor({0, kChannels, window}),
                                          Tensor({0, kChannels}), &sentinel))
        << detector->name();
    EXPECT_EQ(sentinel, 42.0F) << detector->name() << " wrote past an empty batch";
  }
}

TEST(ScoreBatchEdgeCases, MismatchedChannelCountThrowsWithExpectsGotWording) {
  for (auto& detector : rig().detectors) {
    const Index window = detector->context_window();
    std::vector<float> out(2);
    const Tensor contexts({2, kChannels + 2, window});
    const Tensor observed({2, kChannels + 2});
    const std::string name = detector->name();
    try {
      detector->score_batch(contexts, observed, out.data());
      FAIL() << name << " did not throw";
    } catch (const Error& e) {
      // Every detector reports the mismatch in the shared
      // "expects N channels, got M" wording of check_batch_channels.
      const std::string message = e.what();
      EXPECT_NE(message.find("expects 3 channels, got 5"), std::string::npos)
          << name << " message: " << message;
    }
  }
}

TEST(ScoreBatchEdgeCases, ContextShorterThanWindowThrowsWithExpectsGotWording) {
  for (auto& detector : rig().detectors) {
    const Index window = detector->context_window();
    std::vector<float> out(2);
    const Tensor contexts({2, kChannels, window - 1});
    const Tensor observed({2, kChannels});
    try {
      detector->score_batch(contexts, observed, out.data());
      FAIL() << detector->name() << " did not throw";
    } catch (const Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("expects context length " + std::to_string(window) + ", got " +
                             std::to_string(window - 1)),
                std::string::npos)
          << detector->name() << " message: " << message;
    }
  }
}

/// Raw fuzz samples for the streamed path: mostly uniform in the normaliser's
/// [-1, 1] range, with exact zeros (which normalise to exactly 0) and large
/// excursions far outside the training range.
std::vector<float> streamed_fuzz_samples(Index length, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> raw(static_cast<std::size_t>(length * kChannels));
  for (float& v : raw) {
    const float u = rng.uniform(0.0F, 1.0F);
    if (u < 0.1F)
      v = 0.0F;
    else if (u < 0.13F)
      v = rng.bernoulli(0.5) ? rng.uniform(1e3F, 1e6F) : -rng.uniform(1e3F, 1e6F);
    else
      v = rng.uniform(-1.0F, 1.0F);
  }
  return raw;
}

TEST(StreamedVarade, EngineScoresEqualFullWindowScoreBatchToTheLastBit) {
  // Fitted on a series spanning exactly [-1, 1] per channel, so a raw 0
  // normalises to an exact 0.
  data::MultivariateSeries span(kChannels);
  span.append(std::vector<float>(kChannels, -1.0F));
  span.append(std::vector<float>(kChannels, 1.0F));
  data::MinMaxNormalizer normalizer;
  normalizer.fit(span);

  std::uint64_t seed = 9000;
  for (const Index window : {8, 16, 32, 64}) {
    for (const bool doubling : {true, false}) {
      VaradeDetector detector({.window = window,
                               .base_channels = 4,
                               .channel_doubling = doubling,
                               .epochs = 1,
                               .learning_rate = 1e-3F,
                               .train_stride = 16});
      detector.fit(rig().train);
      for (const Index n_streams : {1, 7, 16}) {
        const std::string label = "window " + std::to_string(window) + " doubling " +
                                  std::to_string(doubling) + " streams " +
                                  std::to_string(n_streams);
        // Ragged starts: stream s joins at round start[s]; every stream sees
        // at least 4 * T samples, so every layer ring wraps several times.
        std::vector<Index> start(static_cast<std::size_t>(n_streams));
        std::vector<Index> length(start.size());
        std::vector<std::vector<float>> raw(start.size());
        Index rounds = 0;
        for (Index s = 0; s < n_streams; ++s) {
          const auto si = static_cast<std::size_t>(s);
          start[si] = (s * 5) % 13;
          length[si] = 4 * window + 1 + (s * 3) % 7;
          raw[si] = streamed_fuzz_samples(length[si], seed++);
          rounds = std::max(rounds, start[si] + length[si]);
        }

        // max_batch 5: several chunks per round, the last one ragged. A step
        // every third round also covers multi-round steps.
        serve::ScoringEngine engine(detector, normalizer, {.max_batch = 5});
        engine.add_streams(n_streams);
        engine.set_threshold(0.0F);
        std::vector<std::vector<float>> streamed(start.size());
        for (Index round = 0; round < rounds; ++round) {
          for (Index s = 0; s < n_streams; ++s) {
            const auto si = static_cast<std::size_t>(s);
            const Index t = round - start[si];
            if (t >= 0 && t < length[si]) engine.push(s, raw[si].data() + t * kChannels, kChannels);
          }
          if (round % 3 == 2 || round + 1 == rounds)
            for (const serve::StreamScore& sc : engine.step()) {
              auto& scores = streamed[static_cast<std::size_t>(sc.stream)];
              ASSERT_EQ(static_cast<Index>(scores.size()), sc.sample) << label;
              scores.push_back(sc.score);
            }
        }

        for (Index s = 0; s < n_streams; ++s) {
          const auto si = static_cast<std::size_t>(s);
          ASSERT_EQ(static_cast<Index>(streamed[si].size()), length[si]) << label;
          std::vector<float> norm(raw[si].size());
          normalizer.transform_rows(raw[si].data(), length[si], norm.data());
          for (Index t = 0; t < window; ++t)
            EXPECT_LT(streamed[si][static_cast<std::size_t>(t)], 0.0F) << label << " warm-up";
          // Reference: one full-window 1-row score_batch per warm sample.
          std::vector<float> reference;
          Tensor context({1, kChannels, window});
          Tensor observed({1, kChannels});
          for (Index t = window; t < length[si]; ++t) {
            for (Index j = 0; j < window; ++j)
              for (Index c = 0; c < kChannels; ++c)
                context[c * window + j] =
                    norm[static_cast<std::size_t>((t - window + j) * kChannels + c)];
            for (Index c = 0; c < kChannels; ++c)
              observed[c] = norm[static_cast<std::size_t>(t * kChannels + c)];
            float score = 0.0F;
            detector.score_batch(context, observed, &score);
            reference.push_back(score);
          }
          const std::vector<float> got(streamed[si].begin() + window, streamed[si].end());
          ASSERT_EQ(got.size(), reference.size()) << label;
          expect_bit_equal(got, reference, label + " stream " + std::to_string(s));
        }
      }
    }
  }
}

}  // namespace
}  // namespace varade::core
