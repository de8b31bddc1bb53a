// Tests for the structure-of-arrays stream state (PR "fleet-scale SoA
// slabs") and the push-path hardening fixes that rode along:
//
//  - bit-parity sweep: the slab-backed engine behind AsyncScoringRuntime
//    must match one OnlineMonitor per stream bit-for-bit at stream counts
//    {1, 16, 1000} x shard counts {1, 4} — scores, warm-up negatives, alarm
//    events, the lot (`parity` label, runs under ASan/UBSan in CI);
//  - ragged warm-up: streams at different warm-up levels (empty, below,
//    at, above the window) share one state slab without interfering;
//  - RingArena: the rings it builds over its slabs stay isolated under
//    concurrent producers/poppers and size_approx() stays within bounds
//    under contention (`concurrency` label, runs under TSan);
//  - regression tests for the push-path bugfixes: raw-pointer push
//    validates its explicit length, and size arithmetic is overflow-checked
//    instead of wrapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "varade/core/varade.hpp"
#include "varade/serve/checked.hpp"
#include "varade/serve/runtime.hpp"

namespace varade::serve {
namespace {

data::MultivariateSeries make_sine(Index length, bool planted, std::uint64_t seed) {
  Rng rng(seed);
  data::MultivariateSeries s(3);
  std::vector<float> row(3);
  for (Index t = 0; t < length; ++t) {
    const bool anomalous = planted && (t % 120) >= 90 && (t % 120) < 100;
    for (Index c = 0; c < 3; ++c) {
      row[static_cast<std::size_t>(c)] =
          std::sin(0.05F * static_cast<float>(t) + static_cast<float>(c)) +
          rng.normal(0.0F, anomalous ? 0.9F : 0.03F);
    }
    s.append(row, anomalous ? 1 : 0);
  }
  return s;
}

/// One tiny fitted VARADE shared by every test in this binary (fitting
/// dominates; serving only reads the model). Small enough that the parity
/// sweep stays fast under the sanitizers' ~10x slowdown.
struct SlabRig {
  data::MultivariateSeries train_raw = make_sine(400, false, 1);
  data::MinMaxNormalizer normalizer;
  data::MultivariateSeries train;
  core::VaradeDetector detector;

  SlabRig()
      : detector({.window = 16,
                  .base_channels = 4,
                  .epochs = 1,
                  .learning_rate = 1e-3F,
                  .train_stride = 4}) {
    normalizer.fit(train_raw);
    train = normalizer.transform(train_raw);
    detector.fit(train);
  }
};

SlabRig& rig() {
  static SlabRig* r = new SlabRig();
  return *r;
}

/// The parity sweep replays a small set of input archetypes across an
/// arbitrarily large fleet: stream s plays archetype s % kArchetypes, so
/// only kArchetypes OnlineMonitor references are needed to check 1000
/// streams bit-for-bit.
constexpr Index kArchetypes = 8;
constexpr Index kMaxSamples = 64;

const data::MultivariateSeries& archetype(Index a) {
  static std::vector<data::MultivariateSeries>* inputs = [] {
    auto* v = new std::vector<data::MultivariateSeries>;
    for (Index i = 0; i < kArchetypes; ++i)
      v->push_back(make_sine(kMaxSamples, true, 100 + static_cast<std::uint64_t>(i)));
    return v;
  }();
  return (*inputs)[static_cast<std::size_t>(a)];
}

/// One shared alarm threshold (the quantile rule on the training series) so
/// the sweep exercises real alarm transitions, not just scores.
float shared_threshold() {
  static const float thr = core::calibrate_threshold(rig().detector, rig().train, {});
  return thr;
}

/// Feeds archetype `a` through a fresh OnlineMonitor and returns it plus the
/// full score sequence (warm-up negatives included).
struct Reference {
  std::unique_ptr<core::OnlineMonitor> monitor;
  std::vector<float> scores;
};

Reference make_reference(Index a, Index n_samples) {
  Reference ref;
  ref.monitor = std::make_unique<core::OnlineMonitor>(rig().detector, rig().normalizer);
  ref.monitor->set_threshold(shared_threshold());
  const data::MultivariateSeries& in = archetype(a);
  for (Index t = 0; t < n_samples; ++t) ref.scores.push_back(ref.monitor->push(in.sample(t)));
  return ref;
}

// ---------------------------------------------------------------------------
// Bit-parity sweep: slab engine vs OnlineMonitor at fleet-ish stream counts
// ---------------------------------------------------------------------------

void run_parity(Index n_streams, Index n_shards, Index n_samples) {
  SCOPED_TRACE("streams=" + std::to_string(n_streams) + " shards=" + std::to_string(n_shards) +
               " samples=" + std::to_string(n_samples));
  ASSERT_LE(n_samples, kMaxSamples);

  std::vector<Reference> refs;
  for (Index a = 0; a < kArchetypes; ++a) refs.push_back(make_reference(a, n_samples));

  AsyncRuntimeConfig cfg;
  cfg.n_shards = n_shards;
  cfg.engine.max_batch = 16;  // several chunks per round at 1000 streams
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(n_streams);
  runtime.set_threshold(shared_threshold());
  runtime.start();

  std::vector<std::vector<float>> got(static_cast<std::size_t>(n_streams));
  const auto collect = [&](std::vector<StreamScore> scores) {
    for (const StreamScore& r : scores) {
      auto& seq = got[static_cast<std::size_t>(r.stream)];
      // drain_scores preserves per-stream emission order == sample order.
      ASSERT_EQ(r.sample, static_cast<Index>(seq.size()));
      seq.push_back(r.score);
    }
  };

  for (Index t = 0; t < n_samples; ++t) {
    for (Index s = 0; s < n_streams; ++s)
      ASSERT_EQ(runtime.push(s, archetype(s % kArchetypes).sample(t), 3), PushResult::Ok);
    // Drain mid-flight now and then so the result queues stay bounded.
    if (t % 7 == 0) collect(runtime.drain_scores());
  }
  runtime.close();
  collect(runtime.drain_scores());

  for (Index s = 0; s < n_streams; ++s) {
    const Reference& ref = refs[static_cast<std::size_t>(s % kArchetypes)];
    const auto& seq = got[static_cast<std::size_t>(s)];
    ASSERT_EQ(static_cast<Index>(seq.size()), n_samples) << "stream " << s;
    for (Index t = 0; t < n_samples; ++t) {
      // Bit-exact: the SoA slab/ring/normalise path must reproduce the
      // per-stream OnlineMonitor float-for-float, not approximately.
      ASSERT_EQ(seq[static_cast<std::size_t>(t)], ref.scores[static_cast<std::size_t>(t)])
          << "stream " << s << " sample " << t;
    }
    EXPECT_EQ(runtime.samples_seen(s), n_samples);
    EXPECT_EQ(runtime.in_alarm(s), ref.monitor->in_alarm());
    const auto& events = runtime.events(s);
    const auto& ref_events = ref.monitor->events();
    ASSERT_EQ(events.size(), ref_events.size()) << "stream " << s;
    for (std::size_t e = 0; e < events.size(); ++e) {
      EXPECT_EQ(events[e].onset_sample, ref_events[e].onset_sample);
      EXPECT_EQ(events[e].last_sample, ref_events[e].last_sample);
      EXPECT_EQ(events[e].peak_score, ref_events[e].peak_score);
    }
  }
}

TEST(SlabParity, OneStream) {
  run_parity(1, 1, 48);
  run_parity(1, 4, 48);
}

TEST(SlabParity, SixteenStreams) {
  run_parity(16, 1, 48);
  run_parity(16, 4, 48);
}

TEST(SlabParity, ThousandStreamsUnsharded) { run_parity(1000, 1, 24); }

TEST(SlabParity, ThousandStreamsFourShards) { run_parity(1000, 4, 24); }

// ---------------------------------------------------------------------------
// Ragged warm-up: fill levels below/at/above the window share one slab
// ---------------------------------------------------------------------------

TEST(SlabEngine, RaggedWarmupAcrossFillLevels) {
  // Window is 16; stream i receives i * 8 samples in total (0, 8, 16, 24,
  // 32): never warm, half full, exactly full, and wrapped once / twice.
  ScoringEngine engine(rig().detector, rig().normalizer, {.max_batch = 3});
  constexpr Index kStreams = 5;
  engine.add_streams(kStreams);
  engine.set_threshold(shared_threshold());

  std::vector<Reference> refs;
  std::vector<std::vector<float>> got(kStreams);
  for (Index s = 0; s < kStreams; ++s) refs.push_back(make_reference(s, s * 8));

  // Split the pushes across two push/step cycles so ring state (including
  // partially-filled and wrapped rings) must survive a step() boundary.
  const auto feed = [&](Index from, Index to) {
    for (Index s = 0; s < kStreams; ++s) {
      const Index n = s * 8;
      for (Index t = from; t < std::min(to, n); ++t) engine.push(s, archetype(s).sample(t), 3);
    }
    for (const StreamScore& r : engine.step())
      got[static_cast<std::size_t>(r.stream)].push_back(r.score);
  };
  feed(0, 13);  // stream 2 stops mid-fill, streams 3/4 just past the window
  feed(13, 40);

  for (Index s = 0; s < kStreams; ++s) {
    const Index n = s * 8;
    EXPECT_EQ(engine.samples_seen(s), n);
    const auto& seq = got[static_cast<std::size_t>(s)];
    ASSERT_EQ(static_cast<Index>(seq.size()), n) << "stream " << s;
    for (Index t = 0; t < n; ++t) {
      ASSERT_EQ(seq[static_cast<std::size_t>(t)],
                refs[static_cast<std::size_t>(s)].scores[static_cast<std::size_t>(t)])
          << "stream " << s << " sample " << t;
      // The warm-up sentinel contract: negative until the ring is full.
      if (t < 15) {
        EXPECT_LT(seq[static_cast<std::size_t>(t)], 0.0F);
      }
    }
  }
  // Stream 0 never received a sample: registered, idle, untouched.
  EXPECT_EQ(engine.samples_seen(0), 0);
  EXPECT_FALSE(engine.in_alarm(0));
}

// ---------------------------------------------------------------------------
// Bugfix regressions: raw-pointer push validates its explicit length
// ---------------------------------------------------------------------------

TEST(SlabEngine, PushValidatesSampleLength) {
  ScoringEngine engine(rig().detector, rig().normalizer);
  engine.add_stream();
  engine.set_threshold(1e9F);
  const float sample[4] = {0.1F, 0.2F, 0.3F, 0.4F};
  try {
    engine.push(0, sample, 2);
    FAIL() << "short push did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "sample channel count mismatch: expected 3 channels, got 2");
  }
  EXPECT_THROW(engine.push(0, sample, 4), Error);
  EXPECT_THROW(engine.push(0, sample, 1), Error);
  // A rejected push buffers nothing: the next step scores only valid pushes.
  engine.push(0, sample, 3);
  EXPECT_EQ(engine.step().size(), 1U);
  EXPECT_EQ(engine.samples_seen(0), 1);
}

TEST(SlabRuntime, PushValidatesSampleLength) {
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer);
  runtime.add_stream();
  runtime.set_threshold(1e9F);
  runtime.start();
  const float sample[4] = {0.1F, 0.2F, 0.3F, 0.4F};
  try {
    runtime.push(0, sample, 4);
    FAIL() << "long push did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "sample channel count mismatch: expected 3 channels, got 4");
  }
  EXPECT_THROW(runtime.push(0, sample, 2, BackpressurePolicy::Reject), Error);
  ASSERT_EQ(runtime.push(0, sample, 3), PushResult::Ok);
  runtime.close();
  EXPECT_EQ(runtime.samples_seen(0), 1);
  // Rejected pushes never reached the ring or the counters.
  EXPECT_EQ(runtime.stats().streams[0].pushed, 1);
  EXPECT_EQ(runtime.stats().streams[0].rejected, 0);
}

// ---------------------------------------------------------------------------
// Bugfix regressions: size arithmetic is overflow-checked
// ---------------------------------------------------------------------------

TEST(CheckedArithmetic, MultiplyAndAdd) {
  EXPECT_EQ(detail::checked_mul(3, 7, "test"), 21);
  EXPECT_EQ(detail::checked_mul(0, 1L << 62, "test"), 0);
  EXPECT_EQ(detail::checked_add(1L << 62, (1L << 62) - 1, "test"),
            std::numeric_limits<Index>::max());
  try {
    detail::checked_mul(1L << 40, 1L << 40, "context slab");
    FAIL() << "overflowing multiply did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "context slab overflows Index");
  }
  EXPECT_THROW(detail::checked_add(1L << 62, 1L << 62, "test"), Error);
  // Negative operands are a caller bug, not a size: rejected outright.
  EXPECT_THROW(detail::checked_mul(-1, 8, "test"), Error);
  EXPECT_THROW(detail::checked_add(8, -1, "test"), Error);
}

TEST(RingArenaTest, ChecksSizingAndRange) {
  RingArena arena(4, 3, 60);
  EXPECT_EQ(arena.n_rings(), 4);
  EXPECT_EQ(arena.channels(), 3);
  EXPECT_EQ(arena.capacity(), 64);  // rounded up to a power of two
  EXPECT_EQ(arena.ring(0).capacity(), 64);
  EXPECT_EQ(arena.ring(3).channels(), 3);
  EXPECT_THROW(arena.ring(-1), Error);
  EXPECT_THROW(arena.ring(4), Error);
  // A fleet configuration whose slabs cannot fit in Index fails loudly at
  // construction instead of wrapping into a small allocation.
  EXPECT_THROW(RingArena(1L << 40, 1L << 20, 1L << 20), Error);
}

// ---------------------------------------------------------------------------
// RingArena under contention: isolation + size_approx bounds (TSan target)
// ---------------------------------------------------------------------------

TEST(RingArenaTest, CrossRingIsolationUnderContention) {
  constexpr Index kRings = 4;
  constexpr Index kChannels = 3;
  constexpr Index kPerRing = 1500;
  RingArena arena(kRings, kChannels, 64);

  // One producer and one popper per ring, all rings concurrently active over
  // the shared slabs. Samples are tagged {ring, seq, ring * 10000 + seq}: a
  // popper seeing another ring's tag, or a gap/reorder in seq, means the
  // arena's per-ring carving leaked across ring boundaries.
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (Index i = 0; i < kRings; ++i) {
    threads.emplace_back([&, i] {
      float sample[kChannels];
      for (Index seq = 0; seq < kPerRing; ++seq) {
        sample[0] = static_cast<float>(i);
        sample[1] = static_cast<float>(seq);
        sample[2] = static_cast<float>(i * 10000 + seq);
        while (!arena.ring(i).try_push(sample)) std::this_thread::yield();
      }
    });
    threads.emplace_back([&, i] {
      float sample[kChannels];
      Index expected = 0;
      while (expected < kPerRing) {
        const bool popped = arena.ring(i).try_pop_with([&](const float* slot, std::int64_t) {
          std::copy(slot, slot + kChannels, sample);
        });
        if (!popped) {
          std::this_thread::yield();
          continue;
        }
        if (sample[0] != static_cast<float>(i) || sample[1] != static_cast<float>(expected) ||
            sample[2] != static_cast<float>(i * 10000 + expected)) {
          failed.store(true);
          return;
        }
        ++expected;
      }
    });
  }
  // Meanwhile, size_approx() stays a sane snapshot under contention: never
  // negative, never beyond capacity.
  for (int poll = 0; poll < 2000; ++poll) {
    for (Index i = 0; i < kRings; ++i) {
      const Index size = arena.ring(i).size_approx();
      ASSERT_GE(size, 0);
      ASSERT_LE(size, arena.capacity());
    }
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  for (Index i = 0; i < kRings; ++i) {
    EXPECT_TRUE(arena.ring(i).empty_approx());
    EXPECT_EQ(arena.ring(i).size_approx(), 0);  // exact once quiescent
  }
}

}  // namespace
}  // namespace varade::serve
