// Tests for the sharded async serving runtime: the static stream -> shard
// partition, the determinism contract at every shard count, and the
// per-shard scorer behaviour (independent idle backoff, shard-aware close).
//
// The headline contract: AsyncRuntimeConfig::n_shards partitions the stream
// space across N scorer threads, each driving its own clone_fitted()
// engine — and for ANY shard count every stream's score/event sequence is
// bit-identical to the synchronous ScoringEngine fed the same samples,
// because a stream is owned by exactly one shard, rings preserve producer
// order, replicas are bit-identical clones, and a row's score_batch score
// does not depend on the batch it rides in.
// This binary carries the `concurrency` label and runs under ThreadSanitizer
// in CI (`ci.sh --tsan`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "varade/core/monitor.hpp"
#include "varade/core/varade.hpp"
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
/// dominates; the runtime only reads the model). Deliberately small so the
/// whole binary stays fast under ThreadSanitizer's ~10x slowdown.
struct ShardRig {
  data::MultivariateSeries train_raw = make_sine(400, false, 1);
  data::MinMaxNormalizer normalizer;
  data::MultivariateSeries train;
  core::VaradeDetector detector;

  ShardRig()
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

ShardRig& rig() {
  static ShardRig* r = new ShardRig();
  return *r;
}

// ---------------------------------------------------------------------------
// ShardPartition: the one place stream ids are remapped
// ---------------------------------------------------------------------------

TEST(ShardPartition, EveryStreamOwnedByExactlyOneShard) {
  for (const Index n_shards : {1, 2, 3, 4, 7}) {
    const ShardPartition part{n_shards};
    for (const Index n_streams : {0, 1, 2, 5, 16, 33}) {
      std::vector<Index> owned_count(static_cast<std::size_t>(n_shards), 0);
      for (Index s = 0; s < n_streams; ++s) {
        const Index shard = part.shard_of(s);
        ASSERT_GE(shard, 0);
        ASSERT_LT(shard, n_shards);
        // (shard_of, local_of) and global_of are mutual inverses.
        ASSERT_EQ(part.global_of(shard, part.local_of(s)), s);
        ++owned_count[static_cast<std::size_t>(shard)];
      }
      // n_owned() agrees with the explicit count, and the counts cover the
      // stream space exactly once.
      Index total = 0;
      for (Index k = 0; k < n_shards; ++k) {
        EXPECT_EQ(part.n_owned(k, n_streams), owned_count[static_cast<std::size_t>(k)])
            << "shards=" << n_shards << " streams=" << n_streams << " shard=" << k;
        total += part.n_owned(k, n_streams);
      }
      EXPECT_EQ(total, n_streams);
      // Locals are dense per shard: local_of enumerates 0..n_owned-1.
      for (Index k = 0; k < n_shards; ++k)
        for (Index i = 0; i < part.n_owned(k, n_streams); ++i)
          EXPECT_EQ(part.local_of(part.global_of(k, i)), i);
    }
  }
}

TEST(ShardPartition, ClampsAndResolves) {
  const ShardPartition part{4};
  EXPECT_EQ(part.n_active(0), 0);
  EXPECT_EQ(part.n_active(2), 2);  // n_shards > n_streams clamps
  EXPECT_EQ(part.n_active(4), 4);
  EXPECT_EQ(part.n_active(100), 4);
  // With fewer streams than shards, the tail shards own nothing.
  EXPECT_EQ(part.n_owned(3, 2), 0);

  EXPECT_EQ(ShardPartition::resolve(3), 3);
  EXPECT_GE(ShardPartition::resolve(0), 1);  // auto: hardware_concurrency
  EXPECT_THROW(ShardPartition::resolve(-1), Error);
}

TEST(ShardedRuntime, ClampsShardsToStreamsAndReportsStats) {
  AsyncRuntimeConfig cfg;
  cfg.n_shards = 4;
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(2);
  EXPECT_EQ(runtime.n_shards(), 4);
  EXPECT_EQ(runtime.n_active_shards(), 2);  // shards 2 and 3 stay empty
  {
    const RuntimeStats before = runtime.stats();
    ASSERT_EQ(before.shards.size(), 4U);
    EXPECT_EQ(before.shards[0].n_streams, 1);
    EXPECT_EQ(before.shards[1].n_streams, 1);
    EXPECT_EQ(before.shards[2].n_streams, 0);
    EXPECT_EQ(before.shards[3].n_streams, 0);
  }

  runtime.set_threshold(1e9F);
  runtime.start();
  const std::vector<float> sample(3, 0.25F);
  ASSERT_EQ(runtime.push(0, sample.data(), 3), PushResult::Ok);
  ASSERT_EQ(runtime.push(1, sample.data(), 3), PushResult::Ok);
  runtime.close();
  EXPECT_EQ(runtime.samples_seen(0), 1);
  EXPECT_EQ(runtime.samples_seen(1), 1);
  // The aggregate snapshot spans every stream and every shard (including
  // the empty ones) and sums across the shard map.
  const RuntimeStats total = runtime.stats();
  EXPECT_EQ(total.pushed, 2);
  EXPECT_EQ(total.dropped, 0);
  EXPECT_EQ(total.rejected, 0);
  ASSERT_EQ(total.streams.size(), 2U);
  EXPECT_EQ(total.streams[0].pushed, 1);
  EXPECT_EQ(total.streams[1].pushed, 1);
  ASSERT_EQ(total.shards.size(), 4U);
  EXPECT_EQ(total.rounds, total.shards[0].rounds + total.shards[1].rounds);
  // Empty shards never ran a round.
  EXPECT_EQ(total.shards[2].rounds, 0);
  EXPECT_EQ(total.shards[3].rounds, 0);
}

TEST(ShardedRuntime, GlobalStreamIdWordingSurvivesRemapping) {
  AsyncRuntimeConfig cfg;
  cfg.n_shards = 4;
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(8);
  const std::vector<float> sample(3, 0.0F);
  // Every frontend error reports the *global* id against the *global* range,
  // never a shard-local one (stream 99 would be local 24 of shard 3).
  try {
    runtime.push(99, sample.data(), 3);
    FAIL() << "push(99) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "stream id 99 out of range [0, 8)");
  }
  try {
    runtime.events(-3);
    FAIL() << "events(-3) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "stream id -3 out of range [0, 8)");
  }
  try {
    runtime.in_alarm(8);
    FAIL() << "in_alarm(8) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "stream id 8 out of range [0, 8)");
  }
  EXPECT_THROW(runtime.samples_seen(-1), Error);
}

TEST(ShardedRuntime, ShardEngineAccessorsAndLocalIds) {
  constexpr Index kStreams = 5;
  constexpr Index kSamples = 3;
  const std::vector<float> sample(3, 0.25F);
  for (const Index n_shards : {Index{2}, Index{3}}) {
    SCOPED_TRACE("n_shards=" + std::to_string(n_shards));
    AsyncRuntimeConfig cfg;
    cfg.n_shards = n_shards;
    AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
    runtime.add_streams(kStreams);
    runtime.set_threshold(1e9F);
    EXPECT_THROW(runtime.shard_engine(0), Error);  // shards are built by start()
    runtime.start();
    EXPECT_THROW(runtime.shard_engine(0), Error);  // races with the scorers
    for (Index t = 0; t < kSamples; ++t)
      for (Index s = 0; s < kStreams; ++s)
        ASSERT_EQ(runtime.push(s, sample.data(), 3), PushResult::Ok);
    runtime.close();

    // Modulo partition: 2 shards own {0, 2, 4} and {1, 3}; 3 shards own
    // {0, 3}, {1, 4} and {2}. Each engine numbers its streams 0..owned-1.
    const std::vector<Index> owned =
        n_shards == 2 ? std::vector<Index>{3, 2} : std::vector<Index>{2, 2, 1};
    for (Index k = 0; k < n_shards; ++k) {
      const ScoringEngine& engine = runtime.shard_engine(k);
      ASSERT_EQ(engine.n_streams(), owned[static_cast<std::size_t>(k)]);
      for (Index local = 0; local < engine.n_streams(); ++local)
        EXPECT_EQ(engine.samples_seen(local), kSamples);
      EXPECT_THROW(engine.samples_seen(engine.n_streams()), Error);
    }
    EXPECT_THROW(runtime.shard_engine(n_shards), Error);

    // The runtime's result path reports global ids: every stream exactly
    // once per sample, in sample order.
    std::vector<std::vector<Index>> seen(kStreams);
    for (const StreamScore& r : runtime.drain_scores()) {
      ASSERT_GE(r.stream, 0);
      ASSERT_LT(r.stream, kStreams);
      seen[static_cast<std::size_t>(r.stream)].push_back(r.sample);
    }
    for (Index s = 0; s < kStreams; ++s)
      EXPECT_EQ(seen[static_cast<std::size_t>(s)], (std::vector<Index>{0, 1, 2})) << "stream " << s;
  }
}

// ---------------------------------------------------------------------------
// The headline contract: bit-parity at every shard count
// ---------------------------------------------------------------------------

struct StreamRun {
  std::vector<float> scores;
  std::vector<core::AnomalyEvent> events;
  bool in_alarm = false;
  Index samples_seen = 0;
};

void expect_same_run(const StreamRun& got, const StreamRun& want, Index stream,
                     const std::string& label) {
  EXPECT_EQ(got.samples_seen, want.samples_seen) << label << " stream " << stream;
  ASSERT_EQ(got.scores.size(), want.scores.size()) << label << " stream " << stream;
  for (std::size_t i = 0; i < got.scores.size(); ++i)
    ASSERT_EQ(got.scores[i], want.scores[i])
        << label << " stream " << stream << " sample " << i;
  ASSERT_EQ(got.events.size(), want.events.size()) << label << " stream " << stream;
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    EXPECT_EQ(got.events[i].onset_sample, want.events[i].onset_sample);
    EXPECT_EQ(got.events[i].last_sample, want.events[i].last_sample);
    EXPECT_EQ(got.events[i].peak_score, want.events[i].peak_score);
  }
  EXPECT_EQ(got.in_alarm, want.in_alarm) << label << " stream " << stream;
}

constexpr Index kParityStreams = 8;
constexpr Index kParitySamples = 200;

std::vector<data::MultivariateSeries> parity_inputs() {
  std::vector<data::MultivariateSeries> inputs;
  for (Index s = 0; s < kParityStreams; ++s)
    inputs.push_back(make_sine(kParitySamples, /*planted=*/s % 2 == 0,
                               300 + static_cast<std::uint64_t>(s)));
  return inputs;
}

float rig_threshold() {
  // One calibration shared by the whole parity matrix (quantile rule on the
  // training series, same value every run).
  static const float threshold =
      core::calibrate_threshold(rig().detector, rig().train, {});
  return threshold;
}

/// Synchronous reference: one ScoringEngine, all samples pushed up front.
std::vector<StreamRun> sync_reference(core::AnomalyDetector& detector,
                                      const std::vector<data::MultivariateSeries>& inputs) {
  std::vector<StreamRun> want(kParityStreams);
  ScoringEngine sync(detector, rig().normalizer, {.max_batch = 8});
  sync.add_streams(kParityStreams);
  sync.set_threshold(rig_threshold());
  for (Index s = 0; s < kParityStreams; ++s)
    for (Index t = 0; t < kParitySamples; ++t)
      sync.push(s, inputs[static_cast<std::size_t>(s)].sample(t), 3);
  for (const StreamScore& r : sync.step())
    want[static_cast<std::size_t>(r.stream)].scores.push_back(r.score);
  for (Index s = 0; s < kParityStreams; ++s) {
    auto& w = want[static_cast<std::size_t>(s)];
    w.events = sync.events(s);
    w.in_alarm = sync.in_alarm(s);
    w.samples_seen = sync.samples_seen(s);
  }
  return want;
}

/// One async run: n_producers threads (one producer per stream), tiny rings
/// so Block backpressure bites, concurrent drain_scores() polling merging
/// the per-shard queues.
std::vector<StreamRun> async_run(core::AnomalyDetector& detector, Index n_shards,
                                 Index n_producers,
                                 const std::vector<data::MultivariateSeries>& inputs,
                                 const std::string& label) {
  AsyncRuntimeConfig cfg;
  cfg.ring_capacity = 16;
  cfg.backpressure = BackpressurePolicy::Block;
  cfg.engine = {.max_batch = 8};
  cfg.n_shards = n_shards;
  AsyncScoringRuntime runtime(detector, rig().normalizer, cfg);
  runtime.add_streams(kParityStreams);
  runtime.set_threshold(rig_threshold());
  runtime.start();

  std::vector<std::thread> producers;
  for (Index p = 0; p < n_producers; ++p) {
    producers.emplace_back([&, p] {
      // Interleave this producer's streams sample by sample so shard rounds
      // mix streams from all producers.
      for (Index t = 0; t < kParitySamples; ++t) {
        for (Index s = p; s < kParityStreams; s += n_producers) {
          const PushResult r = runtime.push(s, inputs[static_cast<std::size_t>(s)].sample(t), 3);
          ASSERT_EQ(r, PushResult::Ok) << label;
        }
      }
    });
  }

  std::vector<StreamRun> got(kParityStreams);
  long received = 0;
  Backoff backoff;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  while (received < kParityStreams * kParitySamples &&
         std::chrono::steady_clock::now() < deadline) {
    const auto batch = runtime.drain_scores();
    if (batch.empty()) {
      backoff.wait();
      continue;
    }
    backoff.reset();
    for (const StreamScore& r : batch) {
      auto& run = got[static_cast<std::size_t>(r.stream)];
      // Per-stream order must be producer order even while shards interleave.
      EXPECT_EQ(r.sample, static_cast<Index>(run.scores.size()))
          << label << " stream " << r.stream << " scored out of order";
      run.scores.push_back(r.score);
      ++received;
    }
  }
  if (received < kParityStreams * kParitySamples) {
    runtime.close();  // unblock any producer stuck in a Block push
    for (std::thread& t : producers) t.join();
    ADD_FAILURE() << label << " score delivery stalled: " << received << "/"
                  << kParityStreams * kParitySamples;
    return got;
  }
  for (std::thread& t : producers) t.join();
  runtime.close();
  EXPECT_TRUE(runtime.drain_scores().empty()) << label;
  EXPECT_EQ(runtime.n_active_shards(),
            std::min<Index>(runtime.n_shards(), kParityStreams))
      << label;
  for (Index s = 0; s < kParityStreams; ++s) {
    auto& g = got[static_cast<std::size_t>(s)];
    g.events = runtime.events(s);
    g.in_alarm = runtime.in_alarm(s);
    g.samples_seen = runtime.samples_seen(s);
  }
  return got;
}

TEST(ShardedRuntime, EveryShardCountMatchesSynchronousEngineBitForBit) {
  const auto inputs = parity_inputs();
  const auto want = sync_reference(rig().detector, inputs);
  // 0 = auto (hardware_concurrency): included so the auto path is exercised
  // whatever this host resolves it to.
  for (const Index n_shards : {1, 2, 4, 0}) {
    for (const Index n_producers : {1, 4}) {
      const std::string label =
          "shards=" + std::to_string(n_shards) + " producers=" + std::to_string(n_producers);
      const auto got = async_run(rig().detector, n_shards, n_producers, inputs, label);
      if (::testing::Test::HasFatalFailure()) return;
      for (Index s = 0; s < kParityStreams; ++s)
        expect_same_run(got[static_cast<std::size_t>(s)], want[static_cast<std::size_t>(s)],
                        s, label);
    }
  }
}

// ---------------------------------------------------------------------------
// Shard-aware close() and independent idle backoff
// ---------------------------------------------------------------------------

TEST(ShardedRuntime, CloseMidStreamDrainsEveryShard) {
  AsyncRuntimeConfig cfg;
  cfg.ring_capacity = 4096;
  cfg.n_shards = 4;
  cfg.engine = {.max_batch = 8};
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(6);
  runtime.set_threshold(rig_threshold());
  runtime.start();

  // Flood all streams and close immediately: the scorers have certainly not
  // caught up, so close() must drain every shard's backlog before joining.
  const auto series = make_sine(400, true, 8);
  for (Index s = 0; s < 6; ++s)
    for (Index t = 0; t < 400; ++t)
      ASSERT_NE(runtime.push(s, series.sample(t), series.n_channels()), PushResult::Rejected);
  runtime.close();
  runtime.close();  // idempotent across shards

  long total = 0;
  for (Index s = 0; s < 6; ++s) {
    EXPECT_EQ(runtime.stats().streams[static_cast<std::size_t>(s)].pushed, 400);
    EXPECT_EQ(runtime.samples_seen(s), 400) << "stream " << s << " not fully drained";
    total += runtime.samples_seen(s);
  }
  const auto scores = runtime.drain_scores();
  EXPECT_EQ(static_cast<long>(scores.size()), total);
  EXPECT_TRUE(runtime.drain_scores().empty());
  EXPECT_GT(runtime.stats().rounds, 0);
}

TEST(ShardedRuntime, IdleShardSleepsWhileAnotherIsHot) {
  AsyncRuntimeConfig cfg;
  cfg.n_shards = 2;
  cfg.ring_capacity = 64;
  cfg.backpressure = BackpressurePolicy::Block;
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(2);  // stream 0 -> shard 0, stream 1 -> shard 1
  runtime.set_threshold(1e9F);
  runtime.start();

  // Only stream 0 is hot; shard 1 must sleep on its own instead of
  // busy-spinning (each shard sleeps and wakes independently).
  const auto series = make_sine(600, false, 9);
  for (Index t = 0; t < 600; ++t)
    ASSERT_EQ(runtime.push(0, series.sample(t), series.n_channels()), PushResult::Ok);
  // The idle shard sleeps as soon as it finds its ring empty; leave it time
  // to get there before close() wakes it. The hot shard sleeps once it has
  // scored what is left in its ring; then every scorer is asleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!runtime.all_asleep() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(runtime.all_asleep()) << "a scorer with empty rings did not sleep within 2 s";
  runtime.close();

  EXPECT_EQ(runtime.samples_seen(0), 600);
  EXPECT_EQ(runtime.samples_seen(1), 0);
  const RuntimeStats stats = runtime.stats();
  const ShardStats hot = stats.shards[0];
  const ShardStats idle = stats.shards[1];
  EXPECT_GT(hot.rounds, 0);
  EXPECT_EQ(idle.rounds, 0);      // nothing to score
  // One sleep, never woken by the hot shard's pushes; close() ends it.
  EXPECT_EQ(idle.naps, 1) << "idle shard never slept (busy-spinning?) or was woken";
}

// ---------------------------------------------------------------------------
// One fitted detector shared by several engines
// ---------------------------------------------------------------------------

// The detector keeps no mutable state on the streamed scoring path (each
// engine owns its stream states and scratch), so two engines may step
// concurrently over one fitted VaradeDetector. Under TSan this pins that the
// shared reads race with nothing; the scores pin that neither engine sees
// the other's state.
TEST(SharedDetector, TwoEnginesStepConcurrentlyAndMatchSequentialMonitors) {
  constexpr Index kStreams = 3;
  constexpr Index kLength = 120;
  constexpr Index kChunk = 10;
  std::vector<data::MultivariateSeries> inputs[2];
  for (int e = 0; e < 2; ++e)
    for (Index s = 0; s < kStreams; ++s)
      inputs[e].push_back(
          make_sine(kLength, s % 2 == 0, 700 + 10 * e + static_cast<std::uint64_t>(s)));

  std::vector<std::vector<float>> scores[2];
  auto drive = [&](int e) {
    ScoringEngine engine(rig().detector, rig().normalizer, {.max_batch = 2});
    engine.add_streams(kStreams);
    engine.set_threshold(1.0F);
    scores[e].assign(kStreams, {});
    for (Index t0 = 0; t0 < kLength; t0 += kChunk) {
      for (Index s = 0; s < kStreams; ++s)
        for (Index t = t0; t < t0 + kChunk; ++t)
          engine.push(s, inputs[e][static_cast<std::size_t>(s)].sample(t), 3);
      for (const StreamScore& r : engine.step())
        scores[e][static_cast<std::size_t>(r.stream)].push_back(r.score);
    }
  };
  std::thread first(drive, 0);
  std::thread second(drive, 1);
  first.join();
  second.join();

  for (int e = 0; e < 2; ++e) {
    for (Index s = 0; s < kStreams; ++s) {
      core::OnlineMonitor monitor(rig().detector, rig().normalizer);
      monitor.set_threshold(1.0F);
      const data::MultivariateSeries& input = inputs[e][static_cast<std::size_t>(s)];
      std::vector<float> want;
      for (Index t = 0; t < kLength; ++t) want.push_back(monitor.push(input.sample(t)));
      const std::vector<float>& got = scores[e][static_cast<std::size_t>(s)];
      ASSERT_EQ(got.size(), want.size()) << "engine " << e << " stream " << s;
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << "engine " << e << " stream " << s;
    }
  }
}

}  // namespace
}  // namespace varade::serve
