// Tests for the async ingestion runtime: SampleRing semantics, backpressure
// policies, and the determinism contract of AsyncScoringRuntime.
//
// The contract under test: the scoring thread is the only thread touching the
// engine, each stream's ring preserves its producer's push order, and a
// row's score_batch score does not depend on the batch it rides in — so a
// single-producer-per-stream async run must yield bit-identical per-stream
// scores and alarm events to the synchronous ScoringEngine fed the same
// samples, at any producer timing.
// This binary carries the `concurrency` label and runs under ThreadSanitizer
// in CI (`ci.sh --tsan`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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

/// One tiny fitted VARADE shared by every runtime test (fitting dominates;
/// the runtime only reads the model). Deliberately small so the whole binary
/// stays fast under ThreadSanitizer's ~10x slowdown.
struct RuntimeRig {
  data::MultivariateSeries train_raw = make_sine(400, false, 1);
  data::MinMaxNormalizer normalizer;
  data::MultivariateSeries train;
  core::VaradeDetector detector;

  RuntimeRig()
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

RuntimeRig& rig() {
  static RuntimeRig* r = new RuntimeRig();
  return *r;
}

// ---------------------------------------------------------------------------
// SampleRing (built by a RingArena, the one storage provider)
// ---------------------------------------------------------------------------

/// Copying pop through the zero-copy consumer path.
bool pop_into(SampleRing& ring, float* out) {
  return ring.try_pop_with([&](const float* sample, std::int64_t) {
    std::copy(sample, sample + ring.channels(), out);
  });
}

TEST(Ingest, EnumNamesRoundTrip) {
  EXPECT_STREQ(to_string(BackpressurePolicy::Block), "Block");
  EXPECT_STREQ(to_string(BackpressurePolicy::DropOldest), "DropOldest");
  EXPECT_STREQ(to_string(BackpressurePolicy::Reject), "Reject");
  EXPECT_STREQ(to_string(PushResult::Ok), "Ok");
  EXPECT_STREQ(to_string(PushResult::DroppedOldest), "DroppedOldest");
  EXPECT_STREQ(to_string(PushResult::Rejected), "Rejected");
}

TEST(SampleRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(RingArena(1, 3, 1).ring(0).capacity(), 1);
  EXPECT_EQ(RingArena(1, 3, 2).ring(0).capacity(), 2);
  EXPECT_EQ(RingArena(1, 3, 5).ring(0).capacity(), 8);
  EXPECT_EQ(RingArena(1, 3, 1000).ring(0).capacity(), 1024);
  EXPECT_THROW(RingArena(1, 0, 8), Error);
  EXPECT_THROW(RingArena(1, 3, 0), Error);
}

TEST(SampleRing, FifoOrderAndWraparound) {
  RingArena arena(1, 2, 4);
  SampleRing& ring = arena.ring(0);
  std::vector<float> in(2);
  std::vector<float> out(2);
  // Several laps around the 4-slot ring, interleaving pushes and pops.
  float next_in = 0.0F;
  float next_out = 0.0F;
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 3; ++i) {
      in = {next_in, -next_in};
      ASSERT_TRUE(ring.try_push(in.data()));
      next_in += 1.0F;
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(pop_into(ring, out.data()));
      EXPECT_EQ(out[0], next_out);
      EXPECT_EQ(out[1], -next_out);
      next_out += 1.0F;
    }
  }
  EXPECT_FALSE(pop_into(ring, out.data()));
}

TEST(SampleRing, FullRejectsAndDiscardOldestMakesRoom) {
  RingArena arena(1, 1, 2);
  SampleRing& ring = arena.ring(0);
  float v = 1.0F;
  ASSERT_TRUE(ring.try_push(&v));
  v = 2.0F;
  ASSERT_TRUE(ring.try_push(&v));
  v = 3.0F;
  EXPECT_FALSE(ring.try_push(&v));  // full
  EXPECT_EQ(ring.size_approx(), 2);

  ASSERT_TRUE(ring.try_pop_discard());  // evict the oldest (1.0)
  ASSERT_TRUE(ring.try_push(&v));
  float out = 0.0F;
  ASSERT_TRUE(pop_into(ring, &out));
  EXPECT_EQ(out, 2.0F);
  ASSERT_TRUE(pop_into(ring, &out));
  EXPECT_EQ(out, 3.0F);
  EXPECT_FALSE(ring.try_pop_discard());  // empty
}

TEST(SampleRing, ConcurrentProducerConsumerPreservesOrder) {
  constexpr long kTotal = 20000;
  RingArena arena(1, 1, 64);
  SampleRing& ring = arena.ring(0);
  std::thread producer([&] {
    Backoff backoff;
    for (long i = 0; i < kTotal; ++i) {
      auto v = static_cast<float>(i);
      while (!ring.try_push(&v)) backoff.wait();
      backoff.reset();
    }
  });
  Backoff backoff;
  for (long i = 0; i < kTotal; ++i) {
    float v = -1.0F;
    while (!pop_into(ring, &v)) backoff.wait();
    backoff.reset();
    ASSERT_EQ(v, static_cast<float>(i)) << "FIFO order broken at " << i;
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SampleRing, ConcurrentMultiProducerLosesNothing) {
  constexpr int kProducers = 4;
  constexpr long kPerProducer = 5000;
  RingArena arena(1, 1, 128);
  SampleRing& ring = arena.ring(0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      Backoff backoff;
      for (long i = 0; i < kPerProducer; ++i) {
        // Encode (producer, index) so the consumer can check per-producer
        // order even though the global interleaving is scheduler-defined.
        auto v = static_cast<float>(p * kPerProducer + i);
        while (!ring.try_push(&v)) backoff.wait();
        backoff.reset();
      }
    });
  }
  std::vector<long> last_seen(kProducers, -1);
  Backoff backoff;
  for (long n = 0; n < kProducers * kPerProducer; ++n) {
    float v = -1.0F;
    while (!pop_into(ring, &v)) backoff.wait();
    backoff.reset();
    const long encoded = std::lround(v);
    const long p = encoded / kPerProducer;
    const long i = encoded % kPerProducer;
    ASSERT_GE(p, 0);
    ASSERT_LT(p, kProducers);
    ASSERT_GT(i, last_seen[static_cast<std::size_t>(p)]) << "producer " << p << " reordered";
    last_seen[static_cast<std::size_t>(p)] = i;
  }
  for (std::thread& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(last_seen[static_cast<std::size_t>(p)],
                                                 kPerProducer - 1);
}

// ---------------------------------------------------------------------------
// AsyncScoringRuntime lifecycle and error contract
// ---------------------------------------------------------------------------

TEST(AsyncScoringRuntime, LifecycleContractIsEnforced) {
  const std::vector<float> sample(3, 0.0F);
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer);
  EXPECT_THROW(runtime.start(), Error);  // no streams
  runtime.add_streams(2);
  EXPECT_THROW(runtime.start(), Error);  // not calibrated
  EXPECT_THROW(runtime.push(0, sample.data(), 3), Error);  // before start
  runtime.set_threshold(1e9F);
  runtime.start();
  EXPECT_THROW(runtime.add_stream(), Error);     // after start
  EXPECT_THROW(runtime.calibrate(rig().train), Error);
  EXPECT_THROW(runtime.set_threshold(1.0F), Error);
  EXPECT_THROW(runtime.start(), Error);          // started twice
  // Engine passthroughs race with the scorer while running.
  EXPECT_THROW(runtime.events(0), Error);
  EXPECT_THROW(runtime.in_alarm(0), Error);
  EXPECT_THROW(runtime.samples_seen(0), Error);
  EXPECT_THROW(runtime.shard_engine(0), Error);
  runtime.close();
  runtime.close();  // idempotent
  EXPECT_TRUE(runtime.closed());
  EXPECT_EQ(runtime.samples_seen(0), 0);  // quiescent again
  // Intake is shut after close.
  EXPECT_EQ(runtime.push(0, sample.data(), 3), PushResult::Rejected);
  EXPECT_EQ(runtime.stats().streams[0].rejected, 1);
}

TEST(AsyncScoringRuntime, CloseWithoutStartRejectsPushes) {
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer);
  runtime.add_stream();
  runtime.close();
  EXPECT_TRUE(runtime.closed());
  const std::vector<float> sample(3, 0.0F);
  EXPECT_EQ(runtime.push(0, sample.data(), 3), PushResult::Rejected);
  EXPECT_EQ(runtime.stats().streams[0].rejected, 1);
}

TEST(AsyncScoringRuntime, StreamIdBoundsMatchEngineWording) {
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer);
  runtime.add_streams(2);
  const std::vector<float> sample(3, 0.0F);
  try {
    runtime.push(99, sample.data(), 3);
    FAIL() << "push(99) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "stream id 99 out of range [0, 2)");
  }
  EXPECT_THROW(runtime.push(-1, sample.data(), 3), Error);
  // Quiescent passthroughs bounds-check with the same wording.
  try {
    runtime.events(-3);
    FAIL() << "events(-3) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "stream id -3 out of range [0, 2)");
  }
  try {
    runtime.in_alarm(7);
    FAIL() << "in_alarm(7) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "stream id 7 out of range [0, 2)");
  }
  try {
    runtime.samples_seen(2);
    FAIL() << "samples_seen(2) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "stream id 2 out of range [0, 2)");
  }
}

TEST(AsyncScoringRuntime, CalibrateMatchesSynchronousEngine) {
  ScoringEngine sync(rig().detector, rig().normalizer);
  sync.calibrate(rig().train);
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer);
  runtime.add_stream();
  runtime.calibrate(rig().train);
  EXPECT_EQ(runtime.threshold(), sync.threshold());
}

// ---------------------------------------------------------------------------
// Backpressure policies
// ---------------------------------------------------------------------------

TEST(AsyncScoringRuntime, DropOldestEvictsAndCountsPerStream) {
  constexpr long kPushes = 4000;
  AsyncRuntimeConfig cfg;
  cfg.ring_capacity = 2;  // overflow on nearly every burst
  cfg.backpressure = BackpressurePolicy::DropOldest;
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(2);
  runtime.set_threshold(1e9F);
  runtime.start();

  const auto series = make_sine(kPushes, false, 5);
  long ok = 0;
  long dropped_results = 0;
  for (Index t = 0; t < kPushes; ++t) {
    const PushResult r = runtime.push(0, series.sample(t), series.n_channels());
    ASSERT_NE(r, PushResult::Rejected);  // DropOldest always enqueues
    (r == PushResult::Ok ? ok : dropped_results)++;
  }
  runtime.close();

  const IngestStats stats = runtime.stats().streams[0];
  EXPECT_EQ(stats.pushed, kPushes);
  EXPECT_EQ(stats.rejected, 0);
  // Every accepted-and-not-evicted sample was scored; nothing else was.
  EXPECT_EQ(runtime.samples_seen(0), stats.pushed - stats.dropped);
  EXPECT_EQ(runtime.samples_seen(1), 0);
  EXPECT_EQ(runtime.stats().streams[1].pushed, 0);
  // A 2-slot ring flooded back-to-back must have evicted something, and
  // DroppedOldest return values must account for at least those evictions
  // observed by this producer.
  EXPECT_GT(stats.dropped, 0);
  EXPECT_GT(dropped_results, 0);
  EXPECT_EQ(ok + dropped_results, kPushes);

  const auto scores = runtime.drain_scores();
  EXPECT_EQ(static_cast<long>(scores.size()), runtime.samples_seen(0));
  for (const StreamScore& s : scores) EXPECT_EQ(s.stream, 0);

  // The aggregate snapshot sums the same counters and carries the full
  // per-stream / per-shard breakdowns.
  const RuntimeStats total = runtime.stats();
  EXPECT_EQ(total.pushed, stats.pushed);
  EXPECT_EQ(total.dropped, stats.dropped);
  EXPECT_EQ(total.rejected, 0);
  ASSERT_EQ(total.streams.size(), 2U);
  EXPECT_EQ(total.streams[0].pushed, stats.pushed);
  EXPECT_EQ(total.streams[0].dropped, stats.dropped);
  EXPECT_EQ(total.streams[1].pushed, 0);
  ASSERT_EQ(total.shards.size(), 1U);
  EXPECT_GT(total.rounds, 0);
  EXPECT_EQ(total.shards[0].rounds, total.rounds);
  EXPECT_EQ(total.naps, total.shards[0].naps);
}

TEST(AsyncScoringRuntime, RejectReturnsAndCountsWithoutBlocking) {
  constexpr long kPushes = 4000;
  AsyncRuntimeConfig cfg;
  cfg.ring_capacity = 2;
  cfg.backpressure = BackpressurePolicy::Reject;
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_stream();
  runtime.set_threshold(1e9F);
  runtime.start();

  const auto series = make_sine(kPushes, false, 6);
  long ok = 0;
  long rejected = 0;
  for (Index t = 0; t < kPushes; ++t) {
    const PushResult r = runtime.push(0, series.sample(t), series.n_channels());
    ASSERT_NE(r, PushResult::DroppedOldest);  // Reject never evicts
    (r == PushResult::Ok ? ok : rejected)++;
  }
  runtime.close();

  const IngestStats stats = runtime.stats().streams[0];
  EXPECT_EQ(stats.pushed, ok);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(ok + rejected, kPushes);
  EXPECT_GT(rejected, 0);  // a 2-slot ring flooded back-to-back must refuse some
  // Exactly the accepted samples were scored, in order.
  EXPECT_EQ(runtime.samples_seen(0), ok);
  const auto scores = runtime.drain_scores();
  ASSERT_EQ(static_cast<long>(scores.size()), ok);
  for (long i = 0; i < ok; ++i) EXPECT_EQ(scores[static_cast<std::size_t>(i)].sample, i);

  // Rejections show up in the aggregate snapshot too.
  const RuntimeStats total = runtime.stats();
  EXPECT_EQ(total.pushed, ok);
  EXPECT_EQ(total.rejected, rejected);
  EXPECT_EQ(total.dropped, 0);
}

TEST(AsyncScoringRuntime, BlockNeverLosesUnderTinyRing) {
  constexpr long kPushes = 3000;
  AsyncRuntimeConfig cfg;
  cfg.ring_capacity = 2;
  cfg.backpressure = BackpressurePolicy::Block;
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_stream();
  runtime.set_threshold(1e9F);
  runtime.start();

  const auto series = make_sine(kPushes, false, 7);
  for (Index t = 0; t < kPushes; ++t)
    ASSERT_EQ(runtime.push(0, series.sample(t), series.n_channels()), PushResult::Ok);
  runtime.close();

  const IngestStats stats = runtime.stats().streams[0];
  EXPECT_EQ(stats.pushed, kPushes);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(runtime.samples_seen(0), kPushes);
}

// ---------------------------------------------------------------------------
// close() drain
// ---------------------------------------------------------------------------

TEST(AsyncScoringRuntime, CloseMidStreamDrainsEverythingAccepted) {
  AsyncRuntimeConfig cfg;
  cfg.ring_capacity = 4096;
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(3);
  runtime.calibrate(rig().train);
  runtime.start();

  // Flood all streams and close immediately: the scorer has certainly not
  // caught up, so close() must drain the backlog before joining.
  const auto series = make_sine(500, true, 8);
  for (Index s = 0; s < 3; ++s)
    for (Index t = 0; t < 500; ++t)
      ASSERT_NE(runtime.push(s, series.sample(t), series.n_channels()), PushResult::Rejected);
  runtime.close();

  long total = 0;
  for (Index s = 0; s < 3; ++s) {
    EXPECT_EQ(runtime.stats().streams[static_cast<std::size_t>(s)].pushed, 500);
    EXPECT_EQ(runtime.samples_seen(s), 500) << "stream " << s << " not fully drained";
    total += runtime.samples_seen(s);
  }
  const auto scores = runtime.drain_scores();
  EXPECT_EQ(static_cast<long>(scores.size()), total);
  EXPECT_TRUE(runtime.drain_scores().empty());  // drained once, queue is empty
}

// ---------------------------------------------------------------------------
// The determinism contract: multi-producer async == synchronous engine
// ---------------------------------------------------------------------------

struct StreamRun {
  std::vector<float> scores;
  std::vector<core::AnomalyEvent> events;
  bool in_alarm = false;
  Index samples_seen = 0;
};

void expect_same_run(const StreamRun& got, const StreamRun& want, Index stream) {
  EXPECT_EQ(got.samples_seen, want.samples_seen) << "stream " << stream;
  ASSERT_EQ(got.scores.size(), want.scores.size()) << "stream " << stream;
  for (std::size_t i = 0; i < got.scores.size(); ++i)
    ASSERT_EQ(got.scores[i], want.scores[i]) << "stream " << stream << " sample " << i;
  ASSERT_EQ(got.events.size(), want.events.size()) << "stream " << stream;
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    EXPECT_EQ(got.events[i].onset_sample, want.events[i].onset_sample);
    EXPECT_EQ(got.events[i].last_sample, want.events[i].last_sample);
    EXPECT_EQ(got.events[i].peak_score, want.events[i].peak_score);
  }
  EXPECT_EQ(got.in_alarm, want.in_alarm) << "stream " << stream;
}

TEST(AsyncScoringRuntime, FourProducersSixteenStreamsMatchSynchronousEngineBitForBit) {
  constexpr Index kStreams = 16;
  constexpr Index kProducers = 4;
  constexpr Index kSamples = 250;

  std::vector<data::MultivariateSeries> inputs;
  for (Index s = 0; s < kStreams; ++s)
    inputs.push_back(make_sine(kSamples, /*planted=*/s % 2 == 0,
                               100 + static_cast<std::uint64_t>(s)));

  // Synchronous reference: one ScoringEngine, all samples pushed up front.
  std::vector<StreamRun> want(kStreams);
  {
    ScoringEngine sync(rig().detector, rig().normalizer, {.max_batch = 8});
    sync.add_streams(kStreams);
    sync.calibrate(rig().train);
    for (Index s = 0; s < kStreams; ++s)
      for (Index t = 0; t < kSamples; ++t) sync.push(s, inputs[static_cast<std::size_t>(s)].sample(t), 3);
    for (const StreamScore& r : sync.step())
      want[static_cast<std::size_t>(r.stream)].scores.push_back(r.score);
    for (Index s = 0; s < kStreams; ++s) {
      auto& w = want[static_cast<std::size_t>(s)];
      w.events = sync.events(s);
      w.in_alarm = sync.in_alarm(s);
      w.samples_seen = sync.samples_seen(s);
    }
  }

  // Async run: 4 producer threads, 4 streams each (one producer per stream —
  // the ordering contract), tiny rings so Block backpressure actually bites,
  // scorer overlapping with the producers throughout.
  AsyncRuntimeConfig cfg;
  cfg.ring_capacity = 16;
  cfg.backpressure = BackpressurePolicy::Block;
  cfg.engine = {.max_batch = 8};
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(kStreams);
  runtime.calibrate(rig().train);
  runtime.start();

  std::atomic<long> accepted{0};
  std::vector<std::thread> producers;
  for (Index p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Interleave this producer's streams sample by sample so rounds mix
      // streams from all producers.
      for (Index t = 0; t < kSamples; ++t) {
        for (Index s = p; s < kStreams; s += kProducers) {
          const PushResult r = runtime.push(s, inputs[static_cast<std::size_t>(s)].sample(t), 3);
          ASSERT_EQ(r, PushResult::Ok);
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Poll scores concurrently, as a serving frontend would. Deadline-bounded
  // so a delivery regression fails with a diagnostic instead of hanging
  // until the ctest timeout.
  std::vector<StreamRun> got(kStreams);
  long received = 0;
  Backoff backoff;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  while (received < kStreams * kSamples) {
    if (std::chrono::steady_clock::now() > deadline) break;
    const auto batch = runtime.drain_scores();
    if (batch.empty()) {
      backoff.wait();
      continue;
    }
    backoff.reset();
    for (const StreamScore& r : batch) {
      auto& run = got[static_cast<std::size_t>(r.stream)];
      // Per-stream order must be producer order even before the final check.
      ASSERT_EQ(r.sample, static_cast<Index>(run.scores.size()))
          << "stream " << r.stream << " scored out of order";
      run.scores.push_back(r.score);
      ++received;
    }
  }
  if (received < kStreams * kSamples) {
    runtime.close();  // unblock any producer stuck in a Block push
    for (std::thread& t : producers) t.join();
    FAIL() << "score delivery stalled: " << received << "/" << kStreams * kSamples
           << " received before the deadline";
  }
  for (std::thread& t : producers) t.join();
  runtime.close();

  EXPECT_EQ(accepted.load(), kStreams * kSamples);
  EXPECT_TRUE(runtime.drain_scores().empty());
  EXPECT_GT(runtime.stats().rounds, 0);
  for (Index s = 0; s < kStreams; ++s) {
    auto& g = got[static_cast<std::size_t>(s)];
    g.events = runtime.events(s);
    g.in_alarm = runtime.in_alarm(s);
    g.samples_seen = runtime.samples_seen(s);
    expect_same_run(g, want[static_cast<std::size_t>(s)], s);
  }
}

TEST(AsyncScoringRuntime, StatsSnapshotIsConsistentUnderConcurrentTraffic) {
  // Pins the RuntimeStats memory-order contract (see runtime.hpp): while
  // producers hammer push() and scorers drain, every counter read by
  // stats() is an untorn relaxed load, individually monotonic across
  // repeated snapshots, and never exceeds what has demonstrably happened
  // (per-counter sanity, not cross-counter — relaxed loads order nothing
  // across locations). Run under TSan by the concurrency job, which is
  // where a torn or racy read would actually be diagnosed.
  constexpr Index kStreams = 4;
  constexpr Index kPushes = 400;
  AsyncRuntimeConfig cfg;
  cfg.ring_capacity = 16;
  cfg.backpressure = BackpressurePolicy::DropOldest;
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer, cfg);
  runtime.add_streams(kStreams);
  runtime.set_threshold(1e9F);
  runtime.start();

  const auto series = make_sine(kPushes, false, 21);
  std::vector<std::thread> producers;
  for (Index s = 0; s < kStreams; ++s)
    producers.emplace_back([&runtime, &series, s] {
      for (Index t = 0; t < kPushes; ++t)
        runtime.push(s, series.sample(t), series.n_channels());
    });

  // Snapshot continuously while the producers run: each aggregate counter
  // must be monotone from one snapshot to the next, and per-stream /
  // per-shard breakdowns must always sum to the aggregates (stats() builds
  // the totals from the same loads, so this is exact even mid-traffic).
  RuntimeStats prev;
  for (int iter = 0; iter < 200; ++iter) {
    const RuntimeStats s = runtime.stats();
    EXPECT_GE(s.pushed, prev.pushed);
    EXPECT_GE(s.dropped, prev.dropped);
    EXPECT_GE(s.rejected, prev.rejected);
    EXPECT_GE(s.rounds, prev.rounds);
    EXPECT_GE(s.naps, prev.naps);
    EXPECT_GE(s.scored, prev.scored);
    EXPECT_LE(s.pushed, kStreams * kPushes);
    long stream_pushed = 0;
    long stream_dropped = 0;
    for (const IngestStats& is : s.streams) {
      stream_pushed += is.pushed;
      stream_dropped += is.dropped;
    }
    EXPECT_EQ(stream_pushed, s.pushed);
    EXPECT_EQ(stream_dropped, s.dropped);
    long shard_scored = 0;
    for (const ShardStats& ss : s.shards) shard_scored += ss.scored;
    EXPECT_EQ(shard_scored, s.scored);
    prev = s;
  }

  for (std::thread& t : producers) t.join();
  runtime.close();

  // Quiescent: exact, and the cross-counter invariants hold with equality.
  const RuntimeStats fin = runtime.stats();
  EXPECT_EQ(fin.pushed, kStreams * kPushes);
  EXPECT_EQ(fin.rejected, 0);
  EXPECT_LE(fin.dropped, fin.pushed);
  EXPECT_EQ(fin.scored, fin.pushed - fin.dropped);
  EXPECT_EQ(static_cast<long>(runtime.drain_scores().size()), fin.scored);
}

// ---------------------------------------------------------------------------
// The scores-ready hook
// ---------------------------------------------------------------------------

/// Scores a sample with its own normalised channel-0 value and ignores the
/// context, so every score names the input sample it scored: a DropOldest
/// run can then be checked sample by sample against the synchronous engine.
class EchoDetector final : public core::AnomalyDetector {
 public:
  std::string name() const override { return "Echo"; }
  void fit(const data::MultivariateSeries&) override {}
  void score_batch(const Tensor&, const Tensor& observed, float* out) override {
    for (Index r = 0; r < observed.dim(0); ++r) out[r] = observed.data()[r * observed.dim(1)];
  }
  std::unique_ptr<core::AnomalyDetector> clone_fitted() const override {
    return std::make_unique<EchoDetector>();
  }
  Index context_window() const override { return 1; }
  edge::ModelCost cost() const override { return {}; }
  bool fitted() const override { return true; }
};

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(AsyncScoringRuntime, ScoresReadyHookNeverLosesAWakeup) {
  // The consumer drains only when the hook has signalled, and resets the
  // signal before each drain (the contract in runtime.hpp). A single lost
  // wakeup leaves scores in a queue that nobody drains, and the 10 s
  // deadline fails the run; there is no timed polling to paper over it.
  constexpr Index kStreams = 8;
  constexpr Index kProducers = 2;
  constexpr Index kSamples = 300;
  EchoDetector echo;
  const data::MinMaxNormalizer& normalizer = rig().normalizer;

  // Distinct channel-0 values per sample, inside the normaliser's range.
  data::MultivariateSeries input(3);
  for (Index t = 0; t < kSamples; ++t) {
    const float v = -0.9F + 1.8F * (static_cast<float>(t) + 0.5F) / static_cast<float>(kSamples);
    input.append(std::vector<float>{v, 0.0F, 0.0F});
  }
  // Synchronous reference: the engine's score of each sample, and which
  // sample each score's bits name.
  std::vector<float> want(kSamples);
  std::map<std::uint32_t, Index> sample_of;
  {
    ScoringEngine sync(echo, normalizer);
    sync.add_stream();
    sync.set_threshold(1e9F);
    for (Index t = 0; t < kSamples; ++t) sync.push(0, input.sample(t), 3);
    for (const StreamScore& r : sync.step()) {
      want[static_cast<std::size_t>(r.sample)] = r.score;
      if (r.sample > 0) sample_of[bits_of(r.score)] = r.sample;
    }
    ASSERT_EQ(sample_of.size(), static_cast<std::size_t>(kSamples - 1));
  }

  for (const BackpressurePolicy policy : {BackpressurePolicy::Block, BackpressurePolicy::DropOldest}) {
    for (const Index shards : {1, 2, 4}) {
      SCOPED_TRACE(std::string(to_string(policy)) + ", " + std::to_string(shards) + " shards");
      AsyncRuntimeConfig cfg;
      cfg.ring_capacity = 4;  // Block stalls and DropOldest evicts, often
      cfg.backpressure = policy;
      cfg.n_shards = shards;
      AsyncScoringRuntime runtime(echo, normalizer, cfg);
      runtime.add_streams(kStreams);
      runtime.set_threshold(1e9F);

      std::mutex mu;
      std::condition_variable cv;
      bool rung = false;    // guarded by mu: the hook fired since the last reset
      long target = -1;     // guarded by mu: scores to expect, once pushes end
      std::atomic<bool> close_returned{false};
      std::atomic<long> late_calls{0};
      runtime.set_scores_ready([&] {
        if (close_returned.load()) late_calls.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(mu);
          rung = true;
        }
        cv.notify_one();
      });
      runtime.start();

      std::vector<std::vector<float>> got(kStreams);
      bool stalled = false;
      std::thread consumer([&] {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        long received = 0;
        for (;;) {
          {
            std::unique_lock<std::mutex> lock(mu);
            if (!cv.wait_until(lock, deadline,
                               [&] { return rung || (target >= 0 && received >= target); })) {
              stalled = true;
              return;
            }
            if (!rung) return;  // everything arrived and no ring is pending
            rung = false;       // reset before the drain
          }
          for (const StreamScore& r : runtime.drain_scores()) {
            got[static_cast<std::size_t>(r.stream)].push_back(r.score);
            ++received;
          }
        }
      });
      std::vector<std::thread> producers;
      for (Index p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (Index t = 0; t < kSamples; ++t)
            for (Index s = p; s < kStreams; s += kProducers)
              EXPECT_NE(runtime.push(s, input.sample(t), 3), PushResult::Rejected);
        });
      }
      for (std::thread& t : producers) t.join();
      // No push is in flight: pushed - dropped is now the final score count.
      const RuntimeStats pushed = runtime.stats();
      {
        std::lock_guard<std::mutex> lock(mu);
        target = pushed.pushed - pushed.dropped;
      }
      cv.notify_one();
      consumer.join();
      runtime.close();
      close_returned.store(true);
      ASSERT_FALSE(stalled) << "a scores-ready wakeup was lost";

      const RuntimeStats fin = runtime.stats();
      EXPECT_EQ(fin.pushed, kStreams * kSamples);
      if (policy == BackpressurePolicy::Block) {
        EXPECT_EQ(fin.dropped, 0);
      }
      EXPECT_EQ(fin.scored, fin.pushed - fin.dropped);
      EXPECT_TRUE(runtime.drain_scores().empty());
      // Each stream's scores are the synchronous engine's scores of the
      // samples it kept, bit for bit and in push order: the warm-up score,
      // then strictly increasing sample positions (all of them under Block).
      long received = 0;
      for (Index s = 0; s < kStreams; ++s) {
        const std::vector<float>& scores = got[static_cast<std::size_t>(s)];
        const IngestStats& st = fin.streams[static_cast<std::size_t>(s)];
        ASSERT_EQ(static_cast<long>(scores.size()), st.pushed - st.dropped) << "stream " << s;
        ASSERT_FALSE(scores.empty());
        EXPECT_EQ(bits_of(scores[0]), bits_of(want[0])) << "stream " << s;
        Index last = 0;
        for (std::size_t k = 1; k < scores.size(); ++k) {
          const auto it = sample_of.find(bits_of(scores[k]));
          ASSERT_NE(it, sample_of.end()) << "stream " << s << " score " << k << " names no sample";
          ASSERT_GT(it->second, last) << "stream " << s << " scored out of order";
          if (policy == BackpressurePolicy::Block) {
            ASSERT_EQ(it->second, static_cast<Index>(k)) << "stream " << s;
          }
          last = it->second;
        }
        received += static_cast<long>(scores.size());
      }
      EXPECT_EQ(received, fin.scored);
      // The scorers are joined: nothing calls the hook any more.
      EXPECT_EQ(runtime.push(0, input.sample(0), 3), PushResult::Rejected);
      EXPECT_EQ(late_calls.load(), 0);
    }
  }
}

/// EchoDetector whose first advance_streams call (the first round's fold)
/// blocks until the test opens the gate, so input can queue up behind a
/// round that is still running.
class GatedEchoDetector final : public core::AnomalyDetector {
 public:
  std::string name() const override { return "GatedEcho"; }
  void fit(const data::MultivariateSeries&) override {}
  void score_batch(const Tensor& contexts, const Tensor& observed, float* out) override {
    echo_.score_batch(contexts, observed, out);
  }
  std::unique_ptr<core::AnomalyDetector> clone_fitted() const override {
    return std::make_unique<EchoDetector>();
  }
  Index context_window() const override { return 1; }
  edge::ModelCost cost() const override { return {}; }
  bool fitted() const override { return true; }
  void advance_streams(const core::StreamBatch& batch, core::StreamScratch& scratch) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!entered_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return open_; });
      }
    }
    core::AnomalyDetector::advance_streams(batch, scratch);
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  EchoDetector echo_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

TEST(AsyncScoringRuntime, ScoresReadyHookWaitsUntilTheScorerRunsOutOfInput) {
  // Sample 0 is scored alone, in a round held open at its fold; samples 1-3
  // queue behind it and form a second round. The hook fires once, after
  // both rounds, when the scorer finds its rings empty — not after the first
  // round, whose scores reached an empty queue while input was waiting. Each
  // round is counted before its scores are visible, so the call sees both.
  GatedEchoDetector gated;
  AsyncScoringRuntime runtime(gated, rig().normalizer);
  runtime.add_stream();
  runtime.set_threshold(1e9F);
  std::vector<std::pair<long, long>> seen_at_call;  // (scored, rounds); scorer thread only
  runtime.set_scores_ready([&] {
    const RuntimeStats st = runtime.stats();
    seen_at_call.emplace_back(st.scored, st.rounds);
  });
  runtime.start();
  const std::vector<float> sample{0.1F, 0.0F, 0.0F};
  ASSERT_EQ(runtime.push(0, sample.data(), 3), PushResult::Ok);
  gated.wait_entered();
  for (int k = 0; k < 3; ++k) ASSERT_EQ(runtime.push(0, sample.data(), 3), PushResult::Ok);
  gated.open();
  runtime.close();  // joins the scorer: seen_at_call is final
  const std::vector<std::pair<long, long>> want{{4, 2}};
  EXPECT_EQ(seen_at_call, want);
  EXPECT_EQ(runtime.drain_scores().size(), 4U);
}

TEST(AsyncScoringRuntime, DestructorClosesAndDrains) {
  // No close(): the destructor must drain the rings and join the scorer
  // with samples still in flight — under ASan and TSan this pins that an
  // un-closed runtime tears down without a leak, race or hang. The drain
  // guarantee itself is pinned by CloseMidStreamDrainsEverythingAccepted.
  const auto series = make_sine(100, false, 12);
  AsyncScoringRuntime runtime(rig().detector, rig().normalizer);
  runtime.add_stream();
  runtime.set_threshold(1e9F);
  runtime.start();
  for (Index t = 0; t < 100; ++t)
    ASSERT_EQ(runtime.push(0, series.sample(t), series.n_channels()), PushResult::Ok);
}

}  // namespace
}  // namespace varade::serve
