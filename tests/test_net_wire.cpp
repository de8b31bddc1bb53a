// Tests for varade::net: wire-protocol round-trips, the malformed-input
// sweep (every rejection path is a named error, never UB — this binary runs
// under ASan/UBSan in ci.sh --sanitize), and the loopback end-to-end parity
// suite pinning the serving determinism contract across the socket: scores
// and alarm events received by concurrent clients are bit-identical to a
// synchronous in-process ScoringEngine fed the same samples. Carries the
// `concurrency` label, so the daemon + multi-client suites also run under
// ThreadSanitizer (ci.sh --tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <poll.h>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

#include "varade/core/varade.hpp"
#include "varade/net/client.hpp"
#include "varade/net/shm.hpp"
#include "varade/net/server.hpp"
#include "varade/net/socket.hpp"
#include "varade/net/wire.hpp"
#include "varade/obs/telemetry.hpp"
#include "varade/serve/scoring_engine.hpp"

namespace varade::net {
namespace {

// ---------------------------------------------------------------------------
// Wire round-trips
// ---------------------------------------------------------------------------

/// Feeds `bytes` into a FrameReader either whole or one byte at a time and
/// returns every complete frame.
std::vector<Frame> reparse(const std::vector<std::uint8_t>& bytes, bool byte_at_a_time) {
  FrameReader reader;
  std::vector<Frame> frames;
  Frame frame;
  if (byte_at_a_time) {
    for (const std::uint8_t b : bytes) {
      reader.feed(&b, 1);
      while (reader.next(frame)) frames.push_back(frame);
    }
  } else {
    reader.feed(bytes.data(), bytes.size());
    while (reader.next(frame)) frames.push_back(frame);
  }
  EXPECT_EQ(reader.buffered(), 0U);
  return frames;
}

TEST(Wire, EveryFrameTypeRoundTrips) {
  std::vector<std::uint8_t> bytes;
  append_hello(bytes, serve::BackpressurePolicy::Reject);
  append_hello(bytes);  // daemon-default policy request
  append_welcome(bytes, {.n_streams = 16,
                         .n_channels = 3,
                         .threshold = 0.75F,
                         .policy = serve::BackpressurePolicy::DropOldest});
  const float values[3] = {0.25F, -1.5F, 3.0F};
  append_sample(bytes, 7, 42, values, 3);
  append_score(bytes, 7, 42, 0.125F);
  append_alarm(bytes, {.stream = 7,
                       .onset_sample = 40,
                       .last_sample = 44,
                       .peak_score = 2.5F,
                       .raised = true});
  append_nack(bytes, {.stream = 7,
                      .seq = 43,
                      .result = serve::PushResult::Rejected,
                      .reason = NackReason::StreamBusy});
  append_shutdown(bytes);
  append_goodbye(bytes);
  append_wire_error(bytes, "net: something went wrong");
  const float batch_values[6] = {1.0F, 2.0F, 3.0F, -4.0F, 5.5F, -6.25F};
  append_sample_batch(bytes, 9, 1000, batch_values, 2, 3);
  append_hello(bytes, serve::BackpressurePolicy::Block,
               kFeatureSampleBatch | kFeatureShm);  // feature-bearing HELLO
  append_welcome(bytes, {.n_streams = 4,
                         .n_channels = 3,
                         .threshold = 0.5F,
                         .policy = serve::BackpressurePolicy::Block,
                         .features = kFeatureSampleBatch});
  append_nack(bytes, {.stream = 9,
                      .seq = 1001,
                      .result = serve::PushResult::Rejected,
                      .reason = NackReason::MalformedSample});

  for (const bool byte_wise : {false, true}) {
    const std::vector<Frame> frames = reparse(bytes, byte_wise);
    ASSERT_EQ(frames.size(), 14U);

    const HelloData h0 = decode_hello(frames[0]);
    EXPECT_EQ(h0.policy, serve::BackpressurePolicy::Reject);
    EXPECT_EQ(h0.features, 0);  // no features requested
    EXPECT_EQ(decode_hello(frames[1]).policy, std::nullopt);

    const Welcome w = decode_welcome(frames[2]);
    EXPECT_EQ(w.n_streams, 16);
    EXPECT_EQ(w.n_channels, 3);
    EXPECT_EQ(w.threshold, 0.75F);
    EXPECT_EQ(w.policy, serve::BackpressurePolicy::DropOldest);

    SampleData sample;
    decode_sample(frames[3], 3, sample);
    EXPECT_EQ(sample.stream, 7);
    EXPECT_EQ(sample.seq, 42U);
    ASSERT_EQ(sample.values.size(), 3U);
    EXPECT_EQ(std::memcmp(sample.values.data(), values, sizeof(values)), 0);

    const ScoreData score = decode_score(frames[4]);
    EXPECT_EQ(score.stream, 7);
    EXPECT_EQ(score.sample, 42U);
    EXPECT_EQ(score.score, 0.125F);

    const AlarmData alarm = decode_alarm(frames[5]);
    EXPECT_EQ(alarm.stream, 7);
    EXPECT_EQ(alarm.onset_sample, 40U);
    EXPECT_EQ(alarm.last_sample, 44U);
    EXPECT_EQ(alarm.peak_score, 2.5F);
    EXPECT_TRUE(alarm.raised);

    const NackData nack = decode_nack(frames[6]);
    EXPECT_EQ(nack.stream, 7);
    EXPECT_EQ(nack.seq, 43U);
    EXPECT_EQ(nack.result, serve::PushResult::Rejected);
    EXPECT_EQ(nack.reason, NackReason::StreamBusy);

    EXPECT_EQ(frames[7].type, FrameType::Shutdown);
    EXPECT_EQ(frames[8].type, FrameType::Goodbye);
    EXPECT_EQ(decode_wire_error(frames[9]), "net: something went wrong");

    SampleBatchData batch;
    decode_sample_batch(frames[10], 3, batch);
    EXPECT_EQ(batch.stream, 9);
    EXPECT_EQ(batch.base_seq, 1000U);
    EXPECT_EQ(batch.count, 2);
    EXPECT_EQ(batch.valid, 2);
    EXPECT_EQ(batch.bad_channel, -1);
    ASSERT_EQ(batch.values.size(), 6U);
    EXPECT_EQ(std::memcmp(batch.values.data(), batch_values, sizeof(batch_values)), 0);

    const HelloData h11 = decode_hello(frames[11]);
    EXPECT_EQ(h11.policy, serve::BackpressurePolicy::Block);
    EXPECT_EQ(h11.features, kFeatureSampleBatch | kFeatureShm);

    const Welcome w12 = decode_welcome(frames[12]);
    EXPECT_EQ(w12.n_streams, 4);
    EXPECT_EQ(w12.features, kFeatureSampleBatch);

    const NackData n13 = decode_nack(frames[13]);
    EXPECT_EQ(n13.seq, 1001U);
    EXPECT_EQ(n13.reason, NackReason::MalformedSample);
  }
}

TEST(Wire, ScoresTravelBitExactly) {
  // Denormals, negative zero, extremes: the payload is the IEEE-754 bit
  // pattern, so every value round-trips to the identical bits.
  const float cases[] = {0.0F, -0.0F, 1e-45F, std::numeric_limits<float>::max(),
                         -std::numeric_limits<float>::min(), 3.14159265F};
  for (const float v : cases) {
    std::vector<std::uint8_t> bytes;
    append_score(bytes, 0, 0, v);
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(reader.next(frame));
    const ScoreData score = decode_score(frame);
    EXPECT_EQ(std::memcmp(&score.score, &v, sizeof(float)), 0);
  }
}

// ---------------------------------------------------------------------------
// Malformed-input sweep: every rejection is a named error
// ---------------------------------------------------------------------------

/// Expects feeding `bytes` to throw an Error whose message contains `what`.
void expect_feed_error(std::vector<std::uint8_t> bytes, const std::string& what) {
  FrameReader reader;
  try {
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    while (reader.next(frame)) {
    }
    FAIL() << "expected an Error containing \"" << what << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(WireMalformed, BadMagic) {
  std::vector<std::uint8_t> bytes;
  append_shutdown(bytes);
  bytes[0] = 0x00;
  expect_feed_error(bytes, "bad magic byte");
}

TEST(WireMalformed, BadVersion) {
  std::vector<std::uint8_t> bytes;
  append_shutdown(bytes);
  bytes[1] = 9;
  expect_feed_error(bytes, "unsupported wire version 9");
}

TEST(WireMalformed, UnknownFrameType) {
  // 7 and 8 sit inside the Hello..SampleBatch range but are retired bytes.
  for (const int type : {0, 7, 8, 13, 200}) {
    std::vector<std::uint8_t> bytes;
    append_shutdown(bytes);
    bytes[2] = static_cast<std::uint8_t>(type);
    expect_feed_error(bytes, "unknown frame type " + std::to_string(type));
  }
}

TEST(WireMalformed, NonzeroReservedByte) {
  std::vector<std::uint8_t> bytes;
  append_shutdown(bytes);
  bytes[3] = 1;
  expect_feed_error(bytes, "nonzero reserved header byte");
}

TEST(WireMalformed, OversizedLength) {
  // Header claims a payload beyond kMaxPayload: rejected from the header
  // alone, before any payload is buffered (or allocated).
  std::vector<std::uint8_t> bytes = {kMagic, kWireVersion,
                                     static_cast<std::uint8_t>(FrameType::Sample),
                                     0,      0xFF,         0xFF,
                                     0xFF,   0x7F};
  expect_feed_error(bytes, "oversized frame length");
}

TEST(WireMalformed, TruncatedFrameIsDetectableAtEof) {
  std::vector<std::uint8_t> bytes;
  const float values[3] = {1.0F, 2.0F, 3.0F};
  append_sample(bytes, 0, 0, values, 3);
  bytes.resize(bytes.size() - 5);  // peer dies mid-payload
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_FALSE(reader.next(frame));
  EXPECT_GT(reader.buffered(), 0U);  // what a connection checks at EOF
}

TEST(WireMalformed, GoodFrameBeforeGarbageIsStillDelivered) {
  std::vector<std::uint8_t> bytes;
  append_goodbye(bytes);
  bytes.push_back(0x13);  // garbage follows a complete well-formed frame
  bytes.resize(bytes.size() + 7, 0);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());  // front header is fine: no throw
  Frame frame;
  ASSERT_TRUE(reader.next(frame));  // the good frame is delivered first...
  EXPECT_EQ(frame.type, FrameType::Goodbye);
  EXPECT_THROW(reader.next(frame), Error);  // ...then the garbage is named
  // The error poisons the reader permanently.
  EXPECT_THROW(reader.next(frame), Error);
  const std::uint8_t byte = 0;
  EXPECT_THROW(reader.feed(&byte, 1), Error);
}

TEST(WireMalformed, GarbageAfterAFrameFiresOnNextCallNotOnDelivery) {
  // Fed incrementally (frame first, garbage later), the good frame is
  // delivered before the following garbage header is even complete.
  std::vector<std::uint8_t> bytes;
  append_goodbye(bytes);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::Goodbye);
  const std::uint8_t garbage[kHeaderSize] = {0x13, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_THROW(reader.feed(garbage, sizeof(garbage)), Error);
}

TEST(WireMalformed, WrongPayloadSize) {
  std::vector<std::uint8_t> bytes;
  const float values[3] = {1.0F, 2.0F, 3.0F};
  append_sample(bytes, 0, 0, values, 3);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  SampleData sample;
  try {
    decode_sample(frame, 5, sample);  // server expects 5 channels
    FAIL() << "expected a payload-size Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("SAMPLE frame payload is"), std::string::npos);
  }
  // HELLO and WELCOME have one layout each (2 and 14 bytes), so a 1-byte
  // HELLO or a 13-byte WELCOME is a size error too.
  const std::vector<std::uint8_t> zeros(13, 0);
  EXPECT_THROW(decode_hello({FrameType::Hello, {zeros.begin(), zeros.begin() + 1}}), Error);
  EXPECT_THROW(decode_welcome({FrameType::Welcome, zeros}), Error);
}

TEST(WireMalformed, NonFiniteSampleValueIsNamedByChannel) {
  std::vector<std::uint8_t> bytes;
  const float values[3] = {1.0F, std::numeric_limits<float>::quiet_NaN(), 3.0F};
  append_sample(bytes, 4, 9, values, 3);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  SampleData sample;
  try {
    decode_sample(frame, 3, sample);
    FAIL() << "expected a non-finite Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite value in SAMPLE frame (stream 4, channel 1)"),
              std::string::npos)
        << "actual message: " << e.what();
  }
  // Infinities are equally rejected.
  bytes.clear();
  const float inf_values[3] = {std::numeric_limits<float>::infinity(), 0.0F, 0.0F};
  append_sample(bytes, 0, 0, inf_values, 3);
  FrameReader fresh;
  fresh.feed(bytes.data(), bytes.size());
  ASSERT_TRUE(fresh.next(frame));
  EXPECT_THROW(decode_sample(frame, 3, sample), Error);
}

TEST(WireMalformed, BadEnumBytes) {
  std::vector<std::uint8_t> bytes;
  append_hello(bytes, serve::BackpressurePolicy::Block);
  bytes[kHeaderSize] = 7;  // policy byte
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  EXPECT_THROW(decode_hello(frame), Error);

  bytes.clear();
  append_nack(bytes, {});
  bytes[kHeaderSize + 12] = 9;  // PushResult byte
  FrameReader r2;
  r2.feed(bytes.data(), bytes.size());
  ASSERT_TRUE(r2.next(frame));
  EXPECT_THROW(decode_nack(frame), Error);

  bytes.clear();
  append_alarm(bytes, {});
  bytes[kHeaderSize + 24] = 2;  // raised byte
  FrameReader r3;
  r3.feed(bytes.data(), bytes.size());
  ASSERT_TRUE(r3.next(frame));
  EXPECT_THROW(decode_alarm(frame), Error);
}

TEST(WireMalformed, OversizedEncodeIsRejectedToo) {
  std::vector<std::uint8_t> out;
  std::vector<float> values(static_cast<std::size_t>(kMaxPayload) / 4 + 16, 0.0F);
  EXPECT_THROW(
      append_sample(out, 0, 0, values.data(), static_cast<Index>(values.size())), Error);
}

// ---------------------------------------------------------------------------
// SAMPLE_BATCH: graceful truncation + the structural rejection sweep
// ---------------------------------------------------------------------------

TEST(Wire, SampleBatchTruncatesAtFirstNonFiniteValue) {
  // Unlike SAMPLE (where a non-finite value throws), SAMPLE_BATCH degrades
  // gracefully: the valid prefix is delivered with the offending row and
  // channel named, so the server can NACK just the tail and keep the
  // connection (and every sample before the bad one) alive.
  float values[12];  // 4 samples x 3 channels
  for (int i = 0; i < 12; ++i) values[i] = static_cast<float>(i) * 0.5F;
  values[7] = std::numeric_limits<float>::quiet_NaN();  // sample 2, channel 1
  std::vector<std::uint8_t> bytes;
  append_sample_batch(bytes, 3, 50, values, 4, 3);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  SampleBatchData batch;
  decode_sample_batch(frame, 3, batch);
  EXPECT_EQ(batch.stream, 3);
  EXPECT_EQ(batch.base_seq, 50U);
  EXPECT_EQ(batch.count, 4);
  EXPECT_EQ(batch.valid, 2);
  EXPECT_EQ(batch.bad_channel, 1);
  ASSERT_EQ(batch.values.size(), 6U);  // only the valid prefix survives
  EXPECT_EQ(std::memcmp(batch.values.data(), values, 6 * sizeof(float)), 0);

  // A bad value in the very first sample leaves nothing valid.
  values[1] = std::numeric_limits<float>::infinity();
  bytes.clear();
  append_sample_batch(bytes, 3, 50, values, 4, 3);
  FrameReader r2;
  r2.feed(bytes.data(), bytes.size());
  ASSERT_TRUE(r2.next(frame));
  decode_sample_batch(frame, 3, batch);
  EXPECT_EQ(batch.valid, 0);
  EXPECT_EQ(batch.bad_channel, 1);
  EXPECT_TRUE(batch.values.empty());
}

/// Decodes `bytes` (one frame) as SAMPLE_BATCH, expecting an Error naming
/// `what`. Void so gtest ASSERTs can early-return.
void expect_batch_error(const std::vector<std::uint8_t>& bytes, Index n_channels,
                        const std::string& what) {
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  SampleBatchData batch;
  try {
    decode_sample_batch(frame, n_channels, batch);
    FAIL() << "expected an Error containing \"" << what << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(WireMalformed, SampleBatchStructuralSweep) {
  // Payload shorter than the 16-byte batch header.
  {
    const std::uint8_t short_payload[10] = {};
    std::vector<std::uint8_t> bytes;
    append_frame(bytes, FrameType::SampleBatch, short_payload, sizeof(short_payload));
    expect_batch_error(bytes, 3, "shorter than the 16-byte batch header");
  }
  // count = 0: a batch must carry at least one sample.
  {
    std::uint8_t payload[16] = {};  // stream 0, base_seq 0, count 0
    std::vector<std::uint8_t> bytes;
    append_frame(bytes, FrameType::SampleBatch, payload, sizeof(payload));
    expect_batch_error(bytes, 3, "carries zero samples");
  }
  // count above the cap is rejected from the header alone, before the size
  // arithmetic could overflow or a giant values vector could be reserved.
  {
    std::uint8_t payload[16] = {};
    const std::uint32_t count = kMaxBatchSamples + 1;
    payload[12] = static_cast<std::uint8_t>(count);
    payload[13] = static_cast<std::uint8_t>(count >> 8);
    payload[14] = static_cast<std::uint8_t>(count >> 16);
    payload[15] = static_cast<std::uint8_t>(count >> 24);
    std::vector<std::uint8_t> bytes;
    append_frame(bytes, FrameType::SampleBatch, payload, sizeof(payload));
    expect_batch_error(bytes, 3, "exceeds the 4096-sample cap");
  }
  // Payload size disagreeing with count x n_channels (here: a valid 3-channel
  // frame decoded by a 5-channel server).
  {
    const float values[6] = {1.0F, 2.0F, 3.0F, 4.0F, 5.0F, 6.0F};
    std::vector<std::uint8_t> bytes;
    append_sample_batch(bytes, 0, 0, values, 2, 3);
    expect_batch_error(bytes, 5, "SAMPLE_BATCH frame payload is");
  }
  // Encode-side: the count range and the payload cap hold there too.
  {
    std::vector<std::uint8_t> out;
    const float v = 0.0F;
    EXPECT_THROW(append_sample_batch(out, 0, 0, &v, 0, 1), Error);
    std::vector<float> huge(static_cast<std::size_t>(kMaxBatchSamples) * 80, 0.0F);
    EXPECT_THROW(append_sample_batch(out, 0, 0, huge.data(),
                                     static_cast<Index>(kMaxBatchSamples) + 1, 80),
                 Error);
    // In-range count whose payload still exceeds kMaxPayload: 4096 x 80
    // channels is ~1.3 MiB.
    EXPECT_THROW(append_sample_batch(out, 0, 0, huge.data(),
                                     static_cast<Index>(kMaxBatchSamples), 80),
                 Error);
  }
}

TEST(WireMalformed, SampleBatchFuzzedPayloadsNeverMisbehave) {
  // Deterministic fuzz over the decoder: random payload bytes at random
  // lengths (biased around the 16-byte header boundary) must either decode
  // with coherent invariants or throw a named varade::Error — never UB.
  // This binary runs under ASan/UBSan in ci.sh --sanitize, which is what
  // turns "never UB" into an enforced claim.
  Rng rng(7);
  SampleBatchData batch;
  for (int iter = 0; iter < 3000; ++iter) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::uint8_t> payload(len);
    for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (!payload.empty() && rng.uniform_int(0, 1) == 0) {
      // Half the runs carry a small plausible count so the size-mismatch and
      // truncation paths get real coverage (pure noise almost always dies at
      // the count check).
      const std::uint32_t count = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
      if (payload.size() >= 16) {
        payload[12] = static_cast<std::uint8_t>(count);
        payload[13] = payload[14] = payload[15] = 0;
      }
    }
    std::vector<std::uint8_t> bytes;
    append_frame(bytes, FrameType::SampleBatch, payload.data(), payload.size());
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(reader.next(frame));
    try {
      decode_sample_batch(frame, 3, batch);
      ASSERT_GE(batch.count, 1);
      ASSERT_LE(batch.count, static_cast<Index>(kMaxBatchSamples));
      ASSERT_GE(batch.valid, 0);
      ASSERT_LE(batch.valid, batch.count);
      ASSERT_EQ(batch.values.size(), static_cast<std::size_t>(batch.valid) * 3);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("net:"), std::string::npos)
          << "unnamed error: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Shared-memory segment validation + the SPSC ring under threads
// ---------------------------------------------------------------------------

TEST(ShmSegment, ValidationNamesEveryDefect) {
  const std::size_t ring = kShmMinRingBytes;
  std::vector<std::uint8_t> seg(shm_segment_size(ring));
  shm_init_segment(seg.data(), ring);
  EXPECT_EQ(shm_validate_segment(seg.data(), seg.size()), ring);

  // Each case plants one defect in an otherwise-valid header and expects the
  // validator to name it (attach() runs this before trusting a single byte
  // of a peer-provided mapping).
  const auto expect_invalid = [&](const ShmSegmentHeader& header, std::size_t mapped_bytes,
                                  const std::string& what) {
    std::vector<std::uint8_t> bad(std::max(mapped_bytes, sizeof(ShmSegmentHeader)), 0);
    std::memcpy(bad.data(), &header, sizeof(header));
    try {
      shm_validate_segment(bad.data(), mapped_bytes);
      FAIL() << "expected an Error containing \"" << what << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "actual message: " << e.what();
    }
  };

  ShmSegmentHeader good;
  good.ring_bytes = static_cast<std::uint32_t>(ring);

  expect_invalid(good, sizeof(ShmSegmentHeader) - 1, "smaller than its own header");
  {
    ShmSegmentHeader h = good;
    h.magic ^= 0xFF;
    expect_invalid(h, shm_segment_size(ring), "bad magic");
  }
  {
    ShmSegmentHeader h = good;
    h.version = 9;
    expect_invalid(h, shm_segment_size(ring), "version 9");
  }
  {
    ShmSegmentHeader h = good;
    h.ring_bytes = 12288;  // within bounds but not a power of two
    expect_invalid(h, shm_segment_size(12288), "not a power of two");
  }
  {
    ShmSegmentHeader h = good;
    h.ring_bytes = 1024;  // a power of two below the minimum
    expect_invalid(h, shm_segment_size(ring), "outside");
  }
  {
    ShmSegmentHeader h = good;
    // The claimed layout needs more bytes than the mapping has: a truncated
    // (or lying) segment must die here, not at the first ring access.
    expect_invalid(h, shm_segment_size(ring) - 1, "its header claims");
  }

  // And pure garbage headers: 64 random bytes must always be rejected with a
  // named error (never validated, never UB).
  Rng rng(21);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> bad(sizeof(ShmSegmentHeader));
    for (std::uint8_t& b : bad) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      shm_validate_segment(bad.data(), bad.size());
      // Validation can only succeed if the random bytes spelled the magic,
      // the version, and a plausible ring size — astronomically unlikely.
      FAIL() << "garbage header validated";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("net: shm"), std::string::npos)
          << "actual message: " << e.what();
    }
  }
}

TEST(ShmRing, SpscByteStreamAcrossThreadsWithDoorbells) {
  // An in-process producer/consumer pair over a real segment. This is the
  // test ThreadSanitizer actually sees: the cross-process benches map the
  // same physical pages at different addresses in different processes, which
  // is invisible to TSan, so the acquire/release pairs and the Dekker
  // doorbell fence are pinned here, in one address space. The smallest legal
  // ring forces thousands of wrap-arounds and full-ring stalls.
  ShmSession session = ShmSession::create(kShmMinRingBytes);
  ASSERT_TRUE(session.valid());
  constexpr std::size_t kTotal = 1 << 20;

  std::thread producer([&] {
    Rng rng(11);
    std::vector<std::uint8_t> chunk;
    std::size_t sent = 0;
    std::uint8_t next = 0;
    while (sent < kTotal) {
      const auto want = std::min<std::size_t>(
          kTotal - sent, static_cast<std::size_t>(rng.uniform_int(1, 9000)));
      chunk.resize(want);
      for (std::uint8_t& b : chunk) b = next++;
      std::size_t off = 0;
      while (off < want) {
        bool bell = false;
        const std::size_t n = session.c2s().write_some(chunk.data() + off, want - off, bell);
        if (bell) ShmSession::ring_doorbell(session.c2s_doorbell());
        if (n == 0) {
          std::this_thread::yield();  // full ring: the consumer is behind
          continue;
        }
        off += n;
      }
      sent += want;
    }
  });

  std::size_t received = 0;
  std::uint8_t expected = 0;
  long mismatches = 0;
  std::uint8_t buf[4096];
  while (received < kTotal) {
    const std::size_t n = session.c2s().read_some(buf, sizeof(buf));
    if (n == 0) {
      if (session.c2s().arm_waiting()) {
        // Really empty: the next write is guaranteed to ring. The finite
        // timeout is a belt against a protocol bug turning into a hang —
        // correctness is still pinned by the byte-stream checksum below.
        pollfd pfd{session.c2s_doorbell(), POLLIN, 0};
        (void)::poll(&pfd, 1, 100);
        ShmSession::drain_doorbell(session.c2s_doorbell());
      }
      session.c2s().disarm_waiting();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i)
      if (buf[i] != expected++) ++mismatches;
    received += n;
  }
  producer.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(session.c2s().readable(), 0U);
}

// ---------------------------------------------------------------------------
// Endpoint specs
// ---------------------------------------------------------------------------

TEST(Endpoint, ParsesAllSpecForms) {
  const Endpoint uds = parse_endpoint("unix:/tmp/x.sock");
  EXPECT_EQ(uds.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(uds.path, "/tmp/x.sock");
  EXPECT_EQ(to_string(uds), "unix:/tmp/x.sock");

  const Endpoint tcp = parse_endpoint("tcp:127.0.0.1:7733");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7733);
  EXPECT_EQ(to_string(tcp), "tcp:127.0.0.1:7733");

  const Endpoint bare = parse_endpoint("localhost:80");
  EXPECT_EQ(bare.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(bare.host, "localhost");
  EXPECT_EQ(bare.port, 80);

  const Endpoint shm = parse_endpoint("shm:/tmp/x-shm.sock");
  EXPECT_EQ(shm.kind, Endpoint::Kind::Shm);
  EXPECT_EQ(shm.path, "/tmp/x-shm.sock");
  EXPECT_EQ(to_string(shm), "shm:/tmp/x-shm.sock");

  EXPECT_THROW(parse_endpoint("shm:"), Error);
  EXPECT_THROW(parse_endpoint("unix:"), Error);
  EXPECT_THROW(parse_endpoint("justahost"), Error);
  EXPECT_THROW(parse_endpoint("host:notaport"), Error);
  EXPECT_THROW(parse_endpoint("host:99999"), Error);
  EXPECT_THROW(parse_endpoint(":80"), Error);
}

// ---------------------------------------------------------------------------
// Loopback end-to-end: daemon-scored == synchronous ScoringEngine
// ---------------------------------------------------------------------------

data::MultivariateSeries make_sine(Index length, std::uint64_t seed) {
  Rng rng(seed);
  data::MultivariateSeries s(3);
  std::vector<float> row(3);
  for (Index t = 0; t < length; ++t) {
    const bool anomalous = (t % 120) >= 90 && (t % 120) < 100;
    for (Index c = 0; c < 3; ++c) {
      row[static_cast<std::size_t>(c)] =
          std::sin(0.05F * static_cast<float>(t) + static_cast<float>(c)) +
          rng.normal(0.0F, anomalous ? 0.9F : 0.03F);
    }
    s.append(row);
  }
  return s;
}

/// One tiny fitted VARADE shared by every e2e test (fitting dominates; the
/// server only reads the model). Small enough to stay fast under TSan.
struct NetRig {
  data::MultivariateSeries train_raw = make_sine(400, 1);
  data::MinMaxNormalizer normalizer;
  data::MultivariateSeries train;
  core::VaradeDetector detector;
  float threshold = 0.0F;

  NetRig()
      : detector({.window = 16,
                  .base_channels = 4,
                  .epochs = 1,
                  .learning_rate = 1e-3F,
                  .train_stride = 4}) {
    normalizer.fit(train_raw);
    train = normalizer.transform(train_raw);
    detector.fit(train);
    threshold = core::calibrate_threshold(detector, train, {});
  }
};

NetRig& rig() {
  static NetRig* r = new NetRig();
  return *r;
}

/// Runs server.run() on its own thread for the guard's lifetime. The
/// destructor requests a stop and joins, so a test body that returns early
/// through a failed ASSERT_* joins the thread too; a std::thread destroyed
/// joinable would std::terminate the whole binary, and the tests after it
/// would go unrun and unreported. An exception from run() fails the test.
class ServerThread {
 public:
  explicit ServerThread(Server& server)
      : server_(server), thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}
  ~ServerThread() { stop(); }

  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// Waits for run() to return on its own (a SHUTDOWN frame, or a stop
  /// requested elsewhere).
  void join() {
    if (!thread_.joinable()) return;
    thread_.join();
    if (!error_.empty()) ADD_FAILURE() << "Server::run() threw: " << error_;
  }
  /// Requests an orderly stop and waits for run() to return.
  void stop() {
    if (thread_.joinable()) server_.request_stop();
    join();
  }

 private:
  Server& server_;
  std::string error_;   // written by the thread, read after the join
  std::thread thread_;  // last: it starts once the members it uses exist
};

/// What one client observed for the streams it owns.
struct ClientView {
  std::map<Index, std::vector<float>> scores;  // by stream, in arrival order
  std::map<Index, std::vector<core::AnomalyEvent>> events;  // reconstructed
  long nacks = 0;
};

/// Drives one client: pushes `n_samples` of each owned stream's series, then
/// polls until every owned stream has all its scores. ALARM frames
/// reconstruct the exact event list (raised appends, extension overwrites).
/// Void with an out-param so gtest ASSERTs can early-return.
///
/// With batch == 1 the sends interleave streams sample by sample (the
/// maximally adversarial ordering for the daemon's routing); with batch > 1
/// they run stream-major through push_batch() in chunks of `batch` samples,
/// so the wire carries `batch`-sample SAMPLE_BATCH frames (the last chunk of
/// a stream may be shorter). Per-stream order, the only thing parity depends
/// on, is identical either way.
void run_client(const Endpoint& endpoint, const std::vector<Index>& streams,
                const std::vector<data::MultivariateSeries>& series, Index n_samples,
                ClientView& view, Index batch = 1) {
  Client client(endpoint);
  EXPECT_EQ(client.shm_active(), endpoint.kind == Endpoint::Kind::Shm);
  if (batch <= 1) {
    for (Index t = 0; t < n_samples; ++t)
      for (const Index s : streams)
        client.send_sample(s, static_cast<std::uint64_t>(t),
                           series[static_cast<std::size_t>(s)].sample(t));
  } else {
    for (const Index s : streams)
      for (Index t = 0; t < n_samples; t += batch)
        client.push_batch(s, static_cast<std::uint64_t>(t),
                          series[static_cast<std::size_t>(s)].sample(t),
                          std::min(batch, n_samples - t));
  }
  client.flush();
  const auto want = static_cast<std::size_t>(n_samples);
  ClientEvent ev;
  auto done = [&] {
    if (view.scores.size() != streams.size()) return false;
    for (const auto& [s, scores] : view.scores)
      if (scores.size() < want) return false;
    return true;
  };
  while (!done()) {
    if (!client.poll_event(ev, 30000)) break;  // generous under TSan
    switch (ev.kind) {
      case ClientEvent::Kind::Score:
        view.scores[ev.score.stream].push_back(ev.score.score);
        break;
      case ClientEvent::Kind::Alarm: {
        auto& events = view.events[ev.alarm.stream];
        core::AnomalyEvent e;
        e.onset_sample = static_cast<Index>(ev.alarm.onset_sample);
        e.last_sample = static_cast<Index>(ev.alarm.last_sample);
        e.peak_score = ev.alarm.peak_score;
        if (ev.alarm.raised) {
          events.push_back(e);
        } else {
          ASSERT_FALSE(events.empty()) << "extension ALARM before any raised ALARM";
          events.back() = e;
        }
        break;
      }
      case ClientEvent::Kind::Nack:
        ++view.nacks;
        break;
      default:
        break;
    }
  }
  // The shm zero-syscall claim: steady-state pushes make no syscalls, so the
  // doorbells (rung only on an empty ring that caught the daemon asleep)
  // stay a small fraction of the samples pushed.
  if (client.shm_active()) {
    const long pushed = static_cast<long>(streams.size()) * n_samples;
    EXPECT_LE(client.shm_doorbells(), pushed / 4 + 64)
        << "the shm push path degenerated into a doorbell per sample";
  }
  client.send_goodbye();
}

/// The parity pin: 4 concurrent clients x 16 streams against one daemon,
/// compared bit-for-bit to a synchronous ScoringEngine fed the same samples.
void expect_loopback_parity(const Endpoint& endpoint, Server& server, Index n_streams,
                            Index n_samples, Index batch = 1) {
  NetRig& r = rig();
  std::vector<data::MultivariateSeries> series;
  for (Index s = 0; s < n_streams; ++s)
    series.push_back(make_sine(n_samples, 100 + static_cast<std::uint64_t>(s)));

  ServerThread running(server);

  constexpr int kClients = 4;
  std::vector<ClientView> views(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<Index> mine;
        for (Index s = c; s < n_streams; s += kClients) mine.push_back(s);
        run_client(endpoint, mine, series, n_samples, views[static_cast<std::size_t>(c)],
                   batch);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  running.stop();

  // Synchronous baseline: one ScoringEngine, same streams, same samples.
  serve::ScoringEngine engine(r.detector, r.normalizer, {});
  engine.add_streams(n_streams);
  engine.set_threshold(r.threshold);
  std::map<Index, std::vector<float>> expected;
  for (Index t = 0; t < n_samples; ++t) {
    for (Index s = 0; s < n_streams; ++s)
      engine.push(s, series[static_cast<std::size_t>(s)].sample(t), 3);
    for (const serve::StreamScore& score : engine.step())
      expected[score.stream].push_back(score.score);
  }

  long scores_checked = 0;
  for (const ClientView& view : views) {
    EXPECT_EQ(view.nacks, 0);
    for (const auto& [stream, scores] : view.scores) {
      const std::vector<float>& want = expected[stream];
      ASSERT_EQ(scores.size(), want.size()) << "stream " << stream;
      EXPECT_EQ(std::memcmp(scores.data(), want.data(), scores.size() * sizeof(float)), 0)
          << "stream " << stream << " scores drifted across the socket";
      scores_checked += static_cast<long>(scores.size());
    }
    for (const auto& [stream, events] : view.events) {
      const std::vector<core::AnomalyEvent>& want = engine.events(stream);
      ASSERT_EQ(events.size(), want.size()) << "stream " << stream;
      for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].onset_sample, want[i].onset_sample);
        EXPECT_EQ(events[i].last_sample, want[i].last_sample);
        EXPECT_EQ(std::memcmp(&events[i].peak_score, &want[i].peak_score, sizeof(float)), 0);
      }
    }
  }
  EXPECT_EQ(scores_checked, static_cast<long>(n_streams) * n_samples);
  // Every client saw every ALARM its streams raised.
  std::size_t events_seen = 0;
  for (const ClientView& view : views)
    for (const auto& [stream, events] : view.events) events_seen += events.size();
  std::size_t events_expected = 0;
  for (Index s = 0; s < n_streams; ++s) events_expected += engine.events(s).size();
  EXPECT_EQ(events_seen, events_expected);
  EXPECT_GT(events_expected, 0U) << "workload never alarmed; the event parity was vacuous";
}

TEST(NetE2E, LoopbackUnixParityFourClientsSixteenStreams) {
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_e2e_uds.sock";
  config.n_streams = 16;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  expect_loopback_parity(Endpoint{.kind = Endpoint::Kind::Unix, .path = config.uds_path},
                         server, 16, 150);
}

TEST(NetE2E, LoopbackTcpParitySharded) {
  net::ServerConfig config;
  config.tcp_port = 0;  // ephemeral
  config.n_streams = 16;
  config.threshold = rig().threshold;
  config.runtime.n_shards = 2;  // parity must hold across the shard map too
  Server server(rig().detector, rig().normalizer, config);
  expect_loopback_parity(
      Endpoint{.kind = Endpoint::Kind::Tcp, .host = "127.0.0.1", .port = server.tcp_port()},
      server, 16, 150);
}

TEST(NetE2E, LoopbackParityAcrossTransportsAndBatchSizes) {
  // The tentpole pin: every transport x batch-size combination scores
  // bit-identically to the synchronous engine. Batching changes framing
  // only; the shm rings change the transport only — neither may perturb a
  // single score bit. The shm runs use a deliberately small ring so the
  // frames wrap and backpressure-stall thousands of times within the test.
  for (const Index batch : {1, 7, 64}) {
    {
      net::ServerConfig config;
      config.uds_path = "/tmp/varade_test_parity_uds_b" + std::to_string(batch) + ".sock";
      config.n_streams = 16;
      config.threshold = rig().threshold;
      Server server(rig().detector, rig().normalizer, config);
      expect_loopback_parity(Endpoint{.kind = Endpoint::Kind::Unix, .path = config.uds_path},
                             server, 16, 150, batch);
    }
    {
      net::ServerConfig config;
      config.tcp_port = 0;
      config.n_streams = 16;
      config.threshold = rig().threshold;
      Server server(rig().detector, rig().normalizer, config);
      expect_loopback_parity(
          Endpoint{.kind = Endpoint::Kind::Tcp, .host = "127.0.0.1", .port = server.tcp_port()},
          server, 16, 150, batch);
    }
    {
      net::ServerConfig config;
      config.shm_path = "/tmp/varade_test_parity_shm_b" + std::to_string(batch) + ".sock";
      config.shm_ring_bytes = 1 << 14;  // 16 KiB: force wraps + full-ring stalls
      config.n_streams = 16;
      config.threshold = rig().threshold;
      Server server(rig().detector, rig().normalizer, config);
      expect_loopback_parity(Endpoint{.kind = Endpoint::Kind::Shm, .path = config.shm_path},
                             server, 16, 150, batch);
    }
  }
}

TEST(NetE2E, MalformedSampleInBatchDropsOnlyTheTail) {
  // A non-finite value inside a SAMPLE_BATCH must not kill the connection
  // (unlike in a SAMPLE frame, where it is a protocol error): the valid
  // prefix scores normally, the tail is dropped, and one NACK names the
  // offending in-batch sample via its absolute sequence number.
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_batch_nack.sock";
  config.n_streams = 1;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  {
    Client client(parse_endpoint("unix:" + config.uds_path));
    float block[5 * 3];
    for (float& v : block) v = 0.5F;
    block[2 * 3 + 1] = std::numeric_limits<float>::quiet_NaN();  // sample 2, channel 1
    client.push_batch(0, 0, block, 5);
    client.flush();

    Index scores = 0;
    bool nacked = false;
    NackData nack;
    ClientEvent ev;
    while ((scores < 2 || !nacked) && client.poll_event(ev, 30000)) {
      if (ev.kind == ClientEvent::Kind::Score) ++scores;
      if (ev.kind == ClientEvent::Kind::Nack) {
        nacked = true;
        nack = ev.nack;
      }
    }
    ASSERT_TRUE(nacked);
    EXPECT_EQ(nack.stream, 0);
    EXPECT_EQ(nack.seq, 2U);  // base_seq + valid: the first sample NOT taken
    EXPECT_EQ(nack.result, serve::PushResult::Rejected);
    EXPECT_EQ(nack.reason, NackReason::MalformedSample);
    EXPECT_EQ(scores, 2);  // the valid prefix was scored

    // The connection survives: the client resumes at the NACKed sequence.
    const float good[3] = {0.5F, 0.5F, 0.5F};
    client.send_sample(0, 2, good);
    client.flush();
    ASSERT_TRUE(client.poll_event(ev, 30000));
    EXPECT_EQ(ev.kind, ClientEvent::Kind::Score);
    client.send_goodbye();
  }
  running.stop();
  EXPECT_EQ(server.protocol_errors(), 0);  // a malformed *sample* is not a protocol error
  EXPECT_EQ(server.frames_nacked(), 1);
}

TEST(NetE2E, WelcomeAnnouncesSessionConfig) {
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_welcome.sock";
  config.n_streams = 5;
  config.threshold = rig().threshold;
  config.runtime.backpressure = serve::BackpressurePolicy::DropOldest;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  {
    // Defaulted policy resolves to the daemon's.
    Client defaulted(parse_endpoint("unix:" + config.uds_path));
    EXPECT_EQ(defaulted.n_streams(), 5);
    EXPECT_EQ(defaulted.n_channels(), 3);
    EXPECT_EQ(std::memcmp(&defaulted.welcome().threshold, &rig().threshold, sizeof(float)), 0);
    EXPECT_EQ(defaulted.welcome().policy, serve::BackpressurePolicy::DropOldest);
    // An explicit request overrides it.
    Client rejecting(parse_endpoint("unix:" + config.uds_path),
                     {.policy = serve::BackpressurePolicy::Reject});
    EXPECT_EQ(rejecting.welcome().policy, serve::BackpressurePolicy::Reject);
  }
  running.stop();
}

TEST(NetE2E, SecondConnectionPushingAnOwnedStreamIsNackedStreamBusy) {
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_busy.sock";
  config.n_streams = 2;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  const Endpoint endpoint = parse_endpoint("unix:" + config.uds_path);
  {
    Client owner(endpoint);
    const float sample[3] = {0.1F, 0.2F, 0.3F};
    owner.send_sample(0, 0, sample);
    owner.flush();
    // Its score proves the daemon registered ownership of stream 0.
    ClientEvent ev;
    ASSERT_TRUE(owner.poll_event(ev, 30000));
    ASSERT_EQ(ev.kind, ClientEvent::Kind::Score);
    EXPECT_EQ(ev.score.stream, 0);

    Client intruder(endpoint);
    intruder.send_sample(0, 77, sample);
    intruder.flush();
    ASSERT_TRUE(intruder.poll_event(ev, 30000));
    ASSERT_EQ(ev.kind, ClientEvent::Kind::Nack);
    EXPECT_EQ(ev.nack.stream, 0);
    EXPECT_EQ(ev.nack.seq, 77U);
    EXPECT_EQ(ev.nack.result, serve::PushResult::Rejected);
    EXPECT_EQ(ev.nack.reason, NackReason::StreamBusy);
    // The intruder is free to claim the unowned stream.
    intruder.send_sample(1, 0, sample);
    intruder.flush();
    ASSERT_TRUE(intruder.poll_event(ev, 30000));
    EXPECT_EQ(ev.kind, ClientEvent::Kind::Score);
    EXPECT_EQ(ev.score.stream, 1);
  }
  running.stop();
  EXPECT_EQ(server.frames_nacked(), 1);
}

TEST(NetE2E, ShutdownFrameDrainsAndSaysGoodbye) {
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_shutdown.sock";
  config.n_streams = 1;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  {
    Client client(parse_endpoint("unix:" + config.uds_path));
    const float sample[3] = {0.5F, 0.5F, 0.5F};
    const Index n = 20;
    for (Index t = 0; t < n; ++t)
      client.send_sample(0, static_cast<std::uint64_t>(t), sample);
    client.request_shutdown();
    // Every accepted sample is scored before the GOODBYE: the drain
    // guarantee crosses the socket.
    Index scores = 0;
    bool goodbye = false;
    ClientEvent ev;
    while (client.poll_event(ev, 30000)) {
      if (ev.kind == ClientEvent::Kind::Score) ++scores;
      if (ev.kind == ClientEvent::Kind::Goodbye) {
        goodbye = true;
        break;
      }
    }
    EXPECT_EQ(scores, n);
    EXPECT_TRUE(goodbye);
    EXPECT_TRUE(client.closed());
  }
  running.join();  // run() returned because of the SHUTDOWN frame
}

TEST(NetE2E, RequestStopBeforeRunEndsTheFirstPoll) {
  // The stop flag and its ring wait in the wake eventfd: run() shuts down
  // on its first poll, before it accepts anyone (so there is no connection
  // to say GOODBYE to), and leaves a closed, reconciled runtime.
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_stop_early.sock";
  config.n_streams = 1;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  server.request_stop();
  server.run();
  EXPECT_TRUE(server.runtime().closed());
  const serve::RuntimeStats fin = server.runtime().stats();
  EXPECT_EQ(fin.pushed, 0);
  EXPECT_EQ(fin.scored, fin.pushed - fin.dropped);
}

TEST(NetE2E, RequestStopFromAnotherThreadMidTrafficSaysGoodbye) {
  // A stop requested from a third thread while the client's samples are
  // still being scored rings the same eventfd as the scorers do. Shutdown
  // must still score every accepted sample, route each score to the live
  // client, and end in GOODBYE.
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_stop_mid.sock";
  config.n_streams = 2;
  config.threshold = rig().threshold;
  config.runtime.n_shards = 2;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  long scores = 0;
  bool goodbye = false;
  {
    Client client(parse_endpoint("unix:" + config.uds_path));
    const data::MultivariateSeries series = make_sine(400, 9);
    for (Index t = 0; t < 400; ++t)
      for (Index s = 0; s < 2; ++s)
        client.send_sample(s, static_cast<std::uint64_t>(t), series.sample(t));
    client.flush();
    std::thread stopper;
    ClientEvent ev;
    while (client.poll_event(ev, 30000)) {
      if (ev.kind == ClientEvent::Kind::Score && ++scores == 1)
        stopper = std::thread([&server] { server.request_stop(); });
      if (ev.kind == ClientEvent::Kind::Goodbye) {
        goodbye = true;
        break;
      }
    }
    if (stopper.joinable()) stopper.join();
  }
  running.join();
  EXPECT_TRUE(goodbye);
  const serve::RuntimeStats fin = server.runtime().stats();
  EXPECT_GT(fin.pushed, 0);
  EXPECT_EQ(fin.scored, fin.pushed - fin.dropped);
  EXPECT_EQ(scores, fin.scored);
  EXPECT_EQ(server.scores_unrouted(), 0);
}

#ifdef VARADE_TIMING_TESTS
TEST(NetE2E, ReplyDoesNotWaitForThePollTimeout) {
  // One sample out, its SCORE back: the scorer, out of input once the sample
  // is scored, wakes the poll loop. Without that wake the reply waits for
  // the loop's 2 ms poll timeout and the median round trip sits near 2 ms.
  // Wall-clock bounds mean nothing under a sanitizer, so those builds
  // compile this test out.
  net::ServerConfig config;
  config.tcp_port = 0;
  config.n_streams = 1;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  constexpr Index kWarmup = 50;
  constexpr Index kTrips = 200;
  std::vector<double> trip_ms;
  {
    Client client(
        Endpoint{.kind = Endpoint::Kind::Tcp, .host = "127.0.0.1", .port = server.tcp_port()});
    const data::MultivariateSeries series = make_sine(kWarmup + kTrips, 13);
    ClientEvent ev;
    for (Index t = 0; t < kWarmup + kTrips; ++t) {
      const auto sent = std::chrono::steady_clock::now();
      client.send_sample(0, static_cast<std::uint64_t>(t), series.sample(t));
      client.flush();
      bool scored = false;
      while (!scored) {
        ASSERT_TRUE(client.poll_event(ev, 30000)) << "no SCORE for sample " << t;
        scored = ev.kind == ClientEvent::Kind::Score && ev.score.sample == static_cast<std::uint64_t>(t);
      }
      if (t >= kWarmup)
        trip_ms.push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - sent)
                .count());
    }
    client.send_goodbye();
  }
  running.stop();
  std::nth_element(trip_ms.begin(), trip_ms.begin() + kTrips / 2, trip_ms.end());
  EXPECT_LT(trip_ms[kTrips / 2], 1.0) << "median round trip, ms, over " << kTrips << " samples";
}
#endif

TEST(NetE2E, ProtocolViolationsGetNamedWireErrors) {
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_violation.sock";
  config.n_streams = 2;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  const Endpoint endpoint = parse_endpoint("unix:" + config.uds_path);

  auto expect_wire_error = [&](const std::vector<std::uint8_t>& bytes,
                               const std::string& what) {
    Socket sock = connect_endpoint(endpoint);
    send_all(sock.fd(), bytes.data(), bytes.size());
    FrameReader reader;
    std::uint8_t buf[4096];
    std::string message;
    for (;;) {
      ASSERT_TRUE(wait_readable(sock.fd(), 30000)) << "no WIRE_ERROR for: " << what;
      const long n = read_some(sock.fd(), buf, sizeof(buf));
      ASSERT_NE(n, 0) << "daemon closed without a WIRE_ERROR for: " << what;
      if (n < 0) continue;
      reader.feed(buf, static_cast<std::size_t>(n));
      Frame frame;
      bool got = false;
      while (reader.next(frame)) {
        if (frame.type == FrameType::WireError) {
          message = decode_wire_error(frame);
          got = true;
          break;
        }
        // A WELCOME (for the cases that HELLO first) precedes the error.
        ASSERT_EQ(frame.type, FrameType::Welcome);
      }
      if (got) break;
    }
    EXPECT_NE(message.find(what), std::string::npos) << "actual message: " << message;
  };

  {
    // A SAMPLE before HELLO.
    std::vector<std::uint8_t> bytes;
    const float sample[3] = {0.0F, 0.0F, 0.0F};
    append_sample(bytes, 0, 0, sample, 3);
    expect_wire_error(bytes, "expected HELLO as the first frame, got SAMPLE");
  }
  {
    // An out-of-range stream id, in the serving layer's canonical wording.
    std::vector<std::uint8_t> bytes;
    append_hello(bytes);
    const float sample[3] = {0.0F, 0.0F, 0.0F};
    append_sample(bytes, 99, 0, sample, 3);
    expect_wire_error(bytes, "stream id 99 out of range [0, 2)");
  }
  {
    // A NaN sample value.
    std::vector<std::uint8_t> bytes;
    append_hello(bytes);
    const float sample[3] = {0.0F, std::numeric_limits<float>::quiet_NaN(), 0.0F};
    append_sample(bytes, 0, 0, sample, 3);
    expect_wire_error(bytes, "non-finite value in SAMPLE frame (stream 0, channel 1)");
  }
  {
    // A wrong channel count.
    std::vector<std::uint8_t> bytes;
    append_hello(bytes);
    const float sample[5] = {0.0F, 0.0F, 0.0F, 0.0F, 0.0F};
    append_sample(bytes, 0, 0, sample, 5);
    expect_wire_error(bytes, "SAMPLE frame payload is");
  }
  {
    // A server-only frame from a client.
    std::vector<std::uint8_t> bytes;
    append_hello(bytes);
    append_score(bytes, 0, 0, 1.0F);
    expect_wire_error(bytes, "unexpected SCORE frame from client");
  }
  {
    // Garbage bytes (bad magic).
    std::vector<std::uint8_t> bytes;
    append_hello(bytes);
    bytes.push_back(0x13);
    bytes.resize(bytes.size() + 7, 0);
    expect_wire_error(bytes, "bad magic byte");
  }

  running.stop();
  EXPECT_EQ(server.protocol_errors(), 6);
}

// ---------------------------------------------------------------------------
// Metrics endpoint
// ---------------------------------------------------------------------------

/// One minimal HTTP/1.0 exchange against the metrics listener: send
/// `request`, read to EOF, return the whole response.
std::string http_exchange(int port, const std::string& request) {
  Socket sock =
      connect_endpoint(Endpoint{.kind = Endpoint::Kind::Tcp, .host = "127.0.0.1", .port = port});
  send_all(sock.fd(), reinterpret_cast<const std::uint8_t*>(request.data()), request.size());
  std::string response;
  std::uint8_t buf[4096];
  for (;;) {
    if (!wait_readable(sock.fd(), 30000)) break;
    const long n = read_some(sock.fd(), buf, sizeof(buf));
    if (n == 0) break;  // server closes after one response
    if (n < 0) continue;
    response.append(reinterpret_cast<const char*>(buf), static_cast<std::size_t>(n));
  }
  return response;
}

TEST(NetE2E, MetricsEndpointServesPrometheusText) {
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_metrics.sock";
  config.n_streams = 2;
  config.threshold = rig().threshold;
  config.metrics_port = 0;  // ephemeral, resolved at construction
  Server server(rig().detector, rig().normalizer, config);
  ASSERT_GT(server.metrics_port(), 0);
  ServerThread running(server);
  {
    // Put real traffic through first, so the series carry live values.
    Client client(parse_endpoint("unix:" + config.uds_path));
    const float sample[3] = {0.5F, 0.5F, 0.5F};
    for (int t = 0; t < 10; ++t)
      client.send_sample(0, static_cast<std::uint64_t>(t), sample);
    client.flush();
    ClientEvent ev;
    for (int got = 0; got < 10;) {
      ASSERT_TRUE(client.poll_event(ev, 30000));
      if (ev.kind == ClientEvent::Kind::Score) ++got;
    }

    const std::string response =
        http_exchange(server.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
    ASSERT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0U) << response.substr(0, 120);
    EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
    const std::size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::string body = response.substr(body_at + 4);

    // Runtime counters are always live (they come from RuntimeStats, not the
    // compile-gated instrumentation).
    EXPECT_NE(body.find("\nvarade_samples_pushed_total 10\n"), std::string::npos);
    EXPECT_NE(body.find("varade_scorer_rounds_total{shard=\"0\"}"), std::string::npos);
    EXPECT_NE(body.find("# TYPE varade_net_connections gauge\n"), std::string::npos);
    EXPECT_NE(body.find("# TYPE varade_step_phase_seconds histogram\n"), std::string::npos);
    EXPECT_NE(body.find("varade_push_to_score_seconds_count"), std::string::npos);
    EXPECT_NE(body.find("# TYPE varade_score_route_delay_seconds histogram\n"),
              std::string::npos);
    if constexpr (obs::kEnabled) {
      // With telemetry compiled in, the scrape-time traffic above has gone
      // through every instrumented hop.
      EXPECT_NE(body.find("varade_step_phase_seconds_bucket{phase=\"score\""),
                std::string::npos);
      EXPECT_EQ(body.find("varade_net_frames_decoded_total 0\n"), std::string::npos);
      EXPECT_EQ(body.find("varade_score_route_delay_seconds_count 0\n"), std::string::npos);
    }

    // Wrong path and wrong method get HTTP errors, not silence.
    EXPECT_EQ(http_exchange(server.metrics_port(), "GET /nope HTTP/1.0\r\n\r\n")
                  .rfind("HTTP/1.0 404", 0),
              0U);
    EXPECT_EQ(http_exchange(server.metrics_port(), "POST /metrics HTTP/1.0\r\n\r\n")
                  .rfind("HTTP/1.0 405", 0),
              0U);

    // metrics_text() is the same exposition, scrape-free (for tests and
    // embedders without a listener).
    const std::string direct = server.metrics_text();
    EXPECT_NE(direct.find("\nvarade_samples_pushed_total 10\n"), std::string::npos);
    EXPECT_NE(direct.find("# TYPE varade_scorer_round_seconds histogram\n"),
              std::string::npos);
  }
  running.stop();
}

/// Value of the first sample line of `text` that starts with `prefix`; NaN
/// when no line does.
double series_value(const std::string& text, const std::string& prefix) {
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0)
      return std::strtod(text.c_str() + text.rfind(' ', eol) + 1, nullptr);
    pos = eol + 1;
  }
  return std::nan("");
}

TEST(NetE2E, MetricsTextCountsTheScoresAClientHasReceived) {
  // The runtime counts a round before its scores become visible, so once a
  // client holds N scores, metrics_text() already counts N scored samples.
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_metrics_text.sock";
  config.n_streams = 3;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  {
    Client client(parse_endpoint("unix:" + config.uds_path));
    const float sample[3] = {0.5F, 0.5F, 0.5F};
    ClientEvent ev;
    const auto push_and_await = [&](int first, int count) {
      for (int t = first; t < first + count; ++t)
        client.send_sample(0, static_cast<std::uint64_t>(t), sample);
      client.flush();
      for (int got = 0; got < count;) {
        ASSERT_TRUE(client.poll_event(ev, 30000));
        if (ev.kind == ClientEvent::Kind::Score) ++got;
      }
    };

    push_and_await(0, 10);
    std::string text = server.metrics_text();
    EXPECT_EQ(series_value(text, "varade_samples_pushed_total "), 10.0);
    EXPECT_EQ(series_value(text, "varade_samples_dropped_total "), 0.0);
    EXPECT_EQ(series_value(text, "varade_samples_rejected_total "), 0.0);
    EXPECT_EQ(series_value(text, "varade_net_connections "), 1.0);
    // One shard: the per-shard families carry shard="0" and no other.
    EXPECT_NE(text.find("\nvarade_scorer_rounds_total{shard=\"0\"} "), std::string::npos);
    EXPECT_EQ(text.find("shard=\"1\""), std::string::npos);

    push_and_await(10, 10);
    text = server.metrics_text();
    EXPECT_EQ(series_value(text, "varade_samples_pushed_total "), 20.0);
    EXPECT_EQ(series_value(text, "varade_samples_scored_total "), 20.0);
    if constexpr (obs::kEnabled) {
      EXPECT_GT(series_value(text, "varade_scorer_round_seconds_count "), 0.0);
    } else {
      EXPECT_EQ(series_value(text, "varade_scorer_round_seconds_count "), 0.0);
    }
  }
  running.stop();
}

TEST(NetE2E, SilentClientCostsThePollLoopNoTimeoutWakeups) {
  // With every scorer asleep, no shm connection, no open scrape and no
  // shutdown under way, nothing can fall due without an fd event, so poll()
  // blocks with no timeout. The counters are read through metrics_text():
  // an open scrape would itself arm the timeout. With telemetry compiled
  // off they read 0 and the check holds trivially.
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_poll_wakeups.sock";
  config.n_streams = 1;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  const std::string timeouts = "varade_net_poll_wakeups_total{cause=\"timeout\"} ";
  {
    // One round trip first: the scorer wakes, scores, rings and sleeps
    // again, and the loop must then go back to an untimed poll.
    Client client(parse_endpoint("unix:" + config.uds_path));
    const float sample[3] = {0.5F, 0.5F, 0.5F};
    client.send_sample(0, 0, sample);
    client.flush();
    ClientEvent ev;
    ASSERT_TRUE(client.poll_event(ev, 30000));
    ASSERT_EQ(ev.kind, ClientEvent::Kind::Score);
    // A poll timeout armed while the scorer was still awake expires here.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double before = series_value(server.metrics_text(), timeouts);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const std::string text = server.metrics_text();
    EXPECT_EQ(series_value(text, timeouts), before) << "the idle poll loop woke on its timeout";
    if constexpr (obs::kEnabled) {
      EXPECT_GT(series_value(text, "varade_net_poll_wakeups_total{cause=\"event\"} "), 0.0);
    } else {
      EXPECT_EQ(series_value(text, "varade_net_poll_wakeups_total{cause=\"event\"} "), 0.0);
    }
    client.send_goodbye();
  }
  running.stop();
}

TEST(NetE2E, IdleScrapersAreClosedAtTheScrapeDeadline) {
  // Scrapes are capped at 16 open at once. Sixteen connections that never
  // send a request fill the cap; the daemon must close them at its 2 s scrape
  // deadline instead of refusing every later scrape until shutdown.
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_idle_scrapers.sock";
  config.n_streams = 1;
  config.threshold = rig().threshold;
  config.metrics_port = 0;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);
  {
    const Endpoint metrics{.kind = Endpoint::Kind::Tcp, .host = "127.0.0.1",
                           .port = server.metrics_port()};
    std::vector<Socket> idle;
    for (int i = 0; i < 16; ++i) idle.push_back(connect_endpoint(metrics));
    // True once the daemon has hung up on `sock` without a byte of reply.
    const auto hung_up = [](const Socket& sock) {
      std::uint8_t byte = 0;
      return wait_readable(sock.fd(), 5000) && read_some(sock.fd(), &byte, 1) == 0;
    };
    // While they hold every slot, a seventeenth connection is closed unread.
    EXPECT_TRUE(hung_up(connect_endpoint(metrics)));
    // Past the deadline the daemon has hung up on each idle connection...
    std::this_thread::sleep_for(std::chrono::milliseconds(2500));
    for (const Socket& sock : idle) EXPECT_TRUE(hung_up(sock));
    // ...and a real scrape is served again.
    const std::string response =
        http_exchange(server.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0U) << response.substr(0, 120);
  }
  running.stop();
}

// ---------------------------------------------------------------------------
// Disconnect-mid-drain accounting
// ---------------------------------------------------------------------------

TEST(NetE2E, DisconnectMidDrainKeepsAccountingReconciled) {
  // A client pushes a burst and vanishes without reading a single score.
  // The daemon must still drain everything it accepted, and the exit
  // accounting must reconcile: RuntimeStats::scored counts every score the
  // runtime emitted (== pushed - dropped, exactly, once closed), while the
  // scores that lost their owner mid-drain show up in scores_unrouted() —
  // not as silently inflated "delivered" work. This is the invariant the
  // daemon's exit report prints (see served_main.cpp).
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_vanish.sock";
  config.n_streams = 1;
  config.threshold = rig().threshold;
  Server server(rig().detector, rig().normalizer, config);
  ServerThread running(server);

  constexpr Index kPushes = 300;
  {
    // Raw socket, not Client: no GOODBYE, no reads — the connection just
    // disappears with every sample already on the wire.
    std::vector<std::uint8_t> bytes;
    append_hello(bytes);
    const float sample[3] = {0.5F, 0.5F, 0.5F};
    for (Index t = 0; t < kPushes; ++t)
      append_sample(bytes, 0, static_cast<std::uint64_t>(t), sample, 3);
    Socket sock = connect_endpoint(parse_endpoint("unix:" + config.uds_path));
    send_all(sock.fd(), bytes.data(), bytes.size());
  }  // abrupt close

  // Let the daemon observe the EOF and finish scoring the burst, then stop.
  for (int spin = 0; spin < 30000 && server.runtime().stats().scored < kPushes; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  running.stop();

  const serve::RuntimeStats fin = server.runtime().stats();
  EXPECT_EQ(fin.pushed, kPushes);  // every frame was on the wire before close
  EXPECT_EQ(fin.dropped, 0);
  EXPECT_EQ(fin.rejected, 0);
  // The reconciliation pin: emitted scores match accepted samples exactly...
  EXPECT_EQ(fin.scored, fin.pushed - fin.dropped);
  // ...and the undeliverable remainder is accounted, not lost: every score
  // was either routed to the (gone) owner before the EOF was processed or
  // counted as unrouted afterwards.
  EXPECT_GT(server.scores_unrouted(), 0);
  EXPECT_LE(server.scores_unrouted(), fin.scored);
}

// ---------------------------------------------------------------------------
// Server configuration validation
// ---------------------------------------------------------------------------

TEST(NetServer, DestroyedAfterRunThrewClosesTheRuntimeFirst) {
  // run() can throw with the scorers live: here poll() fails, because a
  // soft RLIMIT_NOFILE below the size of its fd set makes it return EINVAL.
  // (An invalid fd cannot force this: poll() flags it POLLNVAL and goes
  // on.) The scorers ring the server's wake fd, so ~Server must join them
  // before it closes that fd; a scorer still live at that point could write
  // to a closed or reused descriptor.
  NetRig& r = rig();
  net::ServerConfig config;
  config.uds_path = "/tmp/varade_test_run_threw.sock";
  config.n_streams = 2;
  config.threshold = r.threshold;
  config.runtime.n_shards = 2;
  {
    Server server(r.detector, r.normalizer, config);
    rlimit normal{};
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &normal), 0);
    rlimit low = normal;
    low.rlim_cur = 1;  // the poll set holds the wake fd and the listener
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &low), 0);
    std::string what;
    try {
      server.run();
    } catch (const Error& e) {
      what = e.what();
    }
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &normal), 0);
    EXPECT_NE(what.find("net: poll(): "), std::string::npos) << "run() threw: " << what;
    EXPECT_TRUE(server.runtime().started());
    EXPECT_FALSE(server.runtime().closed());  // the scorers are still running
  }
}

TEST(NetServer, RejectsInvalidConfigs) {
  NetRig& r = rig();
  net::ServerConfig none;  // no listener at all
  none.threshold = r.threshold;
  EXPECT_THROW(Server(r.detector, r.normalizer, none), Error);

  net::ServerConfig bad_streams;
  bad_streams.uds_path = "/tmp/varade_test_cfg.sock";
  bad_streams.threshold = r.threshold;
  bad_streams.n_streams = 0;
  EXPECT_THROW(Server(r.detector, r.normalizer, bad_streams), Error);
}

}  // namespace
}  // namespace varade::net
