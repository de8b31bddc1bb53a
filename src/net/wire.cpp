#include "varade/net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace varade::net {

namespace {

// Byte-assembled little-endian stores/loads: identical wire bytes on any
// host endianness, and no alignment requirements on the buffers.

void store_u32(std::uint8_t* dst, std::uint32_t v) {
  dst[0] = static_cast<std::uint8_t>(v);
  dst[1] = static_cast<std::uint8_t>(v >> 8);
  dst[2] = static_cast<std::uint8_t>(v >> 16);
  dst[3] = static_cast<std::uint8_t>(v >> 24);
}

void store_u64(std::uint8_t* dst, std::uint64_t v) {
  store_u32(dst, static_cast<std::uint32_t>(v));
  store_u32(dst + 4, static_cast<std::uint32_t>(v >> 32));
}

void store_f32(std::uint8_t* dst, float v) { store_u32(dst, std::bit_cast<std::uint32_t>(v)); }

std::uint32_t load_u32(const std::uint8_t* src) {
  return static_cast<std::uint32_t>(src[0]) | (static_cast<std::uint32_t>(src[1]) << 8) |
         (static_cast<std::uint32_t>(src[2]) << 16) | (static_cast<std::uint32_t>(src[3]) << 24);
}

std::uint64_t load_u64(const std::uint8_t* src) {
  return static_cast<std::uint64_t>(load_u32(src)) |
         (static_cast<std::uint64_t>(load_u32(src + 4)) << 32);
}

float load_f32(const std::uint8_t* src) { return std::bit_cast<float>(load_u32(src)); }

/// Reserves space for one frame and writes its header; returns the payload
/// write position.
std::uint8_t* begin_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::size_t payload_len) {
  check(payload_len <= kMaxPayload,
        "net: frame payload of " + std::to_string(payload_len) + " bytes exceeds the " +
            std::to_string(kMaxPayload) + "-byte cap");
  const std::size_t base = out.size();
  out.resize(base + kHeaderSize + payload_len);
  std::uint8_t* p = out.data() + base;
  p[0] = kMagic;
  p[1] = kWireVersion;
  p[2] = static_cast<std::uint8_t>(type);
  p[3] = 0;
  store_u32(p + 4, static_cast<std::uint32_t>(payload_len));
  return p + kHeaderSize;
}

void require_type(const Frame& frame, FrameType expected) {
  if (frame.type != expected)
    fail("net: expected ", to_string(expected), " frame, got ", to_string(frame.type));
}

void require_size(const Frame& frame, std::size_t expected) {
  if (frame.payload.size() != expected)
    fail("net: ", to_string(frame.type), " frame payload is ", frame.payload.size(),
         " bytes, expected ", expected);
}

/// HELLO's "apply the daemon default" policy byte.
constexpr std::uint8_t kDefaultPolicyByte = 255;

serve::BackpressurePolicy decode_policy_byte(std::uint8_t byte, const char* where) {
  switch (byte) {
    case 0: return serve::BackpressurePolicy::Block;
    case 1: return serve::BackpressurePolicy::DropOldest;
    case 2: return serve::BackpressurePolicy::Reject;
    default: fail("net: invalid backpressure policy byte ", static_cast<int>(byte), " in ",
                  where, " frame");
  }
}

std::uint8_t encode_policy_byte(serve::BackpressurePolicy policy) {
  switch (policy) {
    case serve::BackpressurePolicy::Block: return 0;
    case serve::BackpressurePolicy::DropOldest: return 1;
    case serve::BackpressurePolicy::Reject: return 2;
  }
  fail("net: unrepresentable backpressure policy");
}

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::Hello: return "HELLO";
    case FrameType::Welcome: return "WELCOME";
    case FrameType::Sample: return "SAMPLE";
    case FrameType::Score: return "SCORE";
    case FrameType::Alarm: return "ALARM";
    case FrameType::Nack: return "NACK";
    case FrameType::StatsRequest: return "STATS_REQUEST";
    case FrameType::StatsReply: return "STATS_REPLY";
    case FrameType::Shutdown: return "SHUTDOWN";
    case FrameType::Goodbye: return "GOODBYE";
    case FrameType::WireError: return "WIRE_ERROR";
    case FrameType::SampleBatch: return "SAMPLE_BATCH";
  }
  return "UNKNOWN";
}

const char* to_string(NackReason reason) {
  switch (reason) {
    case NackReason::Backpressure: return "Backpressure";
    case NackReason::StreamBusy: return "StreamBusy";
    case NackReason::MalformedSample: return "MalformedSample";
  }
  return "UNKNOWN";
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type, const std::uint8_t* payload,
                  std::size_t payload_len) {
  std::uint8_t* p = begin_frame(out, type, payload_len);
  if (payload_len > 0) std::memcpy(p, payload, payload_len);
}

void append_hello(std::vector<std::uint8_t>& out,
                  std::optional<serve::BackpressurePolicy> policy, std::uint8_t features) {
  std::uint8_t* p = begin_frame(out, FrameType::Hello, 2);
  p[0] = policy ? encode_policy_byte(*policy) : kDefaultPolicyByte;
  p[1] = features;
}

void append_welcome(std::vector<std::uint8_t>& out, const Welcome& welcome) {
  std::uint8_t* p = begin_frame(out, FrameType::Welcome, 14);
  store_u32(p, static_cast<std::uint32_t>(welcome.n_streams));
  store_u32(p + 4, static_cast<std::uint32_t>(welcome.n_channels));
  store_f32(p + 8, welcome.threshold);
  p[12] = encode_policy_byte(welcome.policy);
  p[13] = welcome.features;
}

void append_sample(std::vector<std::uint8_t>& out, Index stream, std::uint64_t seq,
                   const float* values, Index n_channels) {
  std::uint8_t* p =
      begin_frame(out, FrameType::Sample, 12 + 4 * static_cast<std::size_t>(n_channels));
  store_u32(p, static_cast<std::uint32_t>(stream));
  store_u64(p + 4, seq);
  for (Index c = 0; c < n_channels; ++c) store_f32(p + 12 + 4 * c, values[c]);
}

void append_sample_batch(std::vector<std::uint8_t>& out, Index stream, std::uint64_t base_seq,
                         const float* values, Index count, Index n_channels) {
  check(count >= 1 && static_cast<std::uint32_t>(count) <= kMaxBatchSamples,
        "net: SAMPLE_BATCH count " + std::to_string(count) + " outside [1, " +
            std::to_string(kMaxBatchSamples) + "]");
  const std::size_t floats = static_cast<std::size_t>(count) * static_cast<std::size_t>(n_channels);
  std::uint8_t* p = begin_frame(out, FrameType::SampleBatch, 16 + 4 * floats);
  store_u32(p, static_cast<std::uint32_t>(stream));
  store_u64(p + 4, base_seq);
  store_u32(p + 12, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < floats; ++i) store_f32(p + 16 + 4 * i, values[i]);
}

void append_score(std::vector<std::uint8_t>& out, Index stream, std::uint64_t sample,
                  float score) {
  std::uint8_t* p = begin_frame(out, FrameType::Score, 16);
  store_u32(p, static_cast<std::uint32_t>(stream));
  store_u64(p + 4, sample);
  store_f32(p + 12, score);
}

void append_alarm(std::vector<std::uint8_t>& out, const AlarmData& alarm) {
  std::uint8_t* p = begin_frame(out, FrameType::Alarm, 25);
  store_u32(p, static_cast<std::uint32_t>(alarm.stream));
  store_u64(p + 4, alarm.onset_sample);
  store_u64(p + 12, alarm.last_sample);
  store_f32(p + 20, alarm.peak_score);
  p[24] = alarm.raised ? 1 : 0;
}

void append_nack(std::vector<std::uint8_t>& out, const NackData& nack) {
  std::uint8_t* p = begin_frame(out, FrameType::Nack, 14);
  store_u32(p, static_cast<std::uint32_t>(nack.stream));
  store_u64(p + 4, nack.seq);
  p[12] = static_cast<std::uint8_t>(nack.result);
  p[13] = static_cast<std::uint8_t>(nack.reason);
}

void append_stats_request(std::vector<std::uint8_t>& out) {
  begin_frame(out, FrameType::StatsRequest, 0);
}

void append_stats_reply(std::vector<std::uint8_t>& out, const WireStats& stats) {
  std::uint8_t* p = begin_frame(out, FrameType::StatsReply, 108);
  store_u64(p, stats.pushed);
  store_u64(p + 8, stats.dropped);
  store_u64(p + 16, stats.rejected);
  store_u64(p + 24, stats.rounds);
  store_u64(p + 32, stats.naps);
  store_u64(p + 40, stats.scored);
  store_u64(p + 48, stats.round_p50_ns);
  store_u64(p + 56, stats.round_p95_ns);
  store_u64(p + 64, stats.round_p99_ns);
  store_u64(p + 72, stats.push_to_score_p50_ns);
  store_u64(p + 80, stats.push_to_score_p95_ns);
  store_u64(p + 88, stats.push_to_score_p99_ns);
  store_u32(p + 96, static_cast<std::uint32_t>(stats.n_streams));
  store_u32(p + 100, static_cast<std::uint32_t>(stats.n_shards));
  store_u32(p + 104, static_cast<std::uint32_t>(stats.n_connections));
}

void append_shutdown(std::vector<std::uint8_t>& out) {
  begin_frame(out, FrameType::Shutdown, 0);
}

void append_goodbye(std::vector<std::uint8_t>& out) { begin_frame(out, FrameType::Goodbye, 0); }

void append_wire_error(std::vector<std::uint8_t>& out, const std::string& message) {
  // Truncate rather than throw: this frame is the error path itself.
  const std::size_t n = std::min<std::size_t>(message.size(), kMaxPayload);
  append_frame(out, FrameType::WireError,
               reinterpret_cast<const std::uint8_t*>(message.data()), n);
}

HelloData decode_hello(const Frame& frame) {
  require_type(frame, FrameType::Hello);
  require_size(frame, 2);
  HelloData h;
  if (frame.payload[0] != kDefaultPolicyByte)
    h.policy = decode_policy_byte(frame.payload[0], "HELLO");
  h.features = frame.payload[1];
  if ((h.features & ~(kFeatureSampleBatch | kFeatureShm)) != 0)
    fail("net: unknown feature bits ", static_cast<int>(h.features), " in HELLO frame");
  return h;
}

Welcome decode_welcome(const Frame& frame) {
  require_type(frame, FrameType::Welcome);
  require_size(frame, 14);
  const std::uint8_t* p = frame.payload.data();
  Welcome w;
  w.n_streams = static_cast<Index>(load_u32(p));
  w.n_channels = static_cast<Index>(load_u32(p + 4));
  w.threshold = load_f32(p + 8);
  w.policy = decode_policy_byte(p[12], "WELCOME");
  w.features = p[13];
  if ((w.features & ~(kFeatureSampleBatch | kFeatureShm)) != 0)
    fail("net: unknown feature bits ", static_cast<int>(w.features), " in WELCOME frame");
  check(w.n_streams >= 1, "net: WELCOME frame announces zero streams");
  check(w.n_channels >= 1, "net: WELCOME frame announces zero channels");
  return w;
}

void decode_sample(const Frame& frame, Index n_channels, SampleData& out) {
  require_type(frame, FrameType::Sample);
  require_size(frame, 12 + 4 * static_cast<std::size_t>(n_channels));
  const std::uint8_t* p = frame.payload.data();
  out.stream = static_cast<Index>(load_u32(p));
  out.seq = load_u64(p + 4);
  out.values.resize(static_cast<std::size_t>(n_channels));
  for (Index c = 0; c < n_channels; ++c) {
    const float v = load_f32(p + 12 + 4 * c);
    if (!std::isfinite(v))
      fail("net: non-finite value in SAMPLE frame (stream ", out.stream, ", channel ", c, ")");
    out.values[static_cast<std::size_t>(c)] = v;
  }
}

void decode_sample_batch(const Frame& frame, Index n_channels, SampleBatchData& out) {
  require_type(frame, FrameType::SampleBatch);
  if (frame.payload.size() < 16)
    fail("net: SAMPLE_BATCH frame payload is ", frame.payload.size(),
         " bytes, shorter than the 16-byte batch header");
  const std::uint8_t* p = frame.payload.data();
  const std::uint32_t count = load_u32(p + 12);
  if (count == 0) fail("net: SAMPLE_BATCH frame carries zero samples");
  if (count > kMaxBatchSamples)
    fail("net: SAMPLE_BATCH count ", count, " exceeds the ", kMaxBatchSamples, "-sample cap");
  const std::size_t expected =
      16 + 4 * static_cast<std::size_t>(count) * static_cast<std::size_t>(n_channels);
  if (frame.payload.size() != expected)
    fail("net: SAMPLE_BATCH frame payload is ", frame.payload.size(), " bytes, expected ",
         expected, " for ", count, " samples of ", n_channels, " channels");
  out.stream = static_cast<Index>(load_u32(p));
  out.base_seq = load_u64(p + 4);
  out.count = static_cast<Index>(count);
  out.bad_channel = -1;
  out.values.resize(static_cast<std::size_t>(count) * static_cast<std::size_t>(n_channels));
  Index valid = 0;
  for (Index i = 0; i < out.count && out.bad_channel < 0; ++i) {
    const std::uint8_t* row = p + 16 + 4 * static_cast<std::size_t>(i) *
                                       static_cast<std::size_t>(n_channels);
    for (Index c = 0; c < n_channels; ++c) {
      const float v = load_f32(row + 4 * c);
      if (!std::isfinite(v)) {
        out.bad_channel = c;
        break;
      }
      out.values[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_channels) +
                 static_cast<std::size_t>(c)] = v;
    }
    if (out.bad_channel < 0) valid = i + 1;
  }
  out.valid = valid;
  out.values.resize(static_cast<std::size_t>(valid) * static_cast<std::size_t>(n_channels));
}

ScoreData decode_score(const Frame& frame) {
  require_type(frame, FrameType::Score);
  require_size(frame, 16);
  const std::uint8_t* p = frame.payload.data();
  return {static_cast<Index>(load_u32(p)), load_u64(p + 4), load_f32(p + 12)};
}

AlarmData decode_alarm(const Frame& frame) {
  require_type(frame, FrameType::Alarm);
  require_size(frame, 25);
  const std::uint8_t* p = frame.payload.data();
  AlarmData a;
  a.stream = static_cast<Index>(load_u32(p));
  a.onset_sample = load_u64(p + 4);
  a.last_sample = load_u64(p + 12);
  a.peak_score = load_f32(p + 20);
  if (p[24] > 1) fail("net: invalid raised byte ", static_cast<int>(p[24]), " in ALARM frame");
  a.raised = p[24] == 1;
  return a;
}

NackData decode_nack(const Frame& frame) {
  require_type(frame, FrameType::Nack);
  require_size(frame, 14);
  const std::uint8_t* p = frame.payload.data();
  NackData n;
  n.stream = static_cast<Index>(load_u32(p));
  n.seq = load_u64(p + 4);
  if (p[12] > static_cast<std::uint8_t>(serve::PushResult::Rejected))
    fail("net: invalid PushResult byte ", static_cast<int>(p[12]), " in NACK frame");
  n.result = static_cast<serve::PushResult>(p[12]);
  if (p[13] > static_cast<std::uint8_t>(NackReason::MalformedSample))
    fail("net: invalid NackReason byte ", static_cast<int>(p[13]), " in NACK frame");
  n.reason = static_cast<NackReason>(p[13]);
  return n;
}

WireStats decode_stats_reply(const Frame& frame) {
  require_type(frame, FrameType::StatsReply);
  require_size(frame, 108);
  const std::uint8_t* p = frame.payload.data();
  WireStats s;
  s.pushed = load_u64(p);
  s.dropped = load_u64(p + 8);
  s.rejected = load_u64(p + 16);
  s.rounds = load_u64(p + 24);
  s.naps = load_u64(p + 32);
  s.scored = load_u64(p + 40);
  s.round_p50_ns = load_u64(p + 48);
  s.round_p95_ns = load_u64(p + 56);
  s.round_p99_ns = load_u64(p + 64);
  s.push_to_score_p50_ns = load_u64(p + 72);
  s.push_to_score_p95_ns = load_u64(p + 80);
  s.push_to_score_p99_ns = load_u64(p + 88);
  s.n_streams = static_cast<Index>(load_u32(p + 96));
  s.n_shards = static_cast<Index>(load_u32(p + 100));
  s.n_connections = static_cast<Index>(load_u32(p + 104));
  return s;
}

std::string decode_wire_error(const Frame& frame) {
  require_type(frame, FrameType::WireError);
  return std::string(reinterpret_cast<const char*>(frame.payload.data()),
                     frame.payload.size());
}

void FrameReader::validate_header() {
  const std::uint8_t* p = buffer_.data() + consumed_;
  if (p[0] != kMagic) {
    char hex[8];
    std::snprintf(hex, sizeof(hex), "0x%02x", p[0]);
    fail("net: bad magic byte ", hex, " (expected 0xda)");
  }
  if (p[1] != kWireVersion)
    fail("net: unsupported wire version ", static_cast<int>(p[1]), " (expected ",
         static_cast<int>(kWireVersion), ")");
  if (p[2] < static_cast<std::uint8_t>(FrameType::Hello) ||
      p[2] > static_cast<std::uint8_t>(FrameType::SampleBatch))
    fail("net: unknown frame type ", static_cast<int>(p[2]));
  if (p[3] != 0) fail("net: nonzero reserved header byte ", static_cast<int>(p[3]));
  const std::uint32_t len = load_u32(p + 4);
  if (len > kMaxPayload)
    fail("net: oversized frame length ", len, " (cap ", kMaxPayload, " bytes)");
  header_valid_ = true;
}

void FrameReader::feed(const void* bytes, std::size_t n) {
  if (!poisoned_message_.empty()) throw Error(poisoned_message_);
  // Compact before growing: consumed bytes at the front are dead weight the
  // next memmove-free append would otherwise copy forever.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const auto* src = static_cast<const std::uint8_t*>(bytes);
  buffer_.insert(buffer_.end(), src, src + n);
  // Validate the header eagerly so garbage is named before its (possibly
  // never-arriving) payload. A failure poisons the reader: framing is gone.
  if (!header_valid_ && buffered() >= kHeaderSize) {
    try {
      validate_header();
    } catch (const Error& e) {
      poisoned_message_ = e.what();
      throw;
    }
  }
}

bool FrameReader::next(Frame& out) {
  if (!poisoned_message_.empty()) throw Error(poisoned_message_);
  if (buffered() < kHeaderSize) return false;
  // The front header is validated by feed() when it first completes; after a
  // frame is consumed the *next* header is validated here, so a well-formed
  // frame followed by garbage is still delivered before the error fires.
  if (!header_valid_) {
    try {
      validate_header();
    } catch (const Error& e) {
      poisoned_message_ = e.what();
      throw;
    }
  }
  const std::uint8_t* p = buffer_.data() + consumed_;
  const std::uint32_t len = load_u32(p + 4);
  if (buffered() < kHeaderSize + len) return false;
  out.type = static_cast<FrameType>(p[2]);
  out.payload.assign(p + kHeaderSize, p + kHeaderSize + len);
  consumed_ += kHeaderSize + len;
  header_valid_ = false;
  return true;
}

}  // namespace varade::net
