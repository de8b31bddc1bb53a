// varade::net wire protocol: the compact binary framing spoken between the
// varade-served daemon and net::Client producers.
//
// Every frame is an 8-byte header followed by a payload:
//
//   offset  size  field
//        0     1  magic          0xDA
//        1     1  version        1 (this header)
//        2     1  type           FrameType
//        3     1  reserved       must be 0
//        4     4  payload_len    u32, little-endian, <= kMaxPayload
//
// All multi-byte integers are little-endian; floats travel as the
// little-endian bytes of their IEEE-754 bit pattern, so a value scored by the
// daemon arrives at the client bit-identical — the serving determinism
// contract survives the socket. Encoding and decoding are byte-assembled
// (no struct punning), so the format is identical on any host endianness.
//
// Validation is the point of this layer: FrameReader checks the header as
// soon as its 8 bytes are buffered (bad magic/version/type and oversized
// lengths are rejected before any payload arrives), and every typed decode_*
// checks the exact payload size and value ranges (SAMPLE additionally
// rejects non-finite floats, naming the channel). All rejection paths throw
// varade::Error with a message starting "net: " — malformed input is a named
// error, never undefined behaviour.
//
// Frame catalogue (direction in parentheses):
//   Hello        (c->s)  {u8 policy_request, u8 features}  open the session
//   Welcome      (s->c)  {u32 streams, u32 channels, f32 threshold,
//                         u8 policy, u8 features}      config handshake reply
//   Sample       (c->s)  {u32 stream, u64 seq, C f32}   one raw sample
//   SampleBatch  (c->s)  {u32 stream, u64 base_seq, u32 count, K*C f32}
//                        K consecutive samples of one stream under one header
//   Score        (s->c)  {u32 stream, u64 sample, f32}  one anomaly score
//   Alarm        (s->c)  {u32 stream, u64 onset, u64 last, f32 peak,
//                         u8 raised}                    alarm event state
//   Nack         (s->c)  {u32 stream, u64 seq, u8 PushResult, u8 reason}
//   Shutdown     (c->s)  {}                             ask the daemon to stop
//   Goodbye      (s->c)  {}                             orderly close
//   WireError    (s->c)  {utf-8 message}                protocol violation
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "varade/serve/ingest.hpp"
#include "varade/tensor/tensor.hpp"

namespace varade::net {

inline constexpr std::uint8_t kMagic = 0xDA;
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 8;
/// Upper bound on a frame payload; a length field beyond this is rejected
/// before any buffering, so a malformed (or hostile) length cannot trigger a
/// giant allocation.
inline constexpr std::uint32_t kMaxPayload = 1U << 20;

enum class FrameType : std::uint8_t {
  Hello = 1,
  Welcome = 2,
  Sample = 3,
  Score = 4,
  Alarm = 5,
  Nack = 6,
  // 7 and 8 are retired: FrameReader rejects them as unknown, and no new
  // frame may take them, since an old peer may still send them.
  Shutdown = 9,
  Goodbye = 10,
  WireError = 11,
  SampleBatch = 12,
};

/// Hard cap on samples per SAMPLE_BATCH frame. With the 1 MiB payload cap a
/// batch of 4096 samples still leaves room for 63 channels; a count beyond
/// this is rejected before any per-sample work.
inline constexpr std::uint32_t kMaxBatchSamples = 4096;

// HELLO/WELCOME feature bits (HELLO's second payload byte, WELCOME's
// fourteenth). The client advertises what it wants and the daemon echoes the
// subset it granted, so both sides agree before the first SAMPLE.
inline constexpr std::uint8_t kFeatureSampleBatch = 0x01;  ///< SAMPLE_BATCH accepted
inline constexpr std::uint8_t kFeatureShm = 0x02;          ///< shm ring transport

/// Human-readable frame-type name (used in every decode error message).
const char* to_string(FrameType type);

/// Why the daemon refused a SAMPLE frame (or part of a SAMPLE_BATCH).
enum class NackReason : std::uint8_t {
  Backpressure = 0,     ///< the stream's ring was full under the Reject policy
  StreamBusy = 1,       ///< the stream is owned by another live connection
  MalformedSample = 2,  ///< non-finite value inside a SAMPLE_BATCH; seq names
                        ///< the first bad sample and the batch tail from it
                        ///< onward was dropped (the connection stays open)
};

const char* to_string(NackReason reason);

/// One decoded frame: type plus raw payload bytes (typed decode_* helpers
/// below validate and unpack them).
struct Frame {
  FrameType type = FrameType::Hello;
  std::vector<std::uint8_t> payload;
};

/// Welcome payload: the daemon's serving configuration, fixed for the
/// session. policy is the admission-control policy the daemon resolved for
/// this connection (the Hello request, or the daemon default).
struct Welcome {
  Index n_streams = 0;
  Index n_channels = 0;
  float threshold = 0.0F;
  serve::BackpressurePolicy policy = serve::BackpressurePolicy::Block;
  /// Feature bits the daemon granted (subset of the Hello request).
  std::uint8_t features = 0;
};

/// Decoded HELLO frame: the requested backpressure policy (nullopt defers to
/// the daemon default) plus the feature bits the client advertises.
struct HelloData {
  std::optional<serve::BackpressurePolicy> policy;
  std::uint8_t features = 0;
};

/// Decoded SAMPLE frame. `values` is reused across calls so the per-sample
/// decode path does not allocate once warmed up.
struct SampleData {
  Index stream = 0;
  std::uint64_t seq = 0;
  std::vector<float> values;
};

/// Decoded SAMPLE_BATCH frame. Structural problems (bad count, size
/// mismatch) throw like any other decode; a non-finite *value* instead
/// truncates: `valid` is the number of leading well-formed samples copied
/// into `values` and `bad_channel` names the offending channel of sample
/// `valid` (-1 when the whole batch is clean). The server turns a truncation
/// into NACK(MalformedSample, seq = base_seq + valid) without dropping the
/// connection — the sender loses the batch tail, not the session.
struct SampleBatchData {
  Index stream = 0;
  std::uint64_t base_seq = 0;
  Index count = 0;        ///< samples carried by the frame
  Index valid = 0;        ///< leading samples with all-finite values
  Index bad_channel = -1; ///< channel of the first non-finite value
  std::vector<float> values;  ///< [valid * n_channels], reused across calls
};

/// Decoded SCORE frame.
struct ScoreData {
  Index stream = 0;
  std::uint64_t sample = 0;
  float score = 0.0F;
};

/// Decoded ALARM frame: the owning stream's latest alarm event after an
/// update. `raised` distinguishes a newly raised event from an extension of
/// the current one, so a client can reconstruct the exact event list.
struct AlarmData {
  Index stream = 0;
  std::uint64_t onset_sample = 0;
  std::uint64_t last_sample = 0;
  float peak_score = 0.0F;
  bool raised = false;
};

/// Decoded NACK frame.
struct NackData {
  Index stream = 0;
  std::uint64_t seq = 0;
  serve::PushResult result = serve::PushResult::Rejected;
  NackReason reason = NackReason::Backpressure;
};

// --- encoding ---------------------------------------------------------------
// Every append_* encodes one complete frame (header + payload) onto `out`,
// so a caller can batch many frames into one write() syscall.

void append_frame(std::vector<std::uint8_t>& out, FrameType type, const std::uint8_t* payload,
                  std::size_t payload_len);
/// HELLO's policy byte: a concrete policy requests it; nullopt (wire value
/// 255) asks the daemon to apply its configured default. The second byte
/// carries the `features` the client asks for (0 = none).
void append_hello(std::vector<std::uint8_t>& out,
                  std::optional<serve::BackpressurePolicy> policy = std::nullopt,
                  std::uint8_t features = 0);
void append_welcome(std::vector<std::uint8_t>& out, const Welcome& welcome);
void append_sample(std::vector<std::uint8_t>& out, Index stream, std::uint64_t seq,
                   const float* values, Index n_channels);
/// One header for `count` consecutive samples of one stream; `values` is the
/// row-major [count, n_channels] block starting at sequence `base_seq`.
void append_sample_batch(std::vector<std::uint8_t>& out, Index stream, std::uint64_t base_seq,
                         const float* values, Index count, Index n_channels);
void append_score(std::vector<std::uint8_t>& out, Index stream, std::uint64_t sample,
                  float score);
void append_alarm(std::vector<std::uint8_t>& out, const AlarmData& alarm);
void append_nack(std::vector<std::uint8_t>& out, const NackData& nack);
void append_shutdown(std::vector<std::uint8_t>& out);
void append_goodbye(std::vector<std::uint8_t>& out);
void append_wire_error(std::vector<std::uint8_t>& out, const std::string& message);

// --- decoding ---------------------------------------------------------------
// Each decode_* throws varade::Error (message prefixed "net: ") when the
// frame is not of the expected type, the payload size does not match, or a
// value is out of range. decode_sample also rejects non-finite floats.

Welcome decode_welcome(const Frame& frame);
/// `n_channels` fixes the expected payload size; `out.values` is resized to
/// it. Rejects non-finite values, naming the channel.
void decode_sample(const Frame& frame, Index n_channels, SampleData& out);
/// Structural validation (count in [1, kMaxBatchSamples], payload exactly
/// 16 + 4*count*n_channels bytes) throws; non-finite values truncate into
/// out.valid / out.bad_channel instead (see SampleBatchData).
void decode_sample_batch(const Frame& frame, Index n_channels, SampleBatchData& out);
ScoreData decode_score(const Frame& frame);
AlarmData decode_alarm(const Frame& frame);
NackData decode_nack(const Frame& frame);
/// Requires the 2-byte payload and rejects unknown feature bits.
HelloData decode_hello(const Frame& frame);
/// WireError payload is the error message itself.
std::string decode_wire_error(const Frame& frame);

/// Incremental frame parser surviving arbitrary read fragmentation: feed()
/// whatever bytes the socket produced (any split, byte-at-a-time included),
/// then drain complete frames with next(). The header is validated as soon
/// as its 8 bytes are buffered, so malformed input is rejected without
/// waiting for (or allocating) a payload. After a validation throw the
/// reader is poisoned: the stream has lost framing, so every further feed()
/// or next() rethrows — close the connection instead.
class FrameReader {
 public:
  /// Appends raw bytes; throws on a malformed header.
  void feed(const void* bytes, std::size_t n);

  /// Extracts the next complete frame into `out`; false when more bytes are
  /// needed.
  bool next(Frame& out);

  /// Bytes buffered but not yet returned as frames (a nonzero value at
  /// connection EOF means the peer died mid-frame).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  void validate_header();

  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  bool header_valid_ = false;     // current header already validated
  std::string poisoned_message_;  // nonempty once a validation error fired
};

}  // namespace varade::net
