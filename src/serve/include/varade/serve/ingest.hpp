// Lock-free bounded sample rings: the ingestion side of the async serving
// runtime.
//
// Each stream owns one SampleRing — a bounded, power-of-two-capacity ring of
// fixed-width float samples with cache-line-padded head/tail positions. Ring
// storage has one provider: a RingArena builds a shard's rings over two (three
// with the telemetry lane) slabs it owns, and hands them out by index. The
// slot-sequence protocol (Vyukov bounded queue) makes push and pop both
// CAS-claimed and wait-free of each other, so:
//   - a producer thread can push while the scoring thread pops (the SPSC
//     serving contract: one producer per stream preserves that producer's
//     order exactly, which is what the runtime's determinism guarantee is
//     built on);
//   - several producers may share a stream without corruption (their relative
//     interleaving is then scheduler-defined, as for any concurrent stream);
//   - the DropOldest backpressure policy can evict from the producer side
//     (a second concurrent popper) without a lock.
//
// No mutex is taken anywhere in this header; full/empty are communicated by
// try_push/try_pop_with return values and mapped to a BackpressurePolicy by the
// AsyncScoringRuntime, and Backoff paces the retry loops around them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "varade/obs/telemetry.hpp"
#include "varade/tensor/tensor.hpp"

namespace varade::serve {

/// What AsyncScoringRuntime::push does when the stream's ring is full.
enum class BackpressurePolicy {
  Block,       ///< wait (escalating backoff) until the scorer frees a slot
  DropOldest,  ///< evict the oldest buffered sample to make room
  Reject,      ///< give up immediately; the sample is not enqueued
};

/// Outcome of one AsyncScoringRuntime::push call.
enum class PushResult {
  Ok,             ///< enqueued
  DroppedOldest,  ///< enqueued after evicting at least one older sample
  Rejected,       ///< NOT enqueued (full under Reject, or the runtime closed)
};

const char* to_string(BackpressurePolicy policy);
const char* to_string(PushResult result);

/// Escalating wait for lock-free retry loops (blocked producers, the async
/// runtime's idle scorer): a few CPU pauses, then sched yields, then short
/// sleeps — so a spinning thread cannot starve the thread it is waiting on
/// even on a single-core host.
class Backoff {
 public:
  /// Waits a little; each consecutive call without reset() waits harder.
  void wait();
  void reset() { spins_ = 0; }

 private:
  int spins_ = 0;
};

/// Bounded lock-free ring of fixed-width float samples over storage carved
/// from a RingArena slab (the only way to get one: see RingArena::ring).
class SampleRing {
 public:
  /// The capacity a RingArena gives a ring asked for `min_capacity` samples:
  /// the next power of two.
  static Index round_up_capacity(Index min_capacity);

  SampleRing(const SampleRing&) = delete;
  SampleRing& operator=(const SampleRing&) = delete;

  Index channels() const { return channels_; }
  Index capacity() const { return static_cast<Index>(mask_ + 1); }

  /// Copies `channels()` floats into the ring. Returns false when full.
  /// Safe to call concurrently with the pops and with other try_push callers.
  bool try_push(const float* sample) { return try_push(sample, 0); }

  /// try_push carrying a telemetry timestamp (an obs::tick() value, 0 =
  /// unsampled) through the ring's timestamp lane alongside the sample data.
  /// The consumer receives it in try_pop_with's sink. Dropped when the ring
  /// has no lane (telemetry compiled off).
  bool try_push(const float* sample, std::int64_t enqueue_ns);

  /// Zero-copy pop: claims the oldest sample and invokes
  /// `sink(const float* slot, std::int64_t enqueue_ns)` on its in-ring data
  /// before the slot is recycled, so a consumer can move the sample straight
  /// into its own structures without an intermediate staging buffer. The
  /// pointer is only valid inside the call; `enqueue_ns` is the telemetry
  /// timestamp the producer pushed with (0 when unsampled or the ring has no
  /// lane). Returns false when empty. Safe to call concurrently with try_push
  /// and other poppers; the slot is recycled even if `sink` throws (the
  /// sample is then lost, but the ring stays usable).
  template <typename Sink>
  bool try_pop_with(Sink&& sink) {
    std::uint64_t pos = 0;
    if (!claim_pop(pos)) return false;
    const float* src = data_ + (pos & mask_) * static_cast<std::uint64_t>(channels_);
    std::int64_t enqueue_ns = 0;
    if constexpr (obs::kEnabled) {
      if (ts_ != nullptr) enqueue_ns = ts_[pos & mask_];
    }
    struct Recycle {
      SampleRing* ring;
      std::uint64_t pos;
      ~Recycle() { ring->slots_[pos & ring->mask_].store(pos + ring->mask_ + 1,
                                                         std::memory_order_release); }
    } recycle{this, pos};
    sink(static_cast<const float*>(src), enqueue_ns);
    return true;
  }

  /// Discards the oldest sample. Returns false when empty.
  bool try_pop_discard();

  /// Snapshot of the number of buffered samples; exact only while quiescent.
  Index size_approx() const;

  bool empty_approx() const { return size_approx() == 0; }

 private:
  // One sequence ticket per slot. seq == pos     : slot free, push may claim.
  //                               seq == pos + 1 : slot full, pop may claim.
  // Push publishes data with a release store of pos + 1; pop recycles the
  // slot for the next lap with pos + capacity.
  static constexpr std::size_t kCacheLine = 64;

  friend class RingArena;
  /// Unbound ring; RingArena binds it to its slab slices (and nothing else
  /// may construct one).
  SampleRing() = default;

  bool claim_pop(std::uint64_t& pos_out);

  Index channels_ = 0;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t>* slots_ = nullptr;  // capacity sequence tickets
  float* data_ = nullptr;                        // capacity * channels floats, slot-major
  // Telemetry timestamp lane, one std::int64_t per slot. Plain (non-atomic)
  // stores are safe under the slot-sequence protocol: the lane entry is
  // written between the tail CAS claiming the slot and the release store
  // publishing it, exactly like the sample data, so the consumer's acquire
  // load of the sequence orders the read. nullptr when telemetry is
  // compiled off.
  std::int64_t* ts_ = nullptr;

  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  // next push position
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  // next pop position
};

/// A shard's worth of SampleRings and their storage: one slot-sequence slab
/// and one sample-data slab (plus the telemetry timestamp lane when telemetry
/// is compiled in), carved into `n_rings` equal-capacity rings — two large
/// allocations per shard instead of two small ones per stream, the layout
/// that makes 100k+ streams per host cheap. All sizing arithmetic is
/// overflow-checked, so a fleet-scale configuration that cannot fit in Index
/// fails at construction instead of wrapping.
class RingArena {
 public:
  /// `n_rings` rings of `channels`-float samples, each with capacity
  /// SampleRing::round_up_capacity(min_capacity).
  RingArena(Index n_rings, Index channels, Index min_capacity);

  RingArena(const RingArena&) = delete;
  RingArena& operator=(const RingArena&) = delete;

  Index n_rings() const { return n_rings_; }
  Index channels() const { return channels_; }
  /// Per-ring capacity (a power of two).
  Index capacity() const { return capacity_; }

  /// Ring `i`; throws unless i is in [0, n_rings()).
  SampleRing& ring(Index i) {
    if (i < 0 || i >= n_rings_) throw_out_of_range();  // branch before message: per push
    return rings_[static_cast<std::size_t>(i)];
  }

 private:
  [[noreturn]] static void throw_out_of_range();

  Index n_rings_ = 0;
  Index channels_ = 0;
  Index capacity_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::vector<float> data_;
  std::vector<std::int64_t> ts_;  // empty when telemetry is compiled off
  std::unique_ptr<SampleRing[]> rings_;
};

}  // namespace varade::serve
