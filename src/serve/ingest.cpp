#include "varade/serve/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "varade/serve/checked.hpp"

namespace varade::serve {

void Backoff::wait() {
  constexpr int kPauseRounds = 16;
  constexpr int kYieldRounds = 64;
  if (spins_ < kPauseRounds) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  } else if (spins_ < kYieldRounds) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ++spins_;
}

const char* to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::Block: return "Block";
    case BackpressurePolicy::DropOldest: return "DropOldest";
    case BackpressurePolicy::Reject: return "Reject";
  }
  return "?";
}

const char* to_string(PushResult result) {
  switch (result) {
    case PushResult::Ok: return "Ok";
    case PushResult::DroppedOldest: return "DroppedOldest";
    case PushResult::Rejected: return "Rejected";
  }
  return "?";
}

Index SampleRing::round_up_capacity(Index min_capacity) {
  check(min_capacity >= 1, "SampleRing capacity must be >= 1");
  check(min_capacity <= (Index{1} << 30U), "SampleRing capacity unreasonably large");
  Index p = 1;
  while (p < min_capacity) p <<= 1U;
  return p;
}

RingArena::RingArena(Index n_rings, Index channels, Index min_capacity)
    : n_rings_(n_rings), channels_(channels), capacity_(SampleRing::round_up_capacity(min_capacity)) {
  check(n_rings >= 1, "RingArena needs at least one ring");
  check(channels >= 1, "RingArena needs at least one channel");
  const Index total_slots = detail::checked_mul(n_rings_, capacity_, "ring arena slot count");
  const Index total_floats =
      detail::checked_mul(total_slots, channels_, "ring arena sample storage");
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(static_cast<std::size_t>(total_slots));
  data_.assign(static_cast<std::size_t>(total_floats), 0.0F);
  if constexpr (obs::kEnabled) ts_.assign(static_cast<std::size_t>(total_slots), 0);
  // new[] rather than make_unique: SampleRing's constructor is private to
  // this class.
  rings_.reset(new SampleRing[static_cast<std::size_t>(n_rings_)]);
  const auto cap = static_cast<std::size_t>(capacity_);
  for (Index i = 0; i < n_rings_; ++i) {
    SampleRing& r = rings_[static_cast<std::size_t>(i)];
    const std::size_t first = static_cast<std::size_t>(i) * cap;
    r.channels_ = channels_;
    r.mask_ = cap - 1;
    r.slots_ = slots_.get() + first;
    r.data_ = data_.data() + first * static_cast<std::size_t>(channels_);
    if (!ts_.empty()) r.ts_ = ts_.data() + first;
    // Every slot starts free on lap 0 (sequence == position).
    for (std::size_t j = 0; j < cap; ++j) r.slots_[j].store(j, std::memory_order_relaxed);
  }
}

void RingArena::throw_out_of_range() { throw Error("RingArena ring index out of range"); }

bool SampleRing::try_push(const float* sample, std::int64_t enqueue_ns) {
  std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  for (;;) {
    std::atomic<std::uint64_t>& slot = slots_[pos & mask_];
    const std::uint64_t seq = slot.load(std::memory_order_acquire);
    const auto dif = static_cast<std::int64_t>(seq - pos);
    if (dif == 0) {
      // Slot free on this lap: claim the position, then publish the data.
      if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
        std::copy(sample, sample + channels_,
                  data_ + (pos & mask_) * static_cast<std::uint64_t>(channels_));
        // The lane entry must be (re)written even for unsampled pushes:
        // a stale timestamp from a previous lap would otherwise surface.
        if constexpr (obs::kEnabled) {
          if (ts_ != nullptr) ts_[pos & mask_] = enqueue_ns;
        }
        slot.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS updated pos to the current tail; retry with it.
    } else if (dif < 0) {
      return false;  // the slot still holds last lap's sample: ring is full
    } else {
      pos = tail_.load(std::memory_order_relaxed);  // another push won the slot
    }
  }
}

bool SampleRing::claim_pop(std::uint64_t& pos_out) {
  std::uint64_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    std::atomic<std::uint64_t>& slot = slots_[pos & mask_];
    const std::uint64_t seq = slot.load(std::memory_order_acquire);
    const auto dif = static_cast<std::int64_t>(seq - (pos + 1));
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
        pos_out = pos;
        return true;
      }
    } else if (dif < 0) {
      return false;  // slot not yet published: ring is empty
    } else {
      pos = head_.load(std::memory_order_relaxed);  // another pop won the slot
    }
  }
}

bool SampleRing::try_pop_discard() {
  std::uint64_t pos = 0;
  if (!claim_pop(pos)) return false;
  slots_[pos & mask_].store(pos + mask_ + 1, std::memory_order_release);
  return true;
}

Index SampleRing::size_approx() const {
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail <= head) return 0;
  return static_cast<Index>(std::min<std::uint64_t>(tail - head, mask_ + 1));
}

}  // namespace varade::serve
