#include "wrht/net/pattern_key.hpp"

#include <algorithm>

namespace wrht::net {

namespace {

/// murmur3's 64-bit finalizer: a bijection on 64-bit words whose every
/// output bit depends on every input bit, so a plain sum of mixed keys
/// is a multiset hash.
std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// One step's key as its transfers are read: the sum of their mixed
/// words, then the mixed largest count, tagged with the top bit.
class StepKey {
 public:
  void add(const coll::Transfer& t, bool include_direction) {
    sum_ += fmix64(transfer_key(t, include_direction));
    max_count_ = std::max(max_count_, t.count);
  }
  [[nodiscard]] std::uint64_t value() const {
    return sum_ + fmix64(0x8000'0000'0000'0000ull | max_count_);
  }

 private:
  std::uint64_t sum_ = 0;
  std::size_t max_count_ = 0;
};

/// scan_schedule for one key mode, so the transfer loop holds no branch
/// on it.
template <StepKeys kKeys>
ScheduleScan scan(const coll::Schedule& schedule) {
  constexpr bool kSigned = kKeys != StepKeys::kNone;
  const std::vector<coll::Step>& steps = schedule.steps();
  ScheduleScan out;
  out.steps = steps.size();
  if constexpr (kSigned) out.signatures.reserve(steps.size());
  std::uint64_t traffic = 0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    StepKey key;
    for (const coll::Transfer& t : steps[s].transfers) {
      schedule.check_transfer(t, s);
      traffic += t.count;
      if constexpr (kSigned) key.add(t, kKeys == StepKeys::kDirected);
    }
    if constexpr (kSigned) out.signatures.push_back(key.value());
  }
  out.traffic_elements = traffic;
  return out;
}

}  // namespace

std::uint64_t transfer_key(const coll::Transfer& t, bool include_direction) {
  const std::uint64_t dir_bits = include_direction ? t.direction.bits() : 0;
  return (static_cast<std::uint64_t>(t.src) << 34) ^
         (static_cast<std::uint64_t>(t.dst) << 4) ^ dir_bits;
}

std::uint64_t step_signature(const coll::Step& step, bool include_direction) {
  StepKey key;
  for (const coll::Transfer& t : step.transfers) key.add(t, include_direction);
  return key.value();
}

ScheduleScan scan_schedule(const coll::Schedule& schedule, StepKeys keys) {
  switch (keys) {
    case StepKeys::kUndirected:
      return scan<StepKeys::kUndirected>(schedule);
    case StepKeys::kDirected:
      return scan<StepKeys::kDirected>(schedule);
    case StepKeys::kNone:
      break;
  }
  return scan<StepKeys::kNone>(schedule);
}

}  // namespace wrht::net
