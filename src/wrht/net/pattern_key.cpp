#include "wrht/net/pattern_key.hpp"

#include <algorithm>
#include <cstddef>

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

std::uint64_t transfer_key(const coll::Transfer& t, bool include_direction) {
  std::uint64_t dir_bits = 0;
  if (include_direction && t.direction) {
    dir_bits = *t.direction == topo::Direction::kClockwise ? 1 : 2;
  }
  return (static_cast<std::uint64_t>(t.src) << 34) ^
         (static_cast<std::uint64_t>(t.dst) << 4) ^ dir_bits;
}

}  // namespace

std::uint64_t step_signature(const coll::Step& step, bool include_direction) {
  std::uint64_t h = 0;
  std::size_t max_count = 0;
  for (const coll::Transfer& t : step.transfers) {
    h += fmix64(transfer_key(t, include_direction));
    max_count = std::max(max_count, t.count);
  }
  return h + fmix64(0x8000'0000'0000'0000ull | max_count);
}

}  // namespace wrht::net
