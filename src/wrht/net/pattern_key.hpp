// Shared pattern-cache keying for schedule-executing backends.
//
// Both the optical ring and the electrical fat tree memoize per-step
// evaluations: structurally identical steps (all 2(N-1) Ring All-reduce
// steps, the repeated H-Ring stages, ...) share one RWA / fair-sharing
// evaluation. The key is the multiset of (src, dst[, direction]) tuples
// plus the step's largest transfer count, hashed in one pass with no
// buffer and no sort: each tuple's word goes through murmur3's fmix64
// and the results are summed, so the key is order-insensitive, and
// duplicate tuples add up instead of cancelling as they would under XOR.
// Per-transfer counts are deliberately excluded — chunk sizes rotate by
// +/-1 element between ring steps without changing routing or the
// dominating payload. The two engines used to carry private copies of
// this hash; this is the single definition.
#pragma once

#include <cstdint>

#include "wrht/collectives/schedule.hpp"

namespace wrht::net {

/// With `include_direction` the optional optical routing hint of each
/// transfer participates in the key (two steps that differ only in pinned
/// ring directions route differently); electrical backends ignore hints
/// and pass false so hint-variants share one cache entry.
[[nodiscard]] std::uint64_t step_signature(const coll::Step& step,
                                           bool include_direction);

}  // namespace wrht::net
