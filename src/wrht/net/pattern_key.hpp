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
//
// scan_schedule is the one read of a schedule an engine makes before
// pricing it: validation, traffic and, for the cached engines, every
// step's key, in one pass over the transfers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wrht/collectives/schedule.hpp"

namespace wrht::net {

/// The word one transfer contributes to a key: src in bits 34 and up, dst
/// from bit 4, and in the low bits the transfer's direction hint byte
/// (0 none, 1 clockwise, 2 counter-clockwise) when `include_direction`,
/// else 0.
[[nodiscard]] std::uint64_t transfer_key(const coll::Transfer& t,
                                         bool include_direction);

/// With `include_direction` the optional optical routing hint of each
/// transfer participates in the key (two steps that differ only in pinned
/// ring directions route differently); electrical backends ignore hints
/// and pass false so hint-variants share one cache entry.
[[nodiscard]] std::uint64_t step_signature(const coll::Step& step,
                                           bool include_direction);

/// Which key scan_schedule computes for every step.
enum class StepKeys : std::uint8_t {
  kNone,        ///< no keys: engines without a pattern cache
  kUndirected,  ///< step_signature(step, false): the electrical fabric
  kDirected,    ///< step_signature(step, true): the optical ring
};

/// What one read of a schedule yields.
struct ScheduleScan {
  std::size_t steps = 0;
  /// Schedule::total_traffic_elements().
  std::uint64_t traffic_elements = 0;
  /// One key per step under the scan's StepKeys; empty under kNone.
  std::vector<std::uint64_t> signatures;
};

/// Reads `schedule` once. Applies Schedule::check_transfer to every
/// transfer in order, so it throws exactly what Schedule::validate()
/// throws; sums the traffic; and keys every step, empty ones included, as
/// `keys` asks. Engines call it in place of validate(), the traffic sum
/// and a per-step step_signature.
[[nodiscard]] ScheduleScan scan_schedule(const coll::Schedule& schedule,
                                         StepKeys keys);

}  // namespace wrht::net
