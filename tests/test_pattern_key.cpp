// net::step_signature keys the optical and electrical pattern caches: two
// steps with equal signatures share one RWA / fair-sharing evaluation. These
// tests pin what the key must and must not see, and pin net::scan_schedule,
// the engines' one read of a schedule, to the three reads it replaces:
// Schedule::validate(), total_traffic_elements() and step_signature.
#include "wrht/net/pattern_key.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <typeinfo>
#include <unordered_set>

#include "wrht/collectives/registry.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/mesh_wrht.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/topo/mesh.hpp"
#include "wrht/topo/torus.hpp"

namespace wrht::net {
namespace {

using coll::NodeId;
using coll::Step;
using coll::Transfer;
using coll::TransferKind;
using topo::Direction;

Transfer transfer(NodeId src, NodeId dst, std::size_t count = 8,
                  std::optional<Direction> direction = std::nullopt,
                  std::size_t offset = 0) {
  return Transfer{src, dst, offset, count, TransferKind::kReduce, direction};
}

Step step_of(std::initializer_list<Transfer> transfers) {
  Step step;
  step.transfers.assign(transfers.begin(), transfers.end());
  return step;
}

TEST(PatternKey, PermutingTransfersLeavesItUnchanged) {
  Step step;
  for (NodeId i = 0; i < 16; ++i) {
    step.transfers.push_back(transfer(i, (i + 5) % 16, 8 + i % 3,
                                      i % 2 ? Direction::kClockwise
                                            : Direction::kCounterClockwise));
  }
  const std::uint64_t forward = step_signature(step, true);
  const std::uint64_t electrical = step_signature(step, false);
  std::mt19937 rng(7);
  for (int k = 0; k < 20; ++k) {
    std::shuffle(step.transfers.begin(), step.transfers.end(), rng);
    EXPECT_EQ(step_signature(step, true), forward);
    EXPECT_EQ(step_signature(step, false), electrical);
  }
}

TEST(PatternKey, DuplicateTransfersDoNotCancel) {
  const Transfer a = transfer(0, 1);
  const Transfer b = transfer(2, 3);
  for (const bool direction : {true, false}) {
    EXPECT_NE(step_signature(step_of({a, a, b}), direction),
              step_signature(step_of({a, b, b}), direction));
    // An XOR combine would make a pair vanish.
    EXPECT_NE(step_signature(step_of({a, a, b}), direction),
              step_signature(step_of({b}), direction));
    EXPECT_NE(step_signature(step_of({a, a}), direction),
              step_signature(step_of({a}), direction));
  }
}

TEST(PatternKey, DirectionMattersOnlyWithIncludeDirection) {
  const Step none = step_of({transfer(0, 3)});
  const Step cw = step_of({transfer(0, 3, 8, Direction::kClockwise)});
  const Step ccw = step_of({transfer(0, 3, 8, Direction::kCounterClockwise)});

  EXPECT_NE(step_signature(none, true), step_signature(cw, true));
  EXPECT_NE(step_signature(none, true), step_signature(ccw, true));
  EXPECT_NE(step_signature(cw, true), step_signature(ccw, true));

  EXPECT_EQ(step_signature(none, false), step_signature(cw, false));
  EXPECT_EQ(step_signature(none, false), step_signature(ccw, false));
}

TEST(PatternKey, PerTransferRangesBelowTheMaximumAreIgnored) {
  // Ring chunks rotate between steps: offsets move and counts differ by
  // one element, but routing and the dominating payload stay put.
  const Step one = step_of({transfer(0, 1, 10, {}, 0), transfer(1, 2, 9, {}, 10),
                            transfer(2, 0, 9, {}, 19)});
  const Step two = step_of({transfer(0, 1, 9, {}, 19), transfer(1, 2, 10, {}, 0),
                            transfer(2, 0, 3, {}, 10)});
  EXPECT_EQ(step_signature(one, true), step_signature(two, true));
  EXPECT_EQ(step_signature(one, false), step_signature(two, false));
}

TEST(PatternKey, TheMaximumCountIsNotIgnored) {
  const Step small = step_of({transfer(0, 1, 9), transfer(1, 2, 4)});
  const Step large = step_of({transfer(0, 1, 10), transfer(1, 2, 4)});
  EXPECT_NE(step_signature(small, true), step_signature(large, true));
  EXPECT_NE(step_signature(small, false), step_signature(large, false));
}

TEST(PatternKey, DistinctSingleTransferPatternsGetDistinctKeys) {
  std::unordered_set<std::uint64_t> seen;
  std::size_t patterns = 0;
  for (NodeId src = 0; src < 48; ++src) {
    for (NodeId dst = 0; dst < 48; ++dst) {
      if (src == dst) continue;
      for (const std::optional<Direction> direction :
           {std::optional<Direction>{}, std::optional{Direction::kClockwise},
            std::optional{Direction::kCounterClockwise}}) {
        seen.insert(step_signature(step_of({transfer(src, dst, 8, direction)}),
                                   true));
        ++patterns;
      }
    }
  }
  EXPECT_EQ(seen.size(), patterns);
}

// The key and the circuit both copy the hint byte: 0 none, 1 clockwise,
// 2 counter-clockwise.
TEST(PatternKey, DirectionBitsAreTheHintByte) {
  const struct {
    topo::DirectionHint hint;
    std::uint8_t bits;
  } cases[] = {{std::nullopt, 0},
               {Direction::kClockwise, 1},
               {Direction::kCounterClockwise, 2}};
  for (const auto& c : cases) {
    const Transfer t{5, 9, 0, 8, TransferKind::kCopy, c.hint};
    EXPECT_EQ(t.direction.bits(), c.bits);
    EXPECT_EQ(t.direction.has_value(), c.bits != 0);
    EXPECT_EQ(coll::circuit_of(t).direction, c.bits);
    EXPECT_EQ(transfer_key(t, true) & 0xf, c.bits);
    EXPECT_EQ(transfer_key(t, false) & 0xf, 0u);
    EXPECT_EQ(transfer_key(t, true) >> 4, transfer_key(t, false) >> 4);
  }
  EXPECT_EQ(*topo::DirectionHint(Direction::kClockwise), Direction::kClockwise);
  EXPECT_EQ(*topo::DirectionHint(Direction::kCounterClockwise),
            Direction::kCounterClockwise);
}

// The property the engines' caches rely on: every step of a Ring
// All-reduce is one pattern, even when the chunks are uneven.
TEST(PatternKey, RingStepsShareOneSignature) {
  const coll::Schedule ring = coll::ring_allreduce(8, 67);
  const std::uint64_t first = step_signature(ring.steps().front(), true);
  for (const Step& step : ring.steps()) {
    EXPECT_EQ(step_signature(step, true), first) << step.label;
  }
}

// ------------------------------------------------------- scan_schedule

constexpr StepKeys kAllKeys[] = {StepKeys::kNone, StepKeys::kUndirected,
                                 StepKeys::kDirected};

/// "<dynamic exception type>: <what()>" of what `fn` throws, or "" when it
/// returns.
std::string thrown(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return "";
}

/// Scans `schedule` in every key mode and compares each scan with the
/// reads it replaces. Returns how many scans returned (did not throw).
std::size_t expect_scan_matches(const coll::Schedule& schedule,
                                const std::string& where) {
  const std::string validate_threw = thrown([&] { schedule.validate(); });
  std::size_t returned = 0;
  for (const StepKeys keys : kAllKeys) {
    const std::string at =
        where + " keys=" + std::to_string(static_cast<int>(keys));
    std::optional<ScheduleScan> scan;
    EXPECT_EQ(thrown([&] { scan.emplace(scan_schedule(schedule, keys)); }),
              validate_threw)
        << at;
    if (!scan) continue;
    ++returned;
    EXPECT_EQ(scan->steps, schedule.num_steps()) << at;
    EXPECT_EQ(scan->traffic_elements, schedule.total_traffic_elements())
        << at;
    if (keys == StepKeys::kNone) {
      EXPECT_TRUE(scan->signatures.empty()) << at;
      continue;
    }
    EXPECT_EQ(scan->signatures.size(), schedule.num_steps()) << at;
    if (scan->signatures.size() != schedule.num_steps()) continue;
    for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
      EXPECT_EQ(scan->signatures[s],
                step_signature(schedule.steps()[s],
                               keys == StepKeys::kDirected))
          << at << " step " << s;
    }
  }
  return returned;
}

TEST(ScheduleScan, EqualsTheReadsItReplacesOnEveryBuilder) {
  core::register_wrht_algorithm();
  const auto& registry = coll::Registry::instance();
  std::size_t registry_schedules = 0;
  std::size_t grid_schedules = 0;
  for (std::uint32_t n = 2; n <= 40; ++n) {
    for (const std::size_t elements :
         {std::size_t{n}, std::size_t{n} + 3, std::size_t{1'000'003}}) {
      const std::string where =
          " N=" + std::to_string(n) + " elements=" + std::to_string(elements);
      for (const std::string& name : registry.names()) {
        coll::AllreduceParams params;
        params.num_nodes = n;
        params.elements = elements;
        params.group_size = 4;
        params.wavelengths = 8;
        std::optional<coll::Schedule> schedule;
        try {
          schedule.emplace(registry.build(name, params));
        } catch (const InvalidArgument&) {
          continue;  // e.g. builders that need a power-of-two N
        }
        EXPECT_EQ(expect_scan_matches(*schedule, name + where), 3u);
        ++registry_schedules;
      }
      // The dimension-aware WRHT shapes the optical torus runs.
      const auto [rows, cols] = topo::near_square(n);
      for (const std::uint32_t w : {1u, 4u}) {
        std::optional<coll::Schedule> torus;
        std::optional<coll::Schedule> mesh;
        try {
          const core::WrhtOptions row{core::plan_wrht(cols, w).group_size, w};
          torus.emplace(core::torus_wrht_allreduce(topo::Torus(rows, cols),
                                                   elements, row));
          mesh.emplace(core::mesh_wrht_allreduce(topo::Mesh(rows, cols),
                                                 elements, row));
        } catch (const InvalidArgument&) {
          continue;  // a 1 x N shape has no row groups to plan
        }
        const std::string shape = " " + std::to_string(rows) + "x" +
                                  std::to_string(cols) +
                                  " w=" + std::to_string(w) + where;
        EXPECT_EQ(expect_scan_matches(*torus, "torus" + shape), 3u);
        EXPECT_EQ(expect_scan_matches(*mesh, "mesh" + shape), 3u);
        grid_schedules += 2;
      }
    }
  }
  // Seven algorithms at every N; some skip N that are not powers of two.
  EXPECT_GE(registry_schedules, 4u * 39u * 3u);
  EXPECT_GE(grid_schedules, 2u * 20u * 3u);
}

TEST(ScheduleScan, KeysEmptyStepsLikeStepSignature) {
  coll::Schedule schedule("with-empty-steps", 6, 60);
  schedule.add_step("empty first");
  coll::Step& middle = schedule.add_step();
  middle.transfers.push_back(transfer(0, 5, 10, Direction::kClockwise, 50));
  middle.transfers.push_back(transfer(5, 0, 60));
  schedule.add_step("empty last");
  EXPECT_EQ(expect_scan_matches(schedule, "hand-built"), 3u);
}

/// One way a transfer can fail Schedule::validate(), on a 6-node,
/// 60-element schedule.
struct Fault {
  const char* name;
  Transfer transfer;
  const char* message;  ///< the message, less its step number
};

const Fault kFaults[] = {
    {"src out of range", transfer(6, 1), "Schedule: node id out of range"},
    {"dst out of range", transfer(1, 6), "Schedule: node id out of range"},
    {"self-transfer", transfer(3, 3), "Schedule: self-transfer"},
    {"count 0", transfer(1, 2, 0), "Schedule: element range out of bounds"},
    {"offset past the end", transfer(1, 2, 1, {}, 61),
     "Schedule: element range out of bounds"},
    {"offset SIZE_MAX, count 2",
     transfer(1, 2, 2, {}, std::numeric_limits<std::size_t>::max()),
     "Schedule: element range out of bounds"},
};

/// Five steps of three valid transfers each (one step left empty when
/// `empty_step` names it), with `bad` placed second in step `bad_step`.
coll::Schedule with_fault(const Transfer& bad, std::size_t bad_step,
                          std::optional<std::size_t> empty_step = {}) {
  coll::Schedule schedule("faulty", 6, 60);
  for (std::size_t s = 0; s < 5; ++s) {
    coll::Step& step = schedule.add_step();
    if (empty_step == s) continue;
    step.transfers.push_back(transfer(0, 1, 20, Direction::kClockwise, 40));
    if (s == bad_step) step.transfers.push_back(bad);
    step.transfers.push_back(transfer(4, 2, 60));
    step.transfers.push_back(transfer(5, 0, 1, {}, 59));
  }
  return schedule;
}

TEST(ScheduleScan, ThrowsWhatValidateThrowsForEveryFault) {
  for (const Fault& fault : kFaults) {
    for (const std::size_t step : {std::size_t{0}, std::size_t{2},
                                   std::size_t{4}}) {
      const coll::Schedule schedule = with_fault(fault.transfer, step);
      const std::string where =
          std::string(fault.name) + " in step " + std::to_string(step);
      EXPECT_EQ(expect_scan_matches(schedule, where), 0u);
      EXPECT_EQ(thrown([&] { schedule.validate(); }),
                std::string(typeid(InvalidArgument).name()) + ": " +
                    fault.message + " in step " + std::to_string(step))
          << where;
    }
  }
}

TEST(ScheduleScan, TheFirstFaultingStepIsNamed) {
  // Two bad transfers in different steps: both reads stop at the first.
  coll::Schedule two = with_fault(transfer(3, 3), 1);
  two.add_step().transfers.push_back(transfer(9, 1));
  EXPECT_EQ(expect_scan_matches(two, "two faults"), 0u);
  EXPECT_NE(thrown([&] { two.validate(); }).find("self-transfer in step 1"),
            std::string::npos);

  // An empty step before the bad one keeps the step count right.
  const coll::Schedule after_empty = with_fault(transfer(1, 2, 0), 3, 2);
  EXPECT_EQ(expect_scan_matches(after_empty, "empty step first"), 0u);
  EXPECT_NE(thrown([&] { after_empty.validate(); })
                .find("element range out of bounds in step 3"),
            std::string::npos);
}

}  // namespace
}  // namespace wrht::net
