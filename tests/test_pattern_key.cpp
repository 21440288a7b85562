// net::step_signature keys the optical and electrical pattern caches: two
// steps with equal signatures share one RWA / fair-sharing evaluation. These
// tests pin what the key must and must not see.
#include "wrht/net/pattern_key.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <random>
#include <unordered_set>

#include "wrht/collectives/ring_allreduce.hpp"

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

// The property the engines' caches rely on: every step of a Ring
// All-reduce is one pattern, even when the chunks are uneven.
TEST(PatternKey, RingStepsShareOneSignature) {
  const coll::Schedule ring = coll::ring_allreduce(8, 67);
  const std::uint64_t first = step_signature(ring.steps().front(), true);
  for (const Step& step : ring.steps()) {
    EXPECT_EQ(step_signature(step, true), first) << step.label;
  }
}

}  // namespace
}  // namespace wrht::net
