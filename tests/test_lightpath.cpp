#include "wrht/optical/lightpath.hpp"

#include <gtest/gtest.h>

#include "wrht/common/error.hpp"

namespace wrht::optics {
namespace {

using topo::Direction;
using topo::Ring;

TEST(SegmentSpan, ClockwiseGeometry) {
  const Ring ring(10);
  const SegmentSpan s = segment_span(ring, 2, 5, Direction::kClockwise);
  EXPECT_EQ(s.first, 2u);
  EXPECT_EQ(s.hops, 3u);
}

TEST(SegmentSpan, CounterClockwiseGeometry) {
  const Ring ring(10);
  // 5 -> 2 counterclockwise crosses segments 4, 3, 2: ascending span [2, 3).
  const SegmentSpan s = segment_span(ring, 5, 2, Direction::kCounterClockwise);
  EXPECT_EQ(s.first, 2u);
  EXPECT_EQ(s.hops, 3u);
}

TEST(SegmentSpan, WrappingSpan) {
  const Ring ring(10);
  const SegmentSpan s = segment_span(ring, 8, 1, Direction::kClockwise);
  EXPECT_EQ(s.first, 8u);
  EXPECT_EQ(s.hops, 3u);  // segments 8, 9, 0
}

TEST(SegmentSpan, MatchesRingSegmentsList) {
  const Ring ring(12);
  for (topo::NodeId a = 0; a < 12; ++a) {
    for (topo::NodeId b = 0; b < 12; ++b) {
      if (a == b) continue;
      for (const auto dir :
           {Direction::kClockwise, Direction::kCounterClockwise}) {
        const SegmentSpan span = segment_span(ring, a, b, dir);
        const auto segs = ring.segments(a, b, dir);
        ASSERT_EQ(span.hops, segs.size());
        for (const std::uint32_t seg : segs) {
          const std::uint32_t off = (seg + 12 - span.first) % 12;
          EXPECT_LT(off, span.hops);
        }
      }
    }
  }
}

TEST(SegmentSpan, SelfRejected) {
  const Ring ring(4);
  EXPECT_THROW((void)segment_span(ring, 1, 1, Direction::kClockwise),
               InvalidArgument);
}

TEST(SpansOverlap, DisjointSpans) {
  EXPECT_FALSE(spans_overlap({0, 2}, {2, 2}, 10));
  EXPECT_FALSE(spans_overlap({5, 1}, {7, 2}, 10));
}

TEST(SpansOverlap, TouchingSpans) {
  EXPECT_TRUE(spans_overlap({0, 3}, {2, 2}, 10));
  EXPECT_TRUE(spans_overlap({2, 2}, {0, 3}, 10));  // symmetric
}

TEST(SpansOverlap, ContainedSpan) {
  EXPECT_TRUE(spans_overlap({0, 8}, {3, 2}, 10));
  EXPECT_TRUE(spans_overlap({3, 2}, {0, 8}, 10));
}

TEST(SpansOverlap, WrapAroundSpans) {
  // [8, 8+4) wraps to segments 8,9,0,1.
  EXPECT_TRUE(spans_overlap({8, 4}, {0, 1}, 10));
  EXPECT_TRUE(spans_overlap({8, 4}, {9, 1}, 10));
  EXPECT_FALSE(spans_overlap({8, 4}, {2, 3}, 10));
  EXPECT_TRUE(spans_overlap({8, 4}, {5, 4}, 10));  // 5,6,7,8 meets 8
}

TEST(SpansOverlap, ZeroLengthNeverOverlaps) {
  EXPECT_FALSE(spans_overlap({0, 0}, {0, 5}, 10));
  EXPECT_FALSE(spans_overlap({3, 5}, {4, 0}, 10));
}

TEST(SpansOverlap, FullRingOverlapsEverything) {
  for (std::uint32_t f = 0; f < 10; ++f) {
    EXPECT_TRUE(spans_overlap({0, 10}, {f, 1}, 10));
  }
}

TEST(SpansOverlap, TooLongRejected) {
  EXPECT_THROW((void)spans_overlap({0, 11}, {0, 1}, 10), InvalidArgument);
}

}  // namespace
}  // namespace wrht::optics
