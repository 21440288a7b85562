// Lightpaths on the WDM double ring.
//
// A lightpath is the circuit carrying one Transfer: a direction (each
// direction is one fiber), a wavelength, and the contiguous run of fiber
// segments between source and destination. Two lightpaths conflict when
// they share (direction, wavelength) and at least one segment.
#pragma once

#include <cstdint>
#include <vector>

#include "wrht/topo/ring.hpp"

namespace wrht::optics {

struct Lightpath {
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
  topo::Direction direction = topo::Direction::kClockwise;
  std::uint32_t wavelength = 0;
  /// First segment index occupied (see topo::Ring for segment numbering).
  std::uint32_t first_segment = 0;
  /// Number of consecutive segments occupied (the hop count).
  std::uint32_t hops = 0;
};

/// Computes the segment interval of a prospective lightpath from `src` to
/// `dst` travelling `dir` on a ring of `ring.size()` nodes.
struct SegmentSpan {
  std::uint32_t first = 0;  ///< first occupied segment
  std::uint32_t hops = 0;   ///< consecutive segments, wrapping mod N
};
[[nodiscard]] SegmentSpan segment_span(const topo::Ring& ring,
                                       topo::NodeId src, topo::NodeId dst,
                                       topo::Direction dir);

/// True when the two spans share at least one segment on a ring of n nodes.
[[nodiscard]] bool spans_overlap(const SegmentSpan& a, const SegmentSpan& b,
                                 std::uint32_t n);

/// True when lightpaths a and b conflict: same (direction, wavelength) and
/// overlapping segments.
[[nodiscard]] bool lightpaths_conflict(const Lightpath& a, const Lightpath& b,
                                       std::uint32_t ring_size);

/// Number of conflicting pairs in an assignment (0 = valid). Used to
/// double-check RWA output and by the fault-injection tests.
[[nodiscard]] std::size_t count_conflicts(const std::vector<Lightpath>& paths,
                                          std::uint32_t ring_size);

}  // namespace wrht::optics
