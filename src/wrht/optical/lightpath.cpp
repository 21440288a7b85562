#include "wrht/optical/lightpath.hpp"

#include "wrht/common/error.hpp"

namespace wrht::optics {

SegmentSpan segment_span(const topo::Ring& ring, topo::NodeId src,
                         topo::NodeId dst, topo::Direction dir) {
  require(src != dst, "segment_span: zero-length lightpath");
  const std::uint32_t hops = ring.distance_along(src, dst, dir);
  // Clockwise: segments src, src+1, ..., dst-1.
  // Counterclockwise: segments src-1, src-2, ..., dst; as an ascending
  // wrapped interval that is [dst, dst+hops).
  const std::uint32_t first =
      dir == topo::Direction::kClockwise ? src : dst;
  return SegmentSpan{first, hops};
}

bool spans_overlap(const SegmentSpan& a, const SegmentSpan& b,
                   std::uint32_t n) {
  require(a.hops <= n && b.hops <= n, "spans_overlap: span longer than ring");
  if (a.hops == 0 || b.hops == 0) return false;
  // Segment s is inside span x iff (s - x.first) mod n < x.hops.
  // Check whether b.first lies in a, or a.first lies in b.
  const std::uint32_t b_off = (b.first + n - a.first) % n;
  if (b_off < a.hops) return true;
  const std::uint32_t a_off = (a.first + n - b.first) % n;
  return a_off < b.hops;
}

bool lightpaths_conflict(const Lightpath& a, const Lightpath& b,
                         std::uint32_t ring_size) {
  if (a.direction != b.direction || a.wavelength != b.wavelength) {
    return false;
  }
  return spans_overlap(SegmentSpan{a.first_segment, a.hops},
                       SegmentSpan{b.first_segment, b.hops}, ring_size);
}

std::size_t count_conflicts(const std::vector<Lightpath>& paths,
                            std::uint32_t ring_size) {
  std::size_t conflicts = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      if (lightpaths_conflict(paths[i], paths[j], ring_size)) ++conflicts;
    }
  }
  return conflicts;
}

}  // namespace wrht::optics
