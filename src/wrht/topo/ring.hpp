// Ring topology used by the optical interconnect (TeraRack-style).
//
// N nodes sit on a bidirectional ring. Segment i of the clockwise fiber is
// the span node i -> node (i+1) mod N; segment i of the counterclockwise
// fiber is the span node (i+1) mod N -> node i. A lightpath occupies the
// contiguous run of segments between its endpoints in its direction.
#pragma once

#include <cstdint>
#include <vector>

#include "wrht/common/error.hpp"

namespace wrht::topo {

using NodeId = std::uint32_t;

/// One byte, so an optional<Direction> packs into coll::Transfer's tail.
enum class Direction : std::uint8_t { kClockwise, kCounterClockwise };

[[nodiscard]] constexpr Direction opposite(Direction d) {
  return d == Direction::kClockwise ? Direction::kCounterClockwise
                                    : Direction::kClockwise;
}

class Ring {
 public:
  explicit Ring(std::uint32_t num_nodes);

  [[nodiscard]] std::uint32_t size() const { return n_; }

  /// Hops travelled going clockwise from `from` to `to`.
  [[nodiscard]] std::uint32_t cw_distance(NodeId from, NodeId to) const;
  /// Hops travelled going counterclockwise from `from` to `to`.
  [[nodiscard]] std::uint32_t ccw_distance(NodeId from, NodeId to) const;
  /// min(cw, ccw).
  [[nodiscard]] std::uint32_t distance(NodeId from, NodeId to) const;

  /// Direction of the shorter path; clockwise wins ties.
  [[nodiscard]] Direction shortest_direction(NodeId from, NodeId to) const;

  /// Hops along `dir` from `from` to `to`.
  [[nodiscard]] std::uint32_t distance_along(NodeId from, NodeId to,
                                             Direction dir) const;

  /// Node reached from `from` after `hops` steps in `dir`.
  [[nodiscard]] NodeId advance(NodeId from, std::uint32_t hops,
                               Direction dir) const;

  /// Segment indices (see file comment) crossed travelling from `from` to
  /// `to` in `dir`. Empty when from == to.
  [[nodiscard]] std::vector<std::uint32_t> segments(NodeId from, NodeId to,
                                                    Direction dir) const;

  void check_node(NodeId node) const {
    require(node < n_, "Ring: node id out of range");
  }

 private:
  std::uint32_t n_;
};

}  // namespace wrht::topo
