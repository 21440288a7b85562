// Ring topology used by the optical interconnect (TeraRack-style).
//
// N nodes sit on a bidirectional ring. Segment i of the clockwise fiber is
// the span node i -> node (i+1) mod N; segment i of the counterclockwise
// fiber is the span node (i+1) mod N -> node i. A lightpath occupies the
// contiguous run of segments between its endpoints in its direction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "wrht/common/error.hpp"

namespace wrht::topo {

using NodeId = std::uint32_t;

enum class Direction : std::uint8_t { kClockwise, kCounterClockwise };

[[nodiscard]] constexpr Direction opposite(Direction d) {
  return d == Direction::kClockwise ? Direction::kCounterClockwise
                                    : Direction::kClockwise;
}

/// An optional ring direction in one byte: 0 = none, 1 = clockwise,
/// 2 = counter-clockwise, the packing circuits and pattern keys use. It
/// reads like std::optional<Direction> (built from a Direction or
/// std::nullopt; has_value(), operator*, ==) but is a plain byte, which
/// GCC keeps in registers when it builds a coll::Transfer; see DESIGN.md
/// "Scale path".
class DirectionHint {
 public:
  // Implicit, like std::optional's, so Transfer{..., kind, dir} spellings
  // with a Direction, std::nullopt or an optional<Direction> all compile.
  constexpr DirectionHint() = default;
  constexpr DirectionHint(std::nullopt_t) {}
  constexpr DirectionHint(Direction d)
      : bits_(static_cast<std::uint8_t>(static_cast<std::uint8_t>(d) + 1)) {}
  constexpr DirectionHint(std::optional<Direction> d)
      : bits_(d ? DirectionHint(*d).bits_ : std::uint8_t{0}) {}

  [[nodiscard]] constexpr bool has_value() const { return bits_ != 0; }
  constexpr explicit operator bool() const { return has_value(); }
  /// The direction; only meaningful when has_value().
  [[nodiscard]] constexpr Direction operator*() const {
    return bits_ == 1 ? Direction::kClockwise : Direction::kCounterClockwise;
  }
  /// The packed byte: 0 none, 1 clockwise, 2 counter-clockwise.
  [[nodiscard]] constexpr std::uint8_t bits() const { return bits_; }

  friend constexpr bool operator==(DirectionHint, DirectionHint) = default;

 private:
  std::uint8_t bits_ = 0;
};

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
