// 2-D torus topology for the Section 6.1 extension of WRHT: the reduce
// stage runs per row, representatives synchronize along a column ring, and
// the broadcast stage replays in reverse. Each row and each column is a
// full optical ring, which lets the torus extension reuse the ring
// machinery unchanged.
#pragma once

#include <cstdint>
#include <utility>

#include "wrht/common/error.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::topo {

class Torus {
 public:
  Torus(std::uint32_t rows, std::uint32_t cols);

  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::uint32_t cols() const { return cols_; }
  [[nodiscard]] std::uint32_t size() const { return rows_ * cols_; }

  [[nodiscard]] NodeId node_at(std::uint32_t row, std::uint32_t col) const;
  [[nodiscard]] std::uint32_t row_of(NodeId node) const;
  [[nodiscard]] std::uint32_t col_of(NodeId node) const;

  /// The ring formed by row r (length = cols). Positions along the ring map
  /// to global node ids via node_at(r, position).
  [[nodiscard]] Ring row_ring() const { return Ring(cols_); }
  /// The ring formed by any column (length = rows).
  [[nodiscard]] Ring col_ring() const { return Ring(rows_); }

  void check_node(NodeId node) const {
    require(node < size(), "Torus: node id out of range");
  }

 private:
  std::uint32_t rows_;
  std::uint32_t cols_;
};

/// Most even rows x cols factorization of `n` (rows <= cols): the shape
/// the optical-torus backend takes when none is configured.
[[nodiscard]] std::pair<std::uint32_t, std::uint32_t> near_square(
    std::uint32_t n);

}  // namespace wrht::topo
