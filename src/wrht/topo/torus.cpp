#include "wrht/topo/torus.hpp"

namespace wrht::topo {

Torus::Torus(std::uint32_t rows, std::uint32_t cols)
    : rows_(rows), cols_(cols) {
  require(rows >= 2 && cols >= 2, "Torus: need at least 2x2");
}

NodeId Torus::node_at(std::uint32_t row, std::uint32_t col) const {
  require(row < rows_ && col < cols_, "Torus: coordinate out of range");
  return row * cols_ + col;
}

std::uint32_t Torus::row_of(NodeId node) const {
  check_node(node);
  return node / cols_;
}

std::uint32_t Torus::col_of(NodeId node) const {
  check_node(node);
  return node % cols_;
}

std::pair<std::uint32_t, std::uint32_t> near_square(std::uint32_t n) {
  std::uint32_t rows = 1;
  for (std::uint32_t r = 1; static_cast<std::uint64_t>(r) * r <= n; ++r) {
    if (n % r == 0) rows = r;
  }
  return {rows, n / rows};
}

}  // namespace wrht::topo
