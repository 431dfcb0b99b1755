#include "geom/tessellation.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace manetcap::geom {

SquareTessellation::SquareTessellation(int cells_per_side)
    : g_(cells_per_side) {
  MANETCAP_CHECK_MSG(cells_per_side >= 1,
                     "tessellation needs >= 1 cell per side, got "
                         << cells_per_side);
}

SquareTessellation SquareTessellation::with_min_cell_area(
    double min_cell_area) {
  MANETCAP_CHECK_MSG(min_cell_area > 0.0, "cell area must be positive");
  // Largest g with (1/g)² >= min_cell_area, i.e. g <= 1/sqrt(area).
  int g = static_cast<int>(std::floor(1.0 / std::sqrt(min_cell_area)));
  return SquareTessellation(std::max(1, g));
}

SquareTessellation SquareTessellation::with_cell_side(double side) {
  MANETCAP_CHECK_MSG(side > 0.0, "cell side must be positive");
  int g = static_cast<int>(std::floor(1.0 / side));
  return SquareTessellation(std::max(1, g));
}

Cell SquareTessellation::cell_of(Point p) const {
  MANETCAP_DCHECK(p.x >= 0.0 && p.x < 1.0 && p.y >= 0.0 && p.y < 1.0);
  auto clamp = [this](double v) {
    int i = static_cast<int>(v * g_);
    return std::min(i, g_ - 1);  // guards v*g_ rounding up to g_
  };
  return {clamp(p.y), clamp(p.x)};
}

int SquareTessellation::index_of(Cell c) const {
  MANETCAP_DCHECK(c.row >= 0 && c.row < g_ && c.col >= 0 && c.col < g_);
  return c.row * g_ + c.col;
}

Cell SquareTessellation::cell_at(int index) const {
  MANETCAP_DCHECK(index >= 0 && index < num_cells());
  return {index / g_, index % g_};
}

Point SquareTessellation::center(Cell c) const {
  return {(c.col + 0.5) / g_, (c.row + 0.5) / g_};
}

Cell SquareTessellation::wrap(std::int64_t row, std::int64_t col) const {
  auto m = [this](std::int64_t v) {
    std::int64_t w = v % g_;
    if (w < 0) w += g_;
    return static_cast<std::int32_t>(w);
  };
  return {m(row), m(col)};
}

std::vector<Cell> SquareTessellation::neighbors4(Cell c) const {
  return {wrap(c.row - 1, c.col), wrap(c.row + 1, c.col),
          wrap(c.row, c.col - 1), wrap(c.row, c.col + 1)};
}

int SquareTessellation::hop_distance(Cell a, Cell b) const {
  return std::abs(ring_delta(a.row, b.row)) +
         std::abs(ring_delta(a.col, b.col));
}

std::vector<Cell> SquareTessellation::hv_path(Cell src, Cell dst) const {
  std::vector<Cell> path;
  path.reserve(static_cast<std::size_t>(hop_distance(src, dst)) + 1);
  path.push_back(src);
  visit_hv_path(src, dst, [&path](Cell c) { path.push_back(c); });
  MANETCAP_DCHECK(path.back() == dst);
  return path;
}

}  // namespace manetcap::geom
