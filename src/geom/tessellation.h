// Regular square tessellation of the unit torus.
//
// Used by the paper in two sizes: squarelets of area Θ(1/f²(n)) for optimal
// routing scheme A (Definition 11) and constant-area squarelets for scheme B
// (Definition 12), plus the (16+β)γ(n)-area tessellations in the proofs of
// Lemma 1 / Lemma 9.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/point.h"

namespace manetcap::geom {

/// Grid cell identified by (row, col); rows index y, columns index x.
struct Cell {
  std::int32_t row = 0;
  std::int32_t col = 0;

  friend bool operator==(Cell a, Cell b) {
    return a.row == b.row && a.col == b.col;
  }
  friend bool operator!=(Cell a, Cell b) { return !(a == b); }
};

/// A g×g square tessellation of the unit torus; all neighbor and path
/// operations wrap around the edges.
class SquareTessellation {
 public:
  /// Creates a grid with `cells_per_side` cells per axis (≥ 1).
  explicit SquareTessellation(int cells_per_side);

  /// Largest grid whose cell area is still ≥ `min_cell_area`
  /// (the proofs choose |A| = (16+β)γ(n); callers pass that value).
  static SquareTessellation with_min_cell_area(double min_cell_area);

  /// Grid whose cell side is closest to `side` from below (cell side ≥ side
  /// would shrink the grid; scheme A wants cell side = Θ(1/f)).
  static SquareTessellation with_cell_side(double side);

  int cells_per_side() const { return g_; }
  int num_cells() const { return g_ * g_; }
  double cell_side() const { return 1.0 / g_; }
  double cell_area() const { return 1.0 / (static_cast<double>(g_) * g_); }

  /// Cell containing torus point `p`.
  Cell cell_of(Point p) const;

  /// Linearized index in [0, g²).
  int index_of(Cell c) const;
  Cell cell_at(int index) const;

  /// Center point of a cell.
  Point center(Cell c) const;

  /// Wraps arbitrary (row, col) onto the torus grid.
  Cell wrap(std::int64_t row, std::int64_t col) const;

  /// The four edge-adjacent cells (up, down, left, right), wrapped.
  std::vector<Cell> neighbors4(Cell c) const;

  /// Torus Manhattan hop distance between cells (shortest wrap per axis).
  int hop_distance(Cell a, Cell b) const;

  /// Horizontal-then-vertical cell path from `src` to `dst` inclusive,
  /// taking the shorter wrap direction on each axis — the forwarding path
  /// of optimal routing scheme A.
  std::vector<Cell> hv_path(Cell src, Cell dst) const;

  /// Calls fn(cell) for every cell of hv_path(src, dst) after `src`, in
  /// path order, without building the vector. The cells are distinct, so
  /// the call for `dst` is the last one.
  template <class Fn>
  void visit_hv_path(Cell src, Cell dst, Fn&& fn) const {
    // Horizontal leg: move column toward dst.col along the shorter
    // direction, then the vertical leg.
    const int dc = ring_delta(src.col, dst.col);
    int step = dc >= 0 ? 1 : -1;
    Cell cur = src;
    for (int i = 0; i != dc; i += step) {
      cur = wrap(cur.row, cur.col + step);
      fn(cur);
    }
    const int dr = ring_delta(cur.row, dst.row);
    step = dr >= 0 ? 1 : -1;
    for (int i = 0; i != dr; i += step) {
      cur = wrap(cur.row + step, cur.col);
      fn(cur);
    }
  }

 private:
  /// Signed shortest step count from a to b on the ring of g cells, in
  /// [-g/2, g/2]; ties broken toward the positive direction.
  int ring_delta(int a, int b) const {
    int d = (b - a) % g_;
    if (d < 0) d += g_;        // d in [0, g)
    if (d > g_ / 2) d -= g_;   // shortest direction
    return d;
  }

  int g_;
};

}  // namespace manetcap::geom
