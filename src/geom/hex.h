// Planar hexagonal tessellation used by optimal routing & scheduling
// scheme C (Definition 13): BSs sit at hexagon centers inside each cluster
// and cells are activated in non-interfering TDMA groups.
//
// Clusters are disjoint and small relative to the torus (M − 2R < 0), so the
// hex grid is planar and anchored at the cluster center; no torus wrap.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/point.h"

namespace manetcap::geom {

/// Axial hex coordinate (pointy-top convention).
struct Hex {
  std::int32_t q = 0;
  std::int32_t r = 0;

  friend bool operator==(Hex a, Hex b) { return a.q == b.q && a.r == b.r; }
  friend bool operator!=(Hex a, Hex b) { return !(a == b); }
};

/// A pointy-top hex grid with side length `side`, anchored at a planar
/// origin. Positions are planar displacements (Vec2) from the origin.
class HexGrid {
 public:
  explicit HexGrid(double side);

  double side() const { return side_; }

  /// Area of one hexagonal cell: (3√3/2)·side².
  double cell_area() const;

  /// Hex cell containing the planar offset `p` (cube-rounding).
  Hex cell_of(Vec2 p) const;

  /// Planar center of cell `h`.
  Vec2 center(Hex h) const;

  /// The six adjacent cells.
  std::vector<Hex> neighbors(Hex h) const;

  /// Hex-grid distance (minimum number of cell steps).
  int distance(Hex a, Hex b) const;

  /// All cells whose center lies within `radius` of the origin — the cells
  /// tiling one cluster disk.
  std::vector<Hex> cells_within(double radius) const;

 private:
  double side_;
};

}  // namespace manetcap::geom
