#include "geom/hex.h"

#include <cmath>

#include "util/check.h"

namespace manetcap::geom {

namespace {
constexpr double kSqrt3 = 1.7320508075688772;
}

HexGrid::HexGrid(double side) : side_(side) {
  MANETCAP_CHECK_MSG(side > 0.0, "hex side must be positive");
}

double HexGrid::cell_area() const { return 1.5 * kSqrt3 * side_ * side_; }

Vec2 HexGrid::center(Hex h) const {
  // Pointy-top axial to planar: x = s·√3·(q + r/2), y = s·(3/2)·r.
  return {side_ * kSqrt3 * (h.q + h.r / 2.0), side_ * 1.5 * h.r};
}

Hex HexGrid::cell_of(Vec2 p) const {
  // Inverse of center(), then cube-round to the nearest hex.
  double qf = (kSqrt3 / 3.0 * p.x - 1.0 / 3.0 * p.y) / side_;
  double rf = (2.0 / 3.0 * p.y) / side_;
  double sf = -qf - rf;

  double q = std::round(qf), r = std::round(rf), s = std::round(sf);
  double dq = std::abs(q - qf), dr = std::abs(r - rf), ds = std::abs(s - sf);
  if (dq > dr && dq > ds)
    q = -r - s;
  else if (dr > ds)
    r = -q - s;
  return {static_cast<std::int32_t>(q), static_cast<std::int32_t>(r)};
}

std::vector<Hex> HexGrid::neighbors(Hex h) const {
  return {{h.q + 1, h.r},     {h.q - 1, h.r},     {h.q, h.r + 1},
          {h.q, h.r - 1},     {h.q + 1, h.r - 1}, {h.q - 1, h.r + 1}};
}

int HexGrid::distance(Hex a, Hex b) const {
  int dq = a.q - b.q;
  int dr = a.r - b.r;
  int ds = -dq - dr;
  return (std::abs(dq) + std::abs(dr) + std::abs(ds)) / 2;
}

std::vector<Hex> HexGrid::cells_within(double radius) const {
  MANETCAP_CHECK(radius >= 0.0);
  // Any cell center within `radius` has axial coordinates bounded by
  // radius / (minimal center spacing) + 1.
  int bound = static_cast<int>(std::ceil(radius / (kSqrt3 * side_))) + 2;
  std::vector<Hex> cells;
  for (int q = -bound; q <= bound; ++q) {
    for (int r = -bound; r <= bound; ++r) {
      Hex h{q, r};
      if (center(h).norm() <= radius) cells.push_back(h);
    }
  }
  return cells;
}

}  // namespace manetcap::geom
