// Points and vectors on the unit torus O = [0,1)², the paper's normalized
// network extension (Definition 1). All distances are wrap-around distances.
#pragma once

#include <cmath>

#include "util/check.h"

// Every pinned result (golden traces, perfbench digests, bit-identity
// across --threads and --shards) relies on IEEE semantics; -ffast-math
// reassociates and drops them.
#ifdef __FAST_MATH__
#error "manetcap must not be built with -ffast-math"
#endif

namespace manetcap::geom {

/// A free 2-D vector (displacement); not wrapped.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }

  constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  double norm() const { return std::sqrt(x * x + y * y); }
  constexpr double norm2() const { return x * x + y * y; }
};

/// Wraps a scalar coordinate into [0, 1).
inline double wrap01(double v) {
  double w = v - std::floor(v);
  // floor(-1e-18) == -0 can leave w == 1.0 after rounding; normalize.
  return w >= 1.0 ? w - 1.0 : w;
}

/// A point on the unit torus; coordinates always in [0, 1).
struct Point {
  double x = 0.0;
  double y = 0.0;

  /// Constructs from arbitrary coordinates, wrapping into the torus.
  static Point wrapped(double x, double y) { return {wrap01(x), wrap01(y)}; }

  /// Translates by a displacement, wrapping around the torus edges.
  Point displaced(Vec2 d) const { return wrapped(x + d.x, y + d.y); }
};

/// Shortest signed displacement per axis on the torus, each in [-1/2, 1/2).
inline Vec2 torus_delta(Point from, Point to) {
  auto axis = [](double a, double b) {
    double d = b - a;
    if (d >= 0.5) d -= 1.0;
    if (d < -0.5) d += 1.0;
    return d;
  };
  return {axis(from.x, to.x), axis(from.y, to.y)};
}

/// Wrap-around Euclidean distance ‖a−b‖ on the torus (max value √2/2).
inline double torus_dist(Point a, Point b) { return torus_delta(a, b).norm(); }

/// Squared wrap-around distance (avoids the sqrt in hot loops).
inline double torus_dist2(Point a, Point b) {
  return torus_delta(a, b).norm2();
}

}  // namespace manetcap::geom
