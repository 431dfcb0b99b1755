// Property-based sweeps over the geometric substrate: metric axioms on the
// torus, H-V path invariants across grid sizes, spatial-hash consistency
// against a brute-force oracle, and hex-grid round-trips across scales.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "geom/hex.h"
#include "geom/point.h"
#include "geom/spatial_hash.h"
#include "geom/tessellation.h"
#include "rng/rng.h"

namespace manetcap::geom {
namespace {

// ------------------------------------------------------- metric axioms --

TEST(TorusMetricProperty, AxiomsOnRandomTriples) {
  rng::Xoshiro256 g(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const Point a = rng::uniform_point(g);
    const Point b = rng::uniform_point(g);
    const Point c = rng::uniform_point(g);
    const double ab = torus_dist(a, b);
    const double ba = torus_dist(b, a);
    const double ac = torus_dist(a, c);
    const double cb = torus_dist(c, b);
    EXPECT_DOUBLE_EQ(ab, ba);                      // symmetry
    EXPECT_GE(ab, 0.0);                            // non-negativity
    EXPECT_LE(ab, ac + cb + 1e-12);                // triangle inequality
    EXPECT_LE(ab, std::sqrt(0.5) + 1e-12);         // diameter bound
  }
}

TEST(TorusMetricProperty, TranslationInvariance) {
  rng::Xoshiro256 g(2);
  for (int trial = 0; trial < 1000; ++trial) {
    const Point a = rng::uniform_point(g);
    const Point b = rng::uniform_point(g);
    const Vec2 shift{rng::uniform01(g), rng::uniform01(g)};
    EXPECT_NEAR(torus_dist(a, b),
                torus_dist(a.displaced(shift), b.displaced(shift)), 1e-12);
  }
}

TEST(TorusMetricProperty, DisplacementComposition) {
  rng::Xoshiro256 g(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const Point p = rng::uniform_point(g);
    const Vec2 d1{rng::uniform(g, -0.3, 0.3), rng::uniform(g, -0.3, 0.3)};
    const Vec2 d2{rng::uniform(g, -0.3, 0.3), rng::uniform(g, -0.3, 0.3)};
    const Point q1 = p.displaced(d1).displaced(d2);
    const Point q2 = p.displaced(d1 + d2);
    EXPECT_NEAR(torus_dist(q1, q2), 0.0, 1e-12);
  }
}

// --------------------------------------------------- H-V path invariants --

class HvPathProperty : public ::testing::TestWithParam<int> {};

TEST_P(HvPathProperty, PathsAreShortestAndWellFormed) {
  const int g_side = GetParam();
  SquareTessellation t(g_side);
  rng::Xoshiro256 g(4);
  for (int trial = 0; trial < 300; ++trial) {
    Cell src{static_cast<int>(rng::uniform_index(g, g_side)),
             static_cast<int>(rng::uniform_index(g, g_side))};
    Cell dst{static_cast<int>(rng::uniform_index(g, g_side)),
             static_cast<int>(rng::uniform_index(g, g_side))};
    auto path = t.hv_path(src, dst);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    EXPECT_EQ(path.size(),
              static_cast<std::size_t>(t.hop_distance(src, dst)) + 1);
    // Unimodal: horizontal moves strictly precede vertical moves.
    bool vertical_started = false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const bool is_vertical = path[i].col == path[i + 1].col;
      if (is_vertical) vertical_started = true;
      EXPECT_TRUE(!vertical_started || is_vertical)
          << "horizontal move after vertical at step " << i;
    }
    // No cell repeats (simple path).
    std::set<int> seen;
    for (const auto& c : path) EXPECT_TRUE(seen.insert(t.index_of(c)).second);
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, HvPathProperty,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64));

class TessellationRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TessellationRoundTrip, RandomPointsLandInTheirCell) {
  SquareTessellation t(GetParam());
  rng::Xoshiro256 g(5);
  for (int trial = 0; trial < 500; ++trial) {
    const Point p = rng::uniform_point(g);
    const Cell c = t.cell_of(p);
    // The point is inside [col/g, (col+1)/g) × [row/g, (row+1)/g).
    EXPECT_GE(p.x, static_cast<double>(c.col) / t.cells_per_side() - 1e-12);
    EXPECT_LT(p.x, static_cast<double>(c.col + 1) / t.cells_per_side());
    EXPECT_GE(p.y, static_cast<double>(c.row) / t.cells_per_side() - 1e-12);
    EXPECT_LT(p.y, static_cast<double>(c.row + 1) / t.cells_per_side());
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, TessellationRoundTrip,
                         ::testing::Values(1, 2, 7, 31, 100));

// ------------------------------------------------ spatial hash vs oracle --

struct HashCase {
  std::size_t n;
  double radius;
};
// gtest names each case after these bytes; with no padding every one is set.
static_assert(sizeof(HashCase) == sizeof(std::size_t) + sizeof(double));

class SpatialHashOracle : public ::testing::TestWithParam<HashCase> {};

TEST_P(SpatialHashOracle, MatchesBruteForce) {
  const auto [n, radius] = GetParam();
  rng::Xoshiro256 g(6);
  std::vector<Point> pts(n);
  for (auto& p : pts) p = rng::uniform_point(g);
  SpatialHash hash(radius, n);
  hash.build(pts);

  for (int probe = 0; probe < 30; ++probe) {
    const Point c = rng::uniform_point(g);
    auto got = hash.query_disk(c, radius);
    std::set<std::uint32_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got.size(), got_set.size()) << "duplicate ids reported";
    std::set<std::uint32_t> want;
    for (std::uint32_t i = 0; i < n; ++i)
      if (torus_dist(c, pts[i]) <= radius) want.insert(i);
    EXPECT_EQ(got_set, want) << "n=" << n << " r=" << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpatialHashOracle,
    ::testing::Values(HashCase{10, 0.05}, HashCase{100, 0.02},
                      HashCase{100, 0.3}, HashCase{1000, 0.01},
                      HashCase{1000, 0.45}, HashCase{5000, 0.004},
                      HashCase{64, 0.7}));

TEST(SpatialHashProperty, QueryRadiusLargerThanHint) {
  // Queries may use radii different from the construction hint.
  rng::Xoshiro256 g(7);
  std::vector<Point> pts(500);
  for (auto& p : pts) p = rng::uniform_point(g);
  SpatialHash hash(0.01, pts.size());
  hash.build(pts);
  for (double r : {0.05, 0.2, 0.5}) {
    std::size_t want = 0;
    const Point c{0.4, 0.6};
    for (const auto& p : pts)
      if (torus_dist(c, p) <= r) ++want;
    EXPECT_EQ(hash.count_in_disk(c, r), want) << "r=" << r;
  }
}

TEST(SpatialHashProperty, RebuildReplacesContents) {
  SpatialHash hash(0.1);
  hash.build({{0.1, 0.1}});
  EXPECT_EQ(hash.count_in_disk({0.1, 0.1}, 0.01), 1u);
  hash.build({{0.9, 0.9}, {0.8, 0.8}});
  EXPECT_EQ(hash.size(), 2u);
  EXPECT_EQ(hash.count_in_disk({0.1, 0.1}, 0.01), 0u);
}

// --------------------------------------------- incremental maintenance --

TEST(SpatialHashMove, AcrossBucketBoundary) {
  // radius_hint 0.1 → 10 buckets per side: (0.05, 0.05) and (0.55, 0.55)
  // are far apart in bucket space.
  SpatialHash hash(0.1);
  hash.build({{0.05, 0.05}, {0.95, 0.5}});
  ASSERT_EQ(hash.count_in_disk({0.05, 0.05}, 0.02), 1u);

  hash.move(0, {0.05, 0.05}, {0.55, 0.55});
  EXPECT_EQ(hash.count_in_disk({0.05, 0.05}, 0.02), 0u);
  EXPECT_EQ(hash.count_in_disk({0.55, 0.55}, 0.02), 1u);
  // A zero-radius query matches the stored position exactly.
  EXPECT_EQ(hash.query_disk({0.55, 0.55}, 0.0),
            std::vector<std::uint32_t>{0});
  // The unmoved point is unaffected.
  EXPECT_EQ(hash.count_in_disk({0.95, 0.5}, 0.02), 1u);
}

TEST(SpatialHashMove, TorusWrap) {
  SpatialHash hash(0.1);
  hash.build({{0.995, 0.5}});
  // Wrap across the x = 1 seam: old and new positions are 0.01 apart on
  // the torus but land in the first/last bucket columns.
  hash.move(0, {0.995, 0.5}, {0.005, 0.5});
  EXPECT_EQ(hash.count_in_disk({0.005, 0.5}, 0.001), 1u);
  EXPECT_EQ(hash.count_in_disk({0.995, 0.5}, 0.011), 1u);  // still close
  EXPECT_EQ(hash.count_in_disk({0.995, 0.5}, 0.001), 0u);
}

TEST(SpatialHashMove, NoOpMoveWithinBucketUpdatesPosition) {
  SpatialHash hash(0.1);
  hash.build({{0.51, 0.51}});
  // Same bucket — no relinking — but the stored position must refine.
  hash.move(0, {0.51, 0.51}, {0.52, 0.52});
  EXPECT_EQ(hash.count_in_disk({0.52, 0.52}, 1e-6), 1u);
  EXPECT_EQ(hash.count_in_disk({0.51, 0.51}, 1e-6), 0u);
  // Moving a point onto its existing position is also fine.
  hash.move(0, {0.52, 0.52}, {0.52, 0.52});
  EXPECT_EQ(hash.count_in_disk({0.52, 0.52}, 1e-6), 1u);
}

TEST(SpatialHashMove, NearestAndExcludeAfterMoves) {
  SpatialHash hash(0.05);
  hash.build({{0.1, 0.1}, {0.2, 0.2}, {0.8, 0.8}});
  hash.move(2, {0.8, 0.8}, {0.11, 0.1});  // now the closest to (0.1, 0.1)
  EXPECT_EQ(hash.nearest({0.1, 0.1}), 0u);
  EXPECT_EQ(hash.nearest({0.1, 0.1}, 0), 2u);
  // kNone as `exclude` excludes nothing; a single-point index excluding
  // that point yields kNone.
  EXPECT_EQ(hash.nearest({0.12, 0.1}, SpatialHash::kNone), 2u);
  SpatialHash lone(0.1);
  lone.build({{0.3, 0.3}});
  lone.move(0, {0.3, 0.3}, {0.6, 0.6});
  EXPECT_EQ(lone.nearest({0.3, 0.3}, 0), SpatialHash::kNone);
}

TEST(SpatialHashMove, RandomWalkMatchesFreshBuildOracle) {
  // After arbitrary interleavings of boundary-crossing and in-bucket
  // moves, every disk query must agree (as an id set) with a hash freshly
  // built from the current positions.
  rng::Xoshiro256 g(99);
  const std::size_t n = 300;
  const double radius = 0.06;
  std::vector<Point> pts(n);
  for (auto& p : pts) p = rng::uniform_point(g);
  SpatialHash inc(radius, n);
  inc.build(pts);

  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t id = 0; id < n; ++id) {
      if (rng::uniform01(g) < 0.5) continue;  // unmoved points must persist
      Point next = pts[id];
      // Mix of tiny (same-bucket) and large (multi-bucket, often wrapping)
      // displacements.
      const double step = rng::uniform01(g) < 0.5 ? 0.004 : 0.3;
      next.x = wrap01(next.x + (rng::uniform01(g) - 0.5) * step);
      next.y = wrap01(next.y + (rng::uniform01(g) - 0.5) * step);
      inc.move(id, pts[id], next);
      pts[id] = next;
    }
    SpatialHash fresh(radius, n);
    fresh.build(pts);
    for (int probe = 0; probe < 20; ++probe) {
      const Point c = rng::uniform_point(g);
      auto got = inc.query_disk(c, radius);
      auto want = fresh.query_disk(c, radius);
      std::set<std::uint32_t> got_set(got.begin(), got.end());
      std::set<std::uint32_t> want_set(want.begin(), want.end());
      EXPECT_EQ(got.size(), got_set.size()) << "duplicate ids after moves";
      EXPECT_EQ(got_set, want_set) << "round " << round;
    }
  }
}

// ------------------------------------------------------- hex round trips --

class HexRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(HexRoundTrip, RandomOffsetsMapToNearestCenter) {
  const double side = GetParam();
  HexGrid grid(side);
  rng::Xoshiro256 g(8);
  for (int trial = 0; trial < 400; ++trial) {
    const Vec2 v{rng::uniform(g, -6.0 * side, 6.0 * side),
                 rng::uniform(g, -6.0 * side, 6.0 * side)};
    const Hex h = grid.cell_of(v);
    // v must be within one circumradius (= side) of its cell center, and
    // no neighbor center may be strictly closer.
    const double d_own = (grid.center(h) - v).norm();
    EXPECT_LE(d_own, side + 1e-9);
    for (const Hex nb : grid.neighbors(h)) {
      EXPECT_GE((grid.center(nb) - v).norm(), d_own - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, HexRoundTrip,
                         ::testing::Values(0.001, 0.02, 0.5, 3.0));

TEST(HexProperty, DistanceIsAMetric) {
  HexGrid grid(1.0);
  rng::Xoshiro256 g(9);
  for (int trial = 0; trial < 500; ++trial) {
    auto rnd = [&g]() {
      return Hex{static_cast<int>(rng::uniform_index(g, 21)) - 10,
                 static_cast<int>(rng::uniform_index(g, 21)) - 10};
    };
    const Hex a = rnd(), b = rnd(), c = rnd();
    EXPECT_EQ(grid.distance(a, b), grid.distance(b, a));
    EXPECT_LE(grid.distance(a, b),
              grid.distance(a, c) + grid.distance(c, b));
    EXPECT_EQ(grid.distance(a, a), 0);
  }
}

}  // namespace
}  // namespace manetcap::geom
