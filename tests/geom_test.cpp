#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "geom/hex.h"
#include "geom/point.h"
#include "geom/spatial_hash.h"
#include "geom/tessellation.h"
#include "util/check.h"

namespace manetcap::geom {
namespace {

// ---------------------------------------------------------------- point --

TEST(Point, Wrap01KeepsRange) {
  EXPECT_DOUBLE_EQ(wrap01(0.25), 0.25);
  EXPECT_DOUBLE_EQ(wrap01(1.25), 0.25);
  EXPECT_DOUBLE_EQ(wrap01(-0.25), 0.75);
  EXPECT_GE(wrap01(-1e-18), 0.0);
  EXPECT_LT(wrap01(-1e-18), 1.0);
  EXPECT_LT(wrap01(0.999999999999999999), 1.0);
}

// Pins the v − floor(v) rounding hazard: for tiny negative v the
// subtraction rounds to exactly 1.0, which would escape [0, 1) and break
// every bucket computation downstream. The fix (w >= 1.0 → w − 1.0) must
// hold on every boundary spelling of "almost 0" and "almost 1".
TEST(Point, Wrap01BoundaryHazards) {
  // Tiny magnitudes either side of zero.
  EXPECT_LT(wrap01(1e-18), 1.0);
  EXPECT_GE(wrap01(1e-18), 0.0);
  EXPECT_LT(wrap01(-1e-18), 1.0);  // the historical 1.0 escape
  EXPECT_GE(wrap01(-1e-18), 0.0);
  // Exact integers land on exactly 0.
  EXPECT_DOUBLE_EQ(wrap01(1.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap01(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap01(0.0), 0.0);
  // Largest double below 1.0 is already in range and must be unchanged.
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_DOUBLE_EQ(wrap01(below_one), below_one);
  EXPECT_LT(wrap01(below_one), 1.0);
  // Its negative wraps to something in range too.
  EXPECT_LT(wrap01(-below_one), 1.0);
  EXPECT_GE(wrap01(-below_one), 0.0);
}

// Downstream guarantee the wrap provides: a point built from any of the
// hazard values indexes into a SpatialHash without tripping the bucket
// bounds, and a disk query still finds it.
TEST(Point, WrappedBoundaryPointsAreHashable) {
  const double hazards[] = {-1e-18, 1e-18, 1.0,
                            -1.0,   std::nextafter(1.0, 0.0)};
  for (double h : hazards) {
    const Point p = Point::wrapped(h, h);
    ASSERT_GE(p.x, 0.0);
    ASSERT_LT(p.x, 1.0);
    SpatialHash hash(0.1, 1);
    std::vector<Point> pts = {p};
    hash.build(pts);
    std::size_t found = 0;
    hash.visit_disk(p, 0.01, [&](std::uint32_t) { ++found; });
    EXPECT_EQ(found, 1u) << "hazard " << h;
  }
}

TEST(Point, TorusDistanceUsesShortestWrap) {
  Point a{0.05, 0.5};
  Point b{0.95, 0.5};
  EXPECT_NEAR(torus_dist(a, b), 0.10, 1e-12);  // across the seam
  EXPECT_NEAR(torus_dist(a, a), 0.0, 1e-12);
}

TEST(Point, TorusDistanceIsSymmetric) {
  Point a{0.1, 0.9};
  Point b{0.8, 0.05};
  EXPECT_DOUBLE_EQ(torus_dist(a, b), torus_dist(b, a));
}

TEST(Point, MaxTorusDistanceIsHalfDiagonal) {
  Point a{0.0, 0.0};
  Point b{0.5, 0.5};
  EXPECT_NEAR(torus_dist(a, b), std::sqrt(0.5), 1e-12);
}

TEST(Point, DisplacedWraps) {
  Point p{0.9, 0.9};
  Point q = p.displaced({0.2, 0.2});
  EXPECT_NEAR(q.x, 0.1, 1e-12);
  EXPECT_NEAR(q.y, 0.1, 1e-12);
}

TEST(Point, DeltaInverseOfDisplacement) {
  Point p{0.3, 0.7};
  Vec2 d{0.15, -0.2};
  Point q = p.displaced(d);
  Vec2 back = torus_delta(p, q);
  EXPECT_NEAR(back.x, d.x, 1e-12);
  EXPECT_NEAR(back.y, d.y, 1e-12);
}

// ---------------------------------------------------- square tessellation --

TEST(SquareTessellation, CellOfRoundTrips) {
  SquareTessellation t(8);
  for (int idx = 0; idx < t.num_cells(); ++idx) {
    Cell c = t.cell_at(idx);
    EXPECT_EQ(t.index_of(c), idx);
    EXPECT_EQ(t.cell_of(t.center(c)), c);
  }
}

TEST(SquareTessellation, WithMinCellAreaRespectsBound) {
  const double area = 0.013;
  SquareTessellation t = SquareTessellation::with_min_cell_area(area);
  EXPECT_GE(t.cell_area(), area);
  // One more cell per side would violate the bound.
  SquareTessellation t2(t.cells_per_side() + 1);
  EXPECT_LT(t2.cell_area(), area);
}

TEST(SquareTessellation, WrapHandlesNegatives) {
  SquareTessellation t(4);
  EXPECT_EQ(t.wrap(-1, -1), (Cell{3, 3}));
  EXPECT_EQ(t.wrap(4, 5), (Cell{0, 1}));
}

TEST(SquareTessellation, Neighbors4AreDistinctAndAdjacent) {
  SquareTessellation t(5);
  Cell c{0, 0};
  auto nb = t.neighbors4(c);
  ASSERT_EQ(nb.size(), 4u);
  std::set<int> ids;
  for (auto x : nb) {
    ids.insert(t.index_of(x));
    EXPECT_EQ(t.hop_distance(c, x), 1);
  }
  EXPECT_EQ(ids.size(), 4u);
}

TEST(SquareTessellation, HopDistanceWraps) {
  SquareTessellation t(10);
  EXPECT_EQ(t.hop_distance({0, 0}, {0, 9}), 1);
  EXPECT_EQ(t.hop_distance({0, 0}, {5, 5}), 10);
  EXPECT_EQ(t.hop_distance({2, 3}, {2, 3}), 0);
}

TEST(SquareTessellation, HvPathConnectsEndpoints) {
  SquareTessellation t(9);
  Cell src{1, 2}, dst{7, 8};
  auto path = t.hv_path(src, dst);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), src);
  EXPECT_EQ(path.back(), dst);
  // Consecutive cells are 4-adjacent; length equals hop distance + 1.
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    EXPECT_EQ(t.hop_distance(path[i], path[i + 1]), 1);
  EXPECT_EQ(path.size(), static_cast<std::size_t>(
                             t.hop_distance(src, dst)) + 1);
}

TEST(SquareTessellation, HvPathGoesHorizontalFirst) {
  SquareTessellation t(6);
  auto path = t.hv_path({0, 0}, {3, 3});
  // After the first step only the column may change.
  EXPECT_EQ(path[1].row, 0);
  EXPECT_EQ(path[1].col, 1);
}

TEST(SquareTessellation, HvPathTakesShortWrap) {
  SquareTessellation t(10);
  auto path = t.hv_path({0, 9}, {0, 0});
  EXPECT_EQ(path.size(), 2u);  // wraps across the seam, not 9 hops
}

TEST(SquareTessellation, SingleCellDegenerate) {
  SquareTessellation t(1);
  EXPECT_EQ(t.cell_of({0.7, 0.2}), (Cell{0, 0}));
  EXPECT_EQ(t.hv_path({0, 0}, {0, 0}).size(), 1u);
}

// ------------------------------------------------------------------ hex --

TEST(HexGrid, CellOfCenterRoundTrips) {
  HexGrid grid(0.05);
  for (int q = -3; q <= 3; ++q) {
    for (int r = -3; r <= 3; ++r) {
      Hex h{q, r};
      EXPECT_EQ(grid.cell_of(grid.center(h)), h);
    }
  }
}

TEST(HexGrid, NeighborsAtUnitDistance) {
  HexGrid grid(1.0);
  Hex origin{0, 0};
  for (Hex nb : grid.neighbors(origin)) {
    EXPECT_EQ(grid.distance(origin, nb), 1);
    // Center spacing of adjacent pointy-top hexes is √3·side.
    EXPECT_NEAR((grid.center(nb) - grid.center(origin)).norm(),
                std::sqrt(3.0), 1e-12);
  }
}

TEST(HexGrid, CellsWithinCoversDiskArea) {
  HexGrid grid(0.02);
  const double radius = 0.3;
  auto cells = grid.cells_within(radius);
  // Count ≈ disk area / hex area.
  const double expect = M_PI * radius * radius / grid.cell_area();
  EXPECT_NEAR(static_cast<double>(cells.size()), expect, expect * 0.15);
}

TEST(HexGrid, TdmaColorRange) {
  HexGrid grid(0.1);
  const int period = 3;
  for (int q = -5; q <= 5; ++q) {
    for (int r = -5; r <= 5; ++r) {
      int c = grid.tdma_color({q, r}, period);
      EXPECT_GE(c, 0);
      EXPECT_LT(c, period * period);
    }
  }
}

TEST(HexGrid, SameColorCellsAreFar) {
  HexGrid grid(0.01);
  const int period = 4;
  Hex a{0, 0};
  const int color = grid.tdma_color(a, period);
  for (int q = -8; q <= 8; ++q) {
    for (int r = -8; r <= 8; ++r) {
      Hex b{q, r};
      if (b == a || grid.tdma_color(b, period) != color) continue;
      EXPECT_GE(grid.distance(a, b), period);
    }
  }
}

// --------------------------------------------------------- spatial hash --

TEST(SpatialHash, FindsExactDiskMembers) {
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({(i % 20) / 20.0 + 0.013, (i / 20) / 10.0 + 0.017});
  for (auto& p : pts) p = Point::wrapped(p.x, p.y);

  SpatialHash hash(0.1, pts.size());
  hash.build(pts);

  const Point center{0.5, 0.5};
  const double r = 0.23;
  auto got = hash.query_disk(center, r);
  std::set<std::uint32_t> got_set(got.begin(), got.end());

  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    const bool inside = torus_dist(center, pts[i]) <= r;
    EXPECT_EQ(got_set.count(i) > 0, inside) << "id " << i;
  }
}

TEST(SpatialHash, WrapsAroundSeam) {
  std::vector<Point> pts = {{0.98, 0.5}, {0.02, 0.5}, {0.5, 0.5}};
  SpatialHash hash(0.05, pts.size());
  hash.build(pts);
  auto got = hash.query_disk({0.999, 0.5}, 0.05);
  std::set<std::uint32_t> s(got.begin(), got.end());
  EXPECT_TRUE(s.count(0));
  EXPECT_TRUE(s.count(1));
  EXPECT_FALSE(s.count(2));
}

TEST(SpatialHash, CountMatchesQuery) {
  std::vector<Point> pts;
  for (int i = 0; i < 64; ++i) pts.push_back({(i * 37 % 64) / 64.0,
                                              (i * 11 % 64) / 64.0});
  SpatialHash hash(0.2, pts.size());
  hash.build(pts);
  EXPECT_EQ(hash.count_in_disk({0.3, 0.3}, 0.2),
            hash.query_disk({0.3, 0.3}, 0.2).size());
}

TEST(SpatialHash, NearestIsTrueNearest) {
  std::vector<Point> pts = {{0.1, 0.1}, {0.9, 0.9}, {0.45, 0.52},
                            {0.3, 0.8},  {0.7, 0.2}};
  SpatialHash hash(0.1, pts.size());
  hash.build(pts);
  const Point probe{0.5, 0.5};
  std::uint32_t got = hash.nearest(probe, 99);
  std::uint32_t want = 0;
  double best = 1e9;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    double d = torus_dist(probe, pts[i]);
    if (d < best) {
      best = d;
      want = i;
    }
  }
  EXPECT_EQ(got, want);
}

TEST(SpatialHash, NearestHonorsExclusion) {
  std::vector<Point> pts = {{0.5, 0.5}, {0.52, 0.5}};
  SpatialHash hash(0.1, pts.size());
  hash.build(pts);
  EXPECT_EQ(hash.nearest({0.5, 0.5}, 0), 1u);
}

TEST(SpatialHash, EmptyIndexReportsSentinel) {
  SpatialHash hash(0.1);
  hash.build({});
  // The old contract returned 0 here — an in-band id a caller could index
  // with. kNone is out-of-band by construction.
  EXPECT_EQ(hash.nearest({0.5, 0.5}, 0), SpatialHash::kNone);
  EXPECT_EQ(hash.nearest({0.5, 0.5}), SpatialHash::kNone);
  EXPECT_EQ(hash.count_in_disk({0.5, 0.5}, 0.3), 0u);
}

TEST(SpatialHash, AllCandidatesExcludedReportsSentinel) {
  // A single indexed point that is also the exclusion: the old contract
  // returned points_.size() (= 1), which is an indexable id in any array
  // sized like the candidate set plus one appended probe.
  std::vector<Point> pts = {{0.25, 0.75}};
  SpatialHash hash(0.1, pts.size());
  hash.build(pts);
  EXPECT_EQ(hash.nearest({0.5, 0.5}, 0), SpatialHash::kNone);
  EXPECT_EQ(hash.nearest({0.5, 0.5}, SpatialHash::kNone), 0u);
}

TEST(SpatialHash, NearestMatchesBruteForceOnClusteredPoints) {
  // The ring search must agree with brute force even when points are
  // clustered far from the probe (many empty rings before the first hit)
  // and when the best candidate sits just outside the first occupied ring.
  std::vector<Point> pts;
  for (int i = 0; i < 40; ++i)
    pts.push_back({0.8 + 0.01 * (i % 7), 0.1 + 0.013 * (i % 5)});
  pts.push_back({0.79, 0.12});
  SpatialHash hash(0.05, pts.size());
  hash.build(pts);
  const std::vector<Point> probes = {{0.1, 0.9}, {0.5, 0.5}, {0.81, 0.11},
                                     {0.99, 0.99}, {0.0, 0.0}};
  for (const Point& probe : probes) {
    std::uint32_t want = 0;
    double best = 1e9;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      const double d = torus_dist(probe, pts[i]);
      if (d < best) {
        best = d;
        want = i;
      }
    }
    EXPECT_EQ(hash.nearest(probe), want);
  }
}

TEST(SpatialHash, FullTorusRadiusSeesEveryPoint) {
  std::vector<Point> pts;
  for (int i = 0; i < 50; ++i)
    pts.push_back({(i * 13 % 50) / 50.0, (i * 7 % 50) / 50.0});
  SpatialHash hash(0.01, pts.size());
  hash.build(pts);
  EXPECT_EQ(hash.count_in_disk({0.0, 0.0}, 0.71), pts.size());
}

// Regression: a radius_hint of 1e-12 used to push 1/hint through an int
// cast (UB — the clamp ran after the narrowing). The constructor now
// clamps to kMaxGridSide in int64 first; queries must still match brute
// force on the resulting maximally fine grid.
TEST(SpatialHash, TinyRadiusHintClampsInsteadOfOverflowing) {
  std::vector<Point> pts;
  for (int i = 0; i < 64; ++i)
    pts.push_back({(i * 29 % 64) / 64.0, (i * 17 % 64) / 64.0});
  // Without a point-count hint the denormal hint clamps to the max side
  // (construction only — building a 4096² table for 64 points is wasteful).
  EXPECT_EQ(SpatialHash(1e-12).grid_side(), SpatialHash::kMaxGridSide);
  // With the hint the √points cap kicks in, but the tiny radius must still
  // pass through the int64 clamp, not the old int cast.
  SpatialHash hash(1e-12, pts.size());
  hash.build(pts);
  EXPECT_EQ(hash.grid_side(), 16);  // 2·⌈√64⌉
  const Point probe{0.31, 0.64};
  const double r = 0.2;
  std::size_t brute = 0;
  for (const Point& p : pts)
    if (torus_dist(probe, p) <= r) ++brute;
  EXPECT_EQ(hash.count_in_disk(probe, r), brute);
  // Incremental mode under the clamped grid: move a point across the
  // whole torus and re-query.
  hash.move(0, pts[0], probe);
  EXPECT_GE(hash.count_in_disk(probe, 1e-9), 1u);
}

// Rows partition the indexed set: walking the buckets of every row range
// covers every id once, at its own position — the invariant the sharded
// S* scan rides on. Checked on the snapshot and on a moved hash.
TEST(SpatialHash, VisitRowsPartitionsIds) {
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({(i * 37 % 200) / 200.0, (i * 101 % 200) / 200.0});
  SpatialHash hash(0.05, pts.size());
  hash.build(pts);
  const std::int64_t g = hash.grid_side();
  auto check_partition = [&] {
    std::vector<int> seen(pts.size(), 0);
    for (std::int64_t s = 0; s < 4; ++s)
      for (std::int64_t b = g * g * s / 4; b < g * g * (s + 1) / 4; ++b)
        hash.visit_bucket(static_cast<std::size_t>(b),
                          [&](std::uint32_t id, const Point& p) {
                            ++seen[id];
                            EXPECT_EQ(p.x, pts[id].x);
                            EXPECT_EQ(p.y, pts[id].y);
                            return true;
                          });
    for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(seen[i], 1) << i;
  };
  check_partition();
  for (std::uint32_t i = 0; i < pts.size(); i += 3) {
    const Point to{pts[(i + 101) % pts.size()].x, pts[i].y};
    hash.move(i, pts[i], to);
    pts[i] = to;
  }
  check_partition();
}

}  // namespace
}  // namespace manetcap::geom
