#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "mobility/home_points.h"
#include "mobility/process.h"
#include "mobility/shape.h"
#include "rng/rng.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace manetcap::mobility {
namespace {

// ---------------------------------------------------------------- shape --

class ShapeFamilies : public ::testing::TestWithParam<ShapeKind> {};

TEST_P(ShapeFamilies, DensityNonIncreasingWithFiniteSupport) {
  Shape s(GetParam(), 1.0);
  double prev = s.density(0.0);
  EXPECT_GT(prev, 0.0);
  for (double d = 0.05; d <= 1.3; d += 0.05) {
    double cur = s.density(d);
    EXPECT_LE(cur, prev + 1e-12) << "at d=" << d;
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(s.density(1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.density(2.0), 0.0);
}

TEST_P(ShapeFamilies, NormalizationMatchesNumericIntegral) {
  Shape s(GetParam(), 0.7);
  // Numeric radial integral ∫ s(t)·2πt dt.
  double acc = 0.0;
  const int steps = 20000;
  const double h = 0.7 / steps;
  for (int i = 0; i < steps; ++i) {
    const double t = (i + 0.5) * h;
    acc += s.density(t) * 2.0 * M_PI * t * h;
  }
  EXPECT_NEAR(s.normalization(), acc, acc * 1e-3);
}

TEST_P(ShapeFamilies, SampledRadiusMatchesDensity) {
  Shape s(GetParam(), 1.0);
  rng::Xoshiro256 g(5);
  // Empirical CDF at r=0.5 vs analytic mass fraction.
  const int trials = 200000;
  int within = 0;
  for (int i = 0; i < trials; ++i)
    if (s.sample_displacement(g).norm() <= 0.5) ++within;

  double mass = 0.0;
  const int steps = 5000;
  for (int i = 0; i < steps; ++i) {
    const double t = (i + 0.5) * (0.5 / steps);
    mass += s.density(t) * 2.0 * M_PI * t * (0.5 / steps);
  }
  mass /= s.normalization();
  EXPECT_NEAR(within / static_cast<double>(trials), mass, 0.01);
}

TEST_P(ShapeFamilies, SampleDirectionIsIsotropic) {
  Shape s(GetParam(), 1.0);
  rng::Xoshiro256 g(7);
  int right = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i)
    if (s.sample_displacement(g).x > 0.0) ++right;
  EXPECT_NEAR(right / static_cast<double>(trials), 0.5, 0.01);
}

TEST_P(ShapeFamilies, EtaNonIncreasingWithDoubleSupport) {
  Shape s(GetParam(), 1.0);
  double prev = s.eta(0.0);
  EXPECT_GT(prev, 0.0);
  for (double x = 0.1; x <= 2.2; x += 0.1) {
    double cur = s.eta(x);
    EXPECT_LE(cur, prev + 1e-9) << "at x=" << x;
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(s.eta(2.0), 0.0);
  EXPECT_DOUBLE_EQ(s.eta(3.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ShapeFamilies,
                         ::testing::Values(ShapeKind::kUniformDisk,
                                           ShapeKind::kTriangular,
                                           ShapeKind::kQuadratic),
                         [](const auto& param_info) {
                           return to_string(param_info.param) ==
                                          "uniform-disk"
                                      ? std::string("UniformDisk")
                                  : to_string(param_info.param) ==
                                          "triangular"
                                      ? std::string("Triangular")
                                      : std::string("Quadratic");
                         });

TEST(Shape, UniformDiskEtaIsLensArea) {
  // For s = 1 on a disk of radius D, η(x) is exactly the two-disk lens.
  Shape s(ShapeKind::kUniformDisk, 1.0);
  for (double x : {0.0, 0.3, 0.8, 1.2, 1.7}) {
    EXPECT_NEAR(s.eta(x), disk_lens_area(1.0, x),
                0.02 * disk_lens_area(1.0, 0.0))
        << "at x=" << x;
  }
}

TEST(Shape, DiskLensAreaEdgeCases) {
  EXPECT_NEAR(disk_lens_area(1.0, 0.0), M_PI, 1e-12);
  EXPECT_DOUBLE_EQ(disk_lens_area(1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(disk_lens_area(1.0, 5.0), 0.0);
  EXPECT_GT(disk_lens_area(1.0, 1.0), 0.0);
}

TEST(Shape, SupportScalesFamilies) {
  Shape small(ShapeKind::kTriangular, 0.5);
  EXPECT_DOUBLE_EQ(small.support(), 0.5);
  EXPECT_DOUBLE_EQ(small.density(0.6), 0.0);
  EXPECT_GT(small.density(0.4), 0.0);
}

TEST(Shape, InvalidSupportThrows) {
  EXPECT_THROW(Shape(ShapeKind::kUniformDisk, 0.0), CheckError);
  EXPECT_THROW(Shape(ShapeKind::kUniformDisk, -1.0), CheckError);
}

// η at 0 (∫ s²) and at 0.7·D for every family, pinned to the bits the
// per-Shape table had before it was shared.
TEST(Shape, EtaKeepsItsPinnedBits) {
  const struct {
    ShapeKind kind;
    double support;
    double eta0;
    double eta_07;
  } pinned[] = {
      {ShapeKind::kUniformDisk, 1.0, 0x1.9255555555555p+1,
       0x1.c580b60b60b61p+0},
      {ShapeKind::kUniformDisk, 0.5, 0x1.9255555555555p-1,
       0x1.c580b60b60b61p-2},
      {ShapeKind::kTriangular, 1.0, 0x1.0c151e4bdd348p-1,
       0x1.0ec7bd8838c95p-2},
      {ShapeKind::kTriangular, 0.5, 0x1.0c151e4bdd348p-3,
       0x1.0ec7bd8838c95p-4},
      {ShapeKind::kQuadratic, 1.0, 0x1.0c1523403b03cp+0,
       0x1.248760eeb42b2p-1},
      {ShapeKind::kQuadratic, 0.5, 0x1.0c1523403b03cp-2,
       0x1.248760eeb42b2p-3},
  };
  for (const auto& p : pinned) {
    const Shape s(p.kind, p.support);
    EXPECT_EQ(s.eta0(), p.eta0) << to_string(p.kind) << " " << p.support;
    EXPECT_EQ(s.eta(0.7 * p.support), p.eta_07)
        << to_string(p.kind) << " " << p.support;
  }
}

// Shapes of one (kind, support) built concurrently share one η table: all
// of them, and one built afterwards, read the same bits everywhere. The
// support is used by no other test, so the table is built here, under
// contention.
TEST(Shape, EtaTableSharedAcrossConcurrentBuilds) {
  constexpr std::size_t kShapes = 16;
  std::vector<std::unique_ptr<Shape>> shapes(kShapes);
  util::ThreadPool::shared().parallel_for(kShapes, [&](std::size_t i) {
    shapes[i] = std::make_unique<Shape>(ShapeKind::kQuadratic, 1.375);
  });
  const Shape later(ShapeKind::kQuadratic, 1.375);
  for (double x = 0.0; x <= 2.0 * 1.375; x += 0.01) {
    for (const auto& s : shapes) ASSERT_EQ(s->eta(x), later.eta(x)) << x;
  }
  EXPECT_GT(later.eta0(), 0.0);
}

// ---------------------------------------------------------- home points --

TEST(HomePoints, UniformLayoutIsBijective) {
  rng::Xoshiro256 g(11);
  auto layout = place_home_points(100, ClusterSpec::uniform(100), g);
  EXPECT_EQ(layout.points.size(), 100u);
  EXPECT_EQ(layout.num_clusters(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(layout.cluster_of[i], i);
  }
  // No two nodes coincide.
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = i + 1; j < 100; ++j)
      EXPECT_GT(geom::torus_dist(layout.points[i], layout.points[j]), 0.0);
}

TEST(HomePoints, ClusteredPointsStayInClusterDisk) {
  rng::Xoshiro256 g(13);
  ClusterSpec spec{8, 0.03};
  auto layout = place_home_points(400, spec, g);
  for (std::uint32_t i = 0; i < 400; ++i) {
    const auto c = layout.cluster_of[i];
    ASSERT_LT(c, 8u);
    EXPECT_LE(geom::torus_dist(layout.points[i],
                               layout.cluster_centers[c]),
              0.03 + 1e-12);
  }
}

TEST(HomePoints, ClustersRoughlyBalanced) {
  rng::Xoshiro256 g(17);
  auto layout = place_home_points(8000, ClusterSpec{8, 0.02}, g);
  auto members = layout.members_by_cluster();
  for (const auto& ms : members) {
    // Chernoff (Lemma 11): within a factor ~(1±ε) of n/m.
    EXPECT_GT(ms.size(), 700u);
    EXPECT_LT(ms.size(), 1300u);
  }
}

TEST(HomePoints, MembersByClusterPartitions) {
  rng::Xoshiro256 g(19);
  auto layout = place_home_points(300, ClusterSpec{5, 0.05}, g);
  auto members = layout.members_by_cluster();
  std::size_t total = 0;
  for (const auto& ms : members) total += ms.size();
  EXPECT_EQ(total, 300u);
}

TEST(HomePoints, PlaceInClustersReusesCenters) {
  rng::Xoshiro256 g(23);
  std::vector<geom::Point> centers = {{0.2, 0.2}, {0.8, 0.8}};
  auto layout = place_in_clusters(50, centers, 0.01, g);
  EXPECT_EQ(layout.cluster_centers.size(), 2u);
  for (std::uint32_t i = 0; i < 50; ++i)
    EXPECT_LE(geom::torus_dist(layout.points[i],
                               centers[layout.cluster_of[i]]),
              0.011);
}

// -------------------------------------------------------------- process --

TEST(IidMobility, StationaryWithinMobilityDisk) {
  rng::Xoshiro256 g(29);
  auto layout = place_home_points(50, ClusterSpec::uniform(50), g);
  Shape shape(ShapeKind::kUniformDisk, 1.0);
  const double inv_f = 0.05;
  IidStationaryMobility mob(layout.points, shape, inv_f, 31);
  for (int t = 0; t < 20; ++t) {
    for (std::size_t i = 0; i < 50; ++i) {
      EXPECT_LE(geom::torus_dist(mob.positions()[i], layout.points[i]),
                inv_f + 1e-12);
    }
    mob.step();
  }
}

TEST(IidMobility, StepsAreIndependentDraws) {
  Shape shape(ShapeKind::kUniformDisk, 1.0);
  IidStationaryMobility mob({{0.5, 0.5}}, shape, 0.1, 37);
  geom::Point p0 = mob.positions()[0];
  mob.step();
  geom::Point p1 = mob.positions()[0];
  EXPECT_GT(geom::torus_dist(p0, p1), 0.0);
}

TEST(BoundedRandomWalk, NeverLeavesDisk) {
  rng::Xoshiro256 g(41);
  auto layout = place_home_points(20, ClusterSpec::uniform(20), g);
  const double radius = 0.07;
  BoundedRandomWalk walk(layout.points, radius, 43);
  for (int t = 0; t < 200; ++t) {
    walk.step();
    for (std::size_t i = 0; i < 20; ++i)
      EXPECT_LE(geom::torus_dist(walk.positions()[i], layout.points[i]),
                radius + 1e-9);
  }
}

TEST(BoundedRandomWalk, StationaryRoughlyUniformOnDisk) {
  // Fraction of time beyond radius/√2 should approach 1/2 (uniform area).
  BoundedRandomWalk walk({{0.5, 0.5}}, 0.1, 47);
  int outer = 0;
  const int steps = 40000;
  for (int t = 0; t < steps; ++t) {
    walk.step();
    if (geom::torus_dist(walk.positions()[0], {0.5, 0.5}) >
        0.1 / std::sqrt(2.0))
      ++outer;
  }
  EXPECT_NEAR(outer / static_cast<double>(steps), 0.5, 0.06);
}

TEST(PullHomeMobility, NeverLeavesDiskAndIsCorrelated) {
  PullHomeMobility mob({{0.3, 0.3}}, 0.05, 53);
  geom::Point prev = mob.positions()[0];
  double step_sum = 0.0;
  for (int t = 0; t < 500; ++t) {
    mob.step();
    geom::Point cur = mob.positions()[0];
    EXPECT_LE(geom::torus_dist(cur, {0.3, 0.3}), 0.05 + 1e-9);
    step_sum += geom::torus_dist(prev, cur);
    prev = cur;
  }
  // Correlated motion: mean per-slot displacement well below the diameter.
  EXPECT_LT(step_sum / 500.0, 0.05);
  EXPECT_GT(step_sum / 500.0, 0.0);
}

TEST(PullHomeMobility, HighRhoStartsNearStationarity) {
  // Regression: the historical fixed 32-step burn-in left ρ = 0.99 at
  // 0.99^32 ≈ 0.72 of its initial home-point bias, so the time-zero
  // ensemble was far tighter than the stationary law. The burn-in now
  // scales with the mixing time (⌈log ε / log ρ⌉). Stationary E|offset|²
  // of the untruncated AR(1) is 2·(radius/2.5)²; boundary clipping shaves
  // a little off the top, while the old under-mixed start sat at ≈ 0.47
  // of it — well outside the band below.
  const double radius = 0.05;
  const int reps = 400;
  double sum2 = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    PullHomeMobility mob({{0.5, 0.5}}, radius, 1000 + rep, 0.99);
    sum2 += geom::torus_dist2(mob.positions()[0], {0.5, 0.5});
  }
  const double expected = 2.0 * (radius / 2.5) * (radius / 2.5);
  EXPECT_GT(sum2 / reps, 0.6 * expected);
  EXPECT_LT(sum2 / reps, 1.4 * expected);
}

TEST(PullHomeMobility, DefaultRhoMatchesExplicitRho) {
  // The default-ρ (0.8) burn-in stays at the historical 32 steps
  // (⌈log 1e−3 / log 0.8⌉ = 31, floored at 32), so runs seeded before the
  // adaptive burn-in reproduce bit for bit; the golden traces and the
  // reference-equivalence tests pin that end to end. Here: the default
  // and an explicit 0.8 are the same process.
  PullHomeMobility a({{0.3, 0.3}}, 0.05, 53);
  PullHomeMobility b({{0.3, 0.3}}, 0.05, 53, 0.8);
  for (int t = 0; t < 5; ++t) {
    EXPECT_DOUBLE_EQ(a.positions()[0].x, b.positions()[0].x);
    EXPECT_DOUBLE_EQ(a.positions()[0].y, b.positions()[0].y);
    a.step();
    b.step();
  }
}

TEST(BrownianTorus, StationaryUniformCoverage) {
  // Unrestricted Brownian motion mixes over the whole torus: after many
  // steps the time-average occupancy of each quadrant approaches 1/4.
  BrownianTorusMobility mob({{0.5, 0.5}}, 61, /*sigma=*/0.08);
  std::array<int, 4> quadrant{0, 0, 0, 0};
  const int steps = 40000;
  for (int t = 0; t < steps; ++t) {
    mob.step();
    const auto p = mob.positions()[0];
    quadrant[(p.x < 0.5 ? 0 : 1) + (p.y < 0.5 ? 0 : 2)]++;
  }
  for (int q : quadrant)
    EXPECT_NEAR(q / static_cast<double>(steps), 0.25, 0.08);
}

TEST(BrownianTorus, StepScaleMatchesSigma) {
  BrownianTorusMobility mob({{0.2, 0.2}}, 67, /*sigma=*/0.01);
  double sum2 = 0.0;
  geom::Point prev = mob.positions()[0];
  const int steps = 2000;
  for (int t = 0; t < steps; ++t) {
    mob.step();
    sum2 += geom::torus_dist2(prev, mob.positions()[0]);
    prev = mob.positions()[0];
  }
  // E[step²] = 2σ².
  EXPECT_NEAR(sum2 / steps, 2.0 * 0.01 * 0.01, 0.3 * 2.0 * 0.01 * 0.01);
}

TEST(Process, DeterministicGivenSeed) {
  Shape shape(ShapeKind::kTriangular, 1.0);
  IidStationaryMobility a({{0.1, 0.1}, {0.6, 0.6}}, shape, 0.05, 59);
  IidStationaryMobility b({{0.1, 0.1}, {0.6, 0.6}}, shape, 0.05, 59);
  for (int t = 0; t < 10; ++t) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_DOUBLE_EQ(a.positions()[i].x, b.positions()[i].x);
      EXPECT_DOUBLE_EQ(a.positions()[i].y, b.positions()[i].y);
    }
    a.step();
    b.step();
  }
}

}  // namespace
}  // namespace manetcap::mobility
