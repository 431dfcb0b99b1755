// Compile-level test: the umbrella header must expose the whole public
// API without conflicts, and a representative symbol from every layer must
// be usable through it alone.
#include "manetcap.h"

#include <gtest/gtest.h>

namespace manetcap {
namespace {

TEST(Umbrella, EveryLayerReachable) {
  // geom / rng
  EXPECT_NEAR(geom::torus_dist({0.1, 0.5}, {0.9, 0.5}), 0.2, 1e-12);
  rng::Xoshiro256 g(1);
  EXPECT_LT(rng::uniform01(g), 1.0);
  // mobility
  mobility::Shape shape(mobility::ShapeKind::kTriangular);
  EXPECT_GT(shape.eta0(), 0.0);
  // net
  net::ScalingParams p;
  p.n = 256;
  p.alpha = 0.25;
  p.M = 1.0;
  EXPECT_GT(p.f(), 1.0);
  // phy / sched
  phy::ProtocolModel pm(0.1, 1.0);
  EXPECT_TRUE(pm.in_range({0.1, 0.1}, {0.15, 0.1}));
  sched::SStarScheduler sstar(0.3, 1.0);
  EXPECT_GT(sstar.range_for(100), 0.0);
  // linkcap
  linkcap::LinkCapacityModel mu(shape, 4.0, 1024);
  EXPECT_GT(mu.mu_ms_ms(0.0), 0.0);
  // backbone / flow
  backbone::GroupedBackbone bb({2, 2}, 1.0);
  bb.add_load(0, 1, 1.0);
  EXPECT_GT(bb.max_feasible_scale(), 0.0);
  flow::ConstraintSet cs;
  cs.add(flow::Resource::kAccess, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(cs.solve().lambda, 0.5);
  // capacity
  EXPECT_DOUBLE_EQ(capacity::mobility_exponent(0.3), -0.3);
  EXPECT_DOUBLE_EQ(capacity::recommended_phi(0.0, 0.7), 0.0);
  // analysis
  EXPECT_GT(analysis::gupta_kumar_range(100), 0.0);
  // routing + sim types exist
  routing::SchemeA a;
  (void)a;
  sim::FluidOptions opt;
  (void)opt;
}

}  // namespace
}  // namespace manetcap
