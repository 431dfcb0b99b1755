// Edge-case and robustness tests for the routing schemes: tiny networks,
// single-BS systems, strict coverage mode, degenerate clusters — the
// failure-injection side of the suite.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "mobility/shape.h"
#include "net/network.h"
#include "net/traffic.h"
#include "routing/scheme_a.h"
#include "routing/scheme_b.h"
#include "routing/scheme_c.h"
#include "routing/static_multihop.h"
#include "routing/two_hop.h"
#include "rng/rng.h"
#include "util/check.h"

namespace manetcap::mobility {

// Names the shape-parameterized cases "…/triangular" instead of the enum's
// bytes. gtest finds it by argument-dependent lookup, hence the namespace.
void PrintTo(ShapeKind kind, std::ostream* os) { *os << to_string(kind); }

}  // namespace manetcap::mobility

namespace manetcap::routing {
namespace {

std::vector<std::uint32_t> traffic_for(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  return net::permutation_traffic(n, g);
}

// ------------------------------------------------------- tiny networks --

TEST(EdgeCases, TwoNodeNetworkTwoHop) {
  net::ScalingParams p;
  p.n = 2;
  p.alpha = 0.0;
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 1);
  TwoHopRelay th;
  auto r = th.evaluate(net, {1, 0});
  // Direct contact only (no third node to relay); capacity positive since
  // the mobility disks cover the torus.
  EXPECT_GT(r.throughput.lambda, 0.0);
}

TEST(EdgeCases, TinyNetworkSchemeADegenerates) {
  net::ScalingParams p;
  p.n = 8;
  p.alpha = 0.1;  // f ≈ 1.2: grid cannot reach kMinGrid
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 2);
  SchemeA a;
  auto r = a.evaluate(net, traffic_for(8, 3));
  EXPECT_TRUE(r.degenerate);
  EXPECT_DOUBLE_EQ(r.throughput.lambda, 0.0);
}

TEST(EdgeCases, SingleBaseStationSchemeB) {
  net::ScalingParams p;
  p.n = 64;
  p.alpha = 0.0;  // everyone can reach the single BS
  p.with_bs = true;
  p.K = 0.0;      // k = 1
  p.M = 1.0;
  p.phi = 0.0;
  ASSERT_EQ(p.k(), 1u);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 4);
  SchemeB b;
  auto r = b.evaluate(net, traffic_for(64, 5));
  // One BS, one squarelet group: no wires needed, access only.
  EXPECT_GT(r.throughput.lambda, 0.0);
  EXPECT_EQ(r.throughput.bottleneck, flow::Resource::kAccess);
}

TEST(EdgeCases, SingleBaseStationSchemeC) {
  net::ScalingParams p;
  p.n = 64;
  p.alpha = 0.0;
  p.with_bs = true;
  p.K = 0.0;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 6);
  SchemeC c;
  auto r = c.evaluate(net, traffic_for(64, 7));
  EXPECT_GT(r.throughput.lambda, 0.0);
  // All 64 MSs share the one cell.
  EXPECT_DOUBLE_EQ(r.max_cell_population, 64.0);
}

// --------------------------------------------------- coverage handling --

TEST(EdgeCases, UncoveredMsAreCountedAndExcluded) {
  // Large f with few BSs: many MSs see no BS.
  net::ScalingParams p;
  p.n = 1024;
  p.alpha = 0.45;
  p.with_bs = true;
  p.K = 0.3;  // k = 8: hopeless coverage at f ≈ 23
  p.M = 1.0;
  p.phi = 0.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 8);
  auto dest = traffic_for(1024, 9);
  auto r = SchemeB(BsGrouping::kSquarelet).evaluate(net, dest);
  ASSERT_GT(r.unreachable_ms, 0u);
  // The uncovered MSs are excluded, so the covered subset is served.
  EXPECT_GT(r.mean_access_rate, 0.0);
}

TEST(EdgeCases, SchemeCReportsClustersWithoutBs) {
  // Force a cluster/BS mismatch: more clusters than BSs.
  net::ScalingParams p;
  p.n = 512;
  p.alpha = 0.45;
  p.with_bs = true;
  p.K = 0.25;  // k = 5
  p.M = 0.5;   // m = 23 > k: some clusters must be empty
  p.R = 0.35;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 10);
  SchemeC c;
  auto r = c.evaluate(net, traffic_for(512, 11));
  EXPECT_GT(r.ms_without_bs, 0u);
  EXPECT_DOUBLE_EQ(r.throughput.lambda, 0.0);
}

// -------------------------------------------------- shape insensitivity --

class SchemeAShapeInvariance
    : public ::testing::TestWithParam<mobility::ShapeKind> {};

TEST_P(SchemeAShapeInvariance, ThroughputOrderIndependentOfShape) {
  // Lemma 2 / Corollary 1: the capacity order depends on s(·) only through
  // constants. All three shapes must land within a small factor.
  net::ScalingParams p;
  p.n = 4096;
  p.alpha = 0.3;
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, GetParam(),
                                 net::BsPlacement::kUniform, 12);
  SchemeA a;
  auto r = a.evaluate(net, traffic_for(4096, 13));
  ASSERT_FALSE(r.degenerate);
  // Reference envelope established against the uniform-disk run.
  EXPECT_GT(r.lambda_symmetric, 1e-4);
  EXPECT_LT(r.lambda_symmetric, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SchemeAShapeInvariance,
                         ::testing::Values(mobility::ShapeKind::kUniformDisk,
                                           mobility::ShapeKind::kTriangular,
                                           mobility::ShapeKind::kQuadratic));

// --------------------------------------------------- placement variants --

TEST(EdgeCases, ClusterGridPlacementPutsBsInClusters) {
  net::ScalingParams p;
  p.n = 2048;
  p.alpha = 0.45;
  p.with_bs = true;
  p.K = 0.6;
  p.M = 0.3;
  p.R = 0.4;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 14);
  const auto& layout = net.ms_layout();
  ASSERT_EQ(net.num_bs(), p.k());
  for (std::size_t j = 0; j < net.num_bs(); ++j) {
    const auto c = net.bs_cluster()[j];
    ASSERT_LT(c, layout.num_clusters());
    EXPECT_LE(geom::torus_dist(net.bs_pos()[j], layout.cluster_centers[c]),
              layout.cluster_radius + 1e-9)
        << "BS " << j;
  }
  // Quota split: every cluster holds ⌊k/m⌋ or ⌈k/m⌉ BSs.
  std::vector<std::size_t> per_cluster(layout.num_clusters(), 0);
  for (auto c : net.bs_cluster()) ++per_cluster[c];
  const std::size_t lo = p.k() / layout.num_clusters();
  for (auto cnt : per_cluster) {
    EXPECT_GE(cnt, lo);
    EXPECT_LE(cnt, lo + 1);
  }
}

TEST(EdgeCases, ClusterGridRejectsClusterFreeLayouts) {
  net::ScalingParams p;
  p.n = 256;
  p.alpha = 0.2;
  p.with_bs = true;
  p.K = 0.5;
  p.M = 1.0;  // cluster-free
  EXPECT_THROW(net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kClusterGrid, 15),
               manetcap::CheckError);
}

TEST(EdgeCases, ClusterGridBsSeparationIsRegular) {
  // Hex-lattice placement: within a cluster, the closest BS pair is far
  // closer to uniform spacing than random placement would give.
  net::ScalingParams p;
  p.n = 2048;
  p.alpha = 0.45;
  p.with_bs = true;
  p.K = 0.65;
  p.M = 0.25;
  p.R = 0.4;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 16);
  // Minimum pairwise distance among BSs of the same cluster should be
  // bounded below by ~0.8× the hex spacing (no collapsed pairs).
  const auto m = net.ms_layout().num_clusters();
  std::vector<std::vector<std::uint32_t>> by_cluster(m);
  for (std::uint32_t j = 0; j < net.num_bs(); ++j)
    by_cluster[net.bs_cluster()[j]].push_back(j);
  for (const auto& members : by_cluster) {
    if (members.size() < 2) continue;
    const double quota = static_cast<double>(members.size());
    const double expected_spacing =
        std::sqrt(M_PI * net.ms_layout().cluster_radius *
                  net.ms_layout().cluster_radius / quota);
    double min_d = 1.0;
    for (std::size_t a = 0; a < members.size(); ++a)
      for (std::size_t b = a + 1; b < members.size(); ++b)
        min_d = std::min(min_d,
                         geom::torus_dist(net.bs_pos()[members[a]],
                                          net.bs_pos()[members[b]]));
    EXPECT_GT(min_d, 0.5 * expected_spacing);
  }
}

// ------------------------------------------------------ input contracts --

TEST(EdgeCases, MismatchedTrafficLengthRejected) {
  net::ScalingParams p;
  p.n = 128;
  p.alpha = 0.25;
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 17);
  std::vector<std::uint32_t> short_dest(64, 0);
  SchemeA a;
  EXPECT_THROW(a.evaluate(net, short_dest), manetcap::CheckError);
  TwoHopRelay th;
  EXPECT_THROW(th.evaluate(net, short_dest), manetcap::CheckError);
  StaticMultihop sm;
  EXPECT_THROW(sm.evaluate(net, short_dest), manetcap::CheckError);
}

TEST(EdgeCases, StaticMultihopRejectsBadConstants) {
  EXPECT_THROW(StaticMultihop(0.5, 1.0), manetcap::CheckError);
  EXPECT_THROW(StaticMultihop(2.0, -0.1), manetcap::CheckError);
  EXPECT_NO_THROW(StaticMultihop(1.0, 0.0));
}

}  // namespace
}  // namespace manetcap::routing
