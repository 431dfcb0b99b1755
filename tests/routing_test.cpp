#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/network.h"
#include "net/traffic.h"
#include "routing/scheme_a.h"
#include "routing/scheme_b.h"
#include "routing/l_hop.h"
#include "routing/scheme_c.h"
#include "routing/static_multihop.h"
#include "routing/two_hop.h"
#include "rng/rng.h"
#include "util/check.h"

namespace manetcap::routing {
namespace {

net::ScalingParams strong_no_bs(std::size_t n, double alpha = 0.35) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = alpha;
  p.with_bs = false;
  p.M = 1.0;
  return p;
}

net::ScalingParams strong_with_bs(std::size_t n, double K = 0.75,
                                  double phi = 0.0) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = 0.35;
  p.with_bs = true;
  p.K = K;
  p.phi = phi;
  p.M = 1.0;
  return p;
}

net::ScalingParams weak_params(std::size_t n) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = 0.45;
  p.with_bs = true;
  p.K = 0.6;
  p.M = 0.3;
  p.R = 0.4;
  p.phi = 0.0;
  return p;
}

net::ScalingParams trivial_params(std::size_t n) {
  // α > ½: the only region where trivial mobility coexists with disjoint
  // clusters (see DESIGN.md).
  net::ScalingParams p;
  p.n = n;
  p.alpha = 0.75;
  p.with_bs = true;
  p.K = 0.6;
  p.M = 0.2;
  p.R = 0.3;
  p.phi = 0.0;
  return p;
}

std::vector<std::uint32_t> traffic_for(const net::Network& net,
                                       std::uint64_t seed = 77) {
  rng::Xoshiro256 g(seed);
  return net::permutation_traffic(net.num_ms(), g);
}

// ------------------------------------------------------------- scheme A --

TEST(SchemeA, PositiveThroughputInStrongRegime) {
  auto net = net::Network::build(strong_no_bs(4096),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 1);
  SchemeA a;
  auto r = a.evaluate(net, traffic_for(net));
  EXPECT_FALSE(r.degenerate);
  EXPECT_GT(r.throughput.lambda, 0.0);
  EXPECT_GT(r.grid_side, 4);
  EXPECT_GT(r.mean_hops, 1.0);
}

TEST(SchemeA, DegeneratesWhenMobilityCoversTorus) {
  auto net = net::Network::build(strong_no_bs(512, /*alpha=*/0.0),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 2);
  SchemeA a;
  auto r = a.evaluate(net, traffic_for(net));
  EXPECT_TRUE(r.degenerate);
}

TEST(SchemeA, ThroughputScalesAsOneOverF) {
  // λ(n)·f(n) should be roughly constant across sizes (Theorem 3).
  SchemeA a;
  std::vector<double> products;
  for (std::size_t n : {2048u, 8192u, 32768u}) {
    auto p = strong_no_bs(n);
    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kUniform, 3);
    auto r = a.evaluate(net, traffic_for(net));
    ASSERT_GT(r.throughput.lambda, 0.0) << "n=" << n;
    products.push_back(r.throughput.lambda * p.f());
  }
  // Spread within a factor 3 over a 16× size range.
  const double lo = *std::min_element(products.begin(), products.end());
  const double hi = *std::max_element(products.begin(), products.end());
  EXPECT_LT(hi / lo, 3.0);
}

TEST(SchemeA, BottleneckIsWireless) {
  auto net = net::Network::build(strong_no_bs(4096),
                                 mobility::ShapeKind::kTriangular,
                                 net::BsPlacement::kUniform, 4);
  SchemeA a;
  auto r = a.evaluate(net, traffic_for(net));
  EXPECT_EQ(r.throughput.bottleneck, flow::Resource::kWirelessRelay);
}

TEST(SchemeA, FailsInClusteredSparseLayout) {
  // Non-uniformly dense: empty squarelets break H-V forwarding (the very
  // reason the paper's weak regime abandons scheme A).
  auto net = net::Network::build(weak_params(4096),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 5);
  SchemeA a;
  auto r = a.evaluate(net, traffic_for(net));
  if (!r.degenerate) EXPECT_DOUBLE_EQ(r.throughput.lambda, 0.0);
}

// ------------------------------------------------------------- scheme B --

TEST(SchemeB, PositiveThroughputWithInfrastructure) {
  auto net = net::Network::build(strong_with_bs(4096),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 6);
  SchemeB b;
  auto r = b.evaluate(net, traffic_for(net));
  EXPECT_GT(r.throughput.lambda, 0.0);
  EXPECT_EQ(r.num_groups, 16u);
  // A small finite-n fraction of MSs may see no BS inside the mobility
  // disk (k/f² grows, so this vanishes asymptotically).
  EXPECT_LT(r.unreachable_ms, net.num_ms() / 20);
  EXPECT_GT(r.mean_access_rate, 0.0);
}

TEST(SchemeB, AccessRateScalesAsKOverN) {
  // Lemma 9: µ^A = Θ(k/n).
  std::vector<double> ratios;
  for (std::size_t n : {4096u, 16384u}) {
    auto p = strong_with_bs(n);
    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kClusteredMatched, 7);
    SchemeB b;
    auto r = b.evaluate(net, traffic_for(net));
    const double k_over_n =
        static_cast<double>(p.k()) / static_cast<double>(n);
    ratios.push_back(r.mean_access_rate / k_over_n);
  }
  EXPECT_LT(std::abs(std::log(ratios[0] / ratios[1])), std::log(2.0));
}

TEST(SchemeB, BackboneBindsWhenWiresAreThin) {
  // ϕ = −1 starves the backbone: bottleneck must move to the wires and
  // λ must drop accordingly.
  auto rich_net = net::Network::build(strong_with_bs(4096, 0.75, 0.5),
                                      mobility::ShapeKind::kUniformDisk,
                                      net::BsPlacement::kClusteredMatched, 8);
  auto poor_net = net::Network::build(strong_with_bs(4096, 0.75, -1.0),
                                      mobility::ShapeKind::kUniformDisk,
                                      net::BsPlacement::kClusteredMatched, 8);
  SchemeB b;
  auto rich = b.evaluate(rich_net, traffic_for(rich_net));
  auto poor = b.evaluate(poor_net, traffic_for(poor_net));
  EXPECT_EQ(poor.throughput.bottleneck, flow::Resource::kBackbone);
  EXPECT_LT(poor.throughput.lambda, rich.throughput.lambda);
}

TEST(SchemeB, AccessBindsWhenWiresAreFat) {
  auto net = net::Network::build(strong_with_bs(4096, 0.75, 1.0),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 9);
  SchemeB b;
  auto r = b.evaluate(net, traffic_for(net));
  EXPECT_EQ(r.throughput.bottleneck, flow::Resource::kAccess);
}

TEST(SchemeB, ClusterGroupingServesWeakRegime) {
  auto net = net::Network::build(weak_params(8192),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 10);
  SchemeB b(BsGrouping::kCluster);
  auto r = b.evaluate(net, traffic_for(net));
  EXPECT_GT(r.throughput.lambda, 0.0);
  EXPECT_EQ(r.num_groups, net.ms_layout().num_clusters());
}

TEST(SchemeB, RequiresBaseStations) {
  auto net = net::Network::build(strong_no_bs(512),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 11);
  SchemeB b;
  auto dest = traffic_for(net);
  EXPECT_THROW(b.evaluate(net, dest), manetcap::CheckError);
}

// ------------------------------------------------------------- scheme C --

TEST(SchemeC, PositiveThroughputInTrivialRegime) {
  auto net = net::Network::build(trivial_params(8192),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 12);
  SchemeC c;
  auto r = c.evaluate(net, traffic_for(net));
  EXPECT_GT(r.throughput.lambda, 0.0);
  EXPECT_EQ(r.ms_without_bs, 0u);
  EXPECT_GT(r.mean_duty_cycle, 0.0);
  EXPECT_LE(r.mean_duty_cycle, 1.0);
  EXPECT_GT(r.mean_cell_population, 1.0);
}

TEST(SchemeC, CellPopulationScalesAsNOverK) {
  auto p = trivial_params(8192);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 13);
  SchemeC c;
  auto r = c.evaluate(net, traffic_for(net));
  const double n_over_k =
      static_cast<double>(p.n) / static_cast<double>(p.k());
  EXPECT_GT(r.mean_cell_population, 0.3 * n_over_k);
  EXPECT_LT(r.mean_cell_population, 3.0 * n_over_k);
}

TEST(SchemeC, ThroughputNearKOverN) {
  // With ϕ = 0 the law is Θ(k/n); duty cycles put the constant below 1.
  auto p = trivial_params(8192);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 14);
  SchemeC c;
  auto r = c.evaluate(net, traffic_for(net));
  const double k_over_n =
      static_cast<double>(p.k()) / static_cast<double>(p.n);
  // TDMA duty cycles and cell-population skew put the constant well below
  // 1; the law itself (Θ(k/n)) is verified by the scaling sweep benches.
  EXPECT_GT(r.throughput.lambda, 3e-4 * k_over_n);
  EXPECT_LT(r.throughput.lambda, k_over_n);
}

// ------------------------------------------- generalized model (L > 0) --

TEST(SchemeC, AntennasLiftThroughputWhenWiresAllow) {
  // Same sampled instance, fat wires (ϕ = 0.4): l = n^0.25 antennas
  // multiply each cell's TDMA row, so λ must strictly rise — and by no
  // more than the antenna count.
  auto p = trivial_params(8192);
  p.phi = 0.4;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 15);
  SchemeC c;
  auto single = c.evaluate(net, traffic_for(net));
  auto q = p;
  q.L = 0.25;
  auto net_l = net::Network::build(q, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kClusterGrid, 15);
  auto multi = c.evaluate(net_l, traffic_for(net_l));
  EXPECT_GT(multi.throughput.lambda, single.throughput.lambda);
  EXPECT_LE(multi.throughput.lambda,
            static_cast<double>(q.l()) * single.throughput.lambda * 1.0001);
  EXPECT_GT(multi.lambda_symmetric, single.lambda_symmetric);
}

TEST(SchemeC, AntennaGainCappedByMeanCellPopulation) {
  // The cell rows are duty·min(l, pop): once l exceeds a cell's population
  // the row saturates, so the symmetric estimate's gain over L = 0 is
  // bounded by the mean population, not by l.
  auto p = trivial_params(8192);
  p.phi = 0.5;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 16);
  SchemeC c;
  auto single = c.evaluate(net, traffic_for(net));
  auto q = p;
  q.L = 0.4;  // l = n^0.4 ≈ 36.7 vs mean population n^0.4 — saturating
  auto net_l = net::Network::build(q, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kClusterGrid, 16);
  auto multi = c.evaluate(net_l, traffic_for(net_l));
  EXPECT_GT(multi.lambda_symmetric, single.lambda_symmetric);
  EXPECT_LE(multi.lambda_symmetric,
            single.lambda_symmetric * single.mean_cell_population * 1.0001);
}

TEST(SchemeB, AntennasWidenBsAggregateRows) {
  // Scheme B's per-BS aggregate access rows are capped at l·(bandwidth
  // share); with more antennas λ must not drop, and the L = 0 build must
  // be identical to the legacy single-antenna evaluation.
  auto p = strong_with_bs(4096, 0.6, 0.0);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 17);
  SchemeB b;
  auto dest = traffic_for(net);
  auto single = b.evaluate(net, dest);
  auto q = p;
  q.L = 0.3;
  auto net_l = net::Network::build(q, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kClusteredMatched, 17);
  auto multi = b.evaluate(net_l, traffic_for(net_l));
  EXPECT_GE(multi.throughput.lambda, single.throughput.lambda);
  // The honest finding of this reproduction: scheme B's access is capped
  // by the per-MS meeting rate (Lemma 9), so antennas give at most a
  // constant — not an order — improvement. Bound the gain generously.
  EXPECT_LE(multi.throughput.lambda, 10.0 * single.throughput.lambda);
}

// ------------------------------------------------------------- two-hop --

TEST(TwoHop, ConstantThroughputUnderFullMixing) {
  // f = Θ(1), uniform home-points: the Grossglauser–Tse Θ(1) regime.
  TwoHopRelay th;
  std::vector<double> lambdas;
  for (std::size_t n : {1024u, 4096u}) {
    auto net = net::Network::build(strong_no_bs(n, /*alpha=*/0.0),
                                   mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kUniform, 15);
    auto r = th.evaluate(net, traffic_for(net));
    EXPECT_EQ(r.disconnected_flows, 0u);
    ASSERT_GT(r.throughput.lambda, 0.0);
    lambdas.push_back(r.throughput.lambda);
  }
  // Θ(1): no more than 2× drift over a 4× size change.
  EXPECT_LT(std::abs(std::log(lambdas[0] / lambdas[1])), std::log(2.0));
}

TEST(TwoHop, RestrictedMobilityDisconnectsDistantFlows) {
  auto net = net::Network::build(strong_no_bs(2048, /*alpha=*/0.4),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 16);
  TwoHopRelay th;
  auto r = th.evaluate(net, traffic_for(net));
  // Most source–destination pairs are Θ(1) apart with mobility radius
  // n^−0.4 ≈ 0.047: no common relay exists.
  EXPECT_GT(r.disconnected_flows, net.num_ms() / 2);
  EXPECT_DOUBLE_EQ(r.throughput.lambda, 0.0);
}

// ------------------------------------------------------------ L-max-hop --

TEST(LMaxHop, ZeroHopsRoutesEverythingViaInfrastructure) {
  auto net = net::Network::build(strong_with_bs(4096),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 31);
  auto dest = traffic_for(net);
  LMaxHop scheme(0);
  auto r = scheme.evaluate(net, dest);
  // Only same-squarelet flows stay ad hoc at L = 0.
  EXPECT_LT(r.short_flows, net.num_ms() / 10);
  EXPECT_GT(r.long_flows, net.num_ms() * 9 / 10);
  EXPECT_GT(r.lambda_symmetric, 0.0);
}

TEST(LMaxHop, HugeLIsPureAdhoc) {
  auto net = net::Network::build(strong_with_bs(4096),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 32);
  auto dest = traffic_for(net);
  LMaxHop scheme(1000);
  auto r = scheme.evaluate(net, dest);
  EXPECT_EQ(r.long_flows, 0u);
  EXPECT_EQ(r.short_flows, net.num_ms());
  EXPECT_GT(r.lambda_symmetric, 0.0);
  EXPECT_DOUBLE_EQ(r.lambda_infra_class, 0.0);
}

TEST(LMaxHop, ClassCountsPartitionFlows) {
  auto net = net::Network::build(strong_with_bs(2048),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 33);
  auto dest = traffic_for(net);
  for (int L : {1, 3, 7}) {
    LMaxHop scheme(L);
    auto r = scheme.evaluate(net, dest);
    EXPECT_EQ(r.short_flows + r.long_flows, net.num_ms()) << "L=" << L;
  }
}

TEST(LMaxHop, ShortFlowCountGrowsWithL) {
  auto net = net::Network::build(strong_with_bs(2048),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 34);
  auto dest = traffic_for(net);
  std::size_t prev = 0;
  for (int L : {0, 2, 4, 8}) {
    LMaxHop scheme(L);
    auto r = scheme.evaluate(net, dest);
    EXPECT_GE(r.short_flows, prev);
    prev = r.short_flows;
  }
}

TEST(LMaxHop, DegenerateGridFallsBackToInfrastructure) {
  net::ScalingParams p;
  p.n = 256;
  p.alpha = 0.05;  // mobility covers the torus: no multihop grid
  p.with_bs = true;
  p.K = 0.7;
  p.M = 1.0;
  p.phi = 0.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 35);
  auto dest = traffic_for(net);
  LMaxHop scheme(4);
  auto r = scheme.evaluate(net, dest);
  EXPECT_TRUE(r.adhoc_degenerate);
  EXPECT_EQ(r.long_flows, net.num_ms());
  EXPECT_GT(r.lambda_symmetric, 0.0);
}

TEST(LMaxHop, InvalidParametersRejected) {
  EXPECT_THROW(LMaxHop(-1), manetcap::CheckError);
  EXPECT_THROW(LMaxHop(2, 0.0), manetcap::CheckError);
  EXPECT_THROW(LMaxHop(2, 1.0), manetcap::CheckError);
}

// -------------------------------------------- flow masks on schemes A/B --

TEST(FlowMask, SchemeAPartialMaskRaisesPerFlowRate) {
  auto net = net::Network::build(strong_no_bs(2048),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 36);
  auto dest = traffic_for(net);
  // Include only a quarter of the flows: λ per included flow must be at
  // least the all-flows λ (strictly less contention).
  std::vector<bool> mask(net.num_ms(), false);
  for (std::size_t s = 0; s < net.num_ms(); s += 4) mask[s] = true;
  SchemeA a;
  const auto all = a.evaluate(net, dest);
  const auto part = a.evaluate(net, dest, &mask);
  ASSERT_FALSE(all.degenerate);
  EXPECT_GE(part.lambda_symmetric, all.lambda_symmetric);
}

TEST(FlowMask, SchemeBHalvedBandwidthHalvesAccess) {
  auto net = net::Network::build(strong_with_bs(4096),
                                 mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 37);
  auto dest = traffic_for(net);
  SchemeB b;
  const auto full = b.evaluate(net, dest);
  const auto half = b.evaluate(net, dest, nullptr, 0.5);
  EXPECT_NEAR(half.mean_access_rate, full.mean_access_rate / 2.0,
              0.05 * full.mean_access_rate);
}

// ------------------------------------------------------ static multihop --

TEST(StaticMultihop, UniformLayoutGuptaKumarShape) {
  StaticMultihop sm;
  std::vector<double> lambdas;
  std::vector<double> ns;
  for (std::size_t n : {2048u, 8192u, 32768u}) {
    auto net = net::Network::build(strong_no_bs(n, /*alpha=*/0.2),
                                   mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kUniform, 17);
    auto r = sm.evaluate(net, traffic_for(net));
    ASSERT_TRUE(r.connected) << "n=" << n;
    ASSERT_GT(r.throughput.lambda, 0.0);
    lambdas.push_back(r.throughput.lambda);
    ns.push_back(static_cast<double>(n));
  }
  // λ ~ 1/(n·R_T) ~ n^{-1/2} up to logs: the 16× size change should cut
  // λ by roughly 4 (allow [2.5, 8]).
  const double drop = lambdas.front() / lambdas.back();
  EXPECT_GT(drop, 2.5);
  EXPECT_LT(drop, 10.0);
}

TEST(StaticMultihop, ClusteredVariantConnectsViaClusterGraph) {
  auto p = weak_params(8192);
  p.with_bs = false;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 18);
  StaticMultihop sm;
  auto r = sm.evaluate(net, traffic_for(net));
  EXPECT_GT(r.transmission_range, 0.0);
  EXPECT_GT(r.throughput.lambda, 0.0);
  EXPECT_TRUE(r.connected);
  EXPECT_LT(r.mean_duty_cycle, 1.0);
}

TEST(StaticMultihop, ClusteredSlowerThanStrongMobility) {
  // Remark 13: the no-BS clustered capacity is strictly below Θ(1/f).
  auto p = weak_params(8192);
  p.with_bs = false;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 19);
  StaticMultihop sm;
  auto r = sm.evaluate(net, traffic_for(net));
  EXPECT_LT(r.throughput.lambda, 1.0 / p.f());
}

}  // namespace
}  // namespace manetcap::routing
