#include <gtest/gtest.h>

#include <cmath>

#include "capacity/cutset.h"
#include "capacity/phase_diagram.h"
#include "capacity/recommend.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "routing/scheme_a.h"
#include "routing/scheme_b.h"
#include "rng/rng.h"
#include "util/check.h"

namespace manetcap::capacity {
namespace {

net::ScalingParams strong_params(std::size_t n, bool with_bs) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = 0.3;
  p.with_bs = with_bs;
  p.K = 0.7;
  p.M = 1.0;
  p.phi = 0.0;
  return p;
}

// ---------------------------------------------------------------- cutset --

TEST(CutSet, CrossingFlowsCountedCorrectly) {
  auto p = strong_params(1024, false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 1);
  rng::Xoshiro256 g(2);
  auto dest = net::permutation_traffic(p.n, g);
  auto cut = evaluate_strip_cut(net, dest, 0.0);
  // About half the torus is interior; about half of interior sources have
  // exterior destinations → ~n/4 crossing flows.
  EXPECT_GT(cut.crossing_flows, p.n / 8);
  EXPECT_LT(cut.crossing_flows, p.n / 2);
}

TEST(CutSet, WirelessCapacityPositiveAndLocal) {
  auto p = strong_params(2048, false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 3);
  rng::Xoshiro256 g(4);
  auto dest = net::permutation_traffic(p.n, g);
  auto cut = evaluate_strip_cut(net, dest, 0.25);
  EXPECT_GT(cut.wireless_capacity, 0.0);
  EXPECT_DOUBLE_EQ(cut.wired_capacity, 0.0);  // no BSs
  EXPECT_TRUE(std::isfinite(cut.lambda_bound()));
}

TEST(CutSet, UpperBoundsSchemeAThroughput) {
  // The whole point of Lemma 6: no scheme can beat the cut.
  auto p = strong_params(4096, false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 5);
  rng::Xoshiro256 g(6);
  auto dest = net::permutation_traffic(p.n, g);
  routing::SchemeA a;
  const double achieved = a.evaluate(net, dest).throughput.lambda;
  const auto cut = best_strip_cut(net, dest, 8);
  EXPECT_GE(cut.lambda_bound(), achieved);
}

TEST(CutSet, UpperBoundsSchemeBThroughput) {
  auto p = strong_params(4096, true);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 7);
  rng::Xoshiro256 g(8);
  auto dest = net::permutation_traffic(p.n, g);
  routing::SchemeB b;
  const double achieved = b.evaluate(net, dest).throughput.lambda;
  const auto cut = best_strip_cut(net, dest, 8);
  EXPECT_GE(cut.lambda_bound(), achieved);
  EXPECT_GT(cut.wired_capacity, 0.0);
}

TEST(CutSet, WiredTermScalesAsKSquaredC) {
  // k_I·k_E·c ≈ (k/2)²·c — the Lemma 7 numerator.
  auto p = strong_params(4096, true);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kRegularGrid, 9);
  rng::Xoshiro256 g(10);
  auto dest = net::permutation_traffic(p.n, g);
  auto cut = evaluate_strip_cut(net, dest, 0.0);
  const double k = static_cast<double>(p.k());
  EXPECT_NEAR(cut.wired_capacity, k * k / 4.0 * p.c(),
              0.15 * k * k / 4.0 * p.c());
}

TEST(CutSet, BoundTracksOneOverF) {
  // For the no-BS case the best cut bound scales like Θ(1/f) — the Lemma 4
  // upper bound; check the decay across a 16× size change.
  std::vector<double> bounds;
  for (std::size_t n : {2048u, 32768u}) {
    auto p = strong_params(n, false);
    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kUniform, 11);
    rng::Xoshiro256 g(12);
    auto dest = net::permutation_traffic(p.n, g);
    bounds.push_back(best_strip_cut(net, dest, 4).lambda_bound());
  }
  const double drop = bounds[0] / bounds[1];
  // 16^0.3 ≈ 2.3; allow [1.5, 4].
  EXPECT_GT(drop, 1.5);
  EXPECT_LT(drop, 4.0);
}

TEST(CutSet, EmptyCutIsUnbounded) {
  // Two nodes whose flow does not cross the cut → bound is +inf.
  auto p = strong_params(64, false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 13);
  std::vector<std::uint32_t> dest(p.n);
  // Self-contained permutation: pair up neighbors (0↔1, 2↔3, …) — flows
  // may or may not cross any given cut, but with x0 chosen adversarially
  // at least verify the API contract on the zero-crossing case.
  for (std::uint32_t i = 0; i < p.n; i += 2) {
    dest[i] = i + 1;
    dest[i + 1] = i;
  }
  CutBound cut;
  EXPECT_TRUE(std::isinf(cut.lambda_bound()));  // default: no crossings
}

// ------------------------------------------------------- hop-count bound --

TEST(HopCount, BoundsSchemeAFromAbove) {
  auto p = strong_params(4096, false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 21);
  rng::Xoshiro256 g(22);
  auto dest = net::permutation_traffic(p.n, g);
  routing::SchemeA a;
  const double achieved = a.evaluate(net, dest).throughput.lambda;
  const auto bound = hop_count_bound(net, dest);
  EXPECT_GE(bound.lambda_bound(), achieved);
  EXPECT_GT(bound.total_min_hops, static_cast<double>(p.n));  // >1 hop avg
}

TEST(HopCount, ScalesAsOneOverF) {
  // budget ~ n·p, Σhops ~ n·f ⇒ bound ~ 1/f: check decay over 16×.
  std::vector<double> bounds;
  for (std::size_t n : {2048u, 32768u}) {
    auto p = strong_params(n, false);
    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kUniform, 23);
    rng::Xoshiro256 g(24);
    auto dest = net::permutation_traffic(p.n, g);
    bounds.push_back(hop_count_bound(net, dest).lambda_bound());
  }
  const double drop = bounds[0] / bounds[1];
  EXPECT_GT(drop, 1.5);  // 16^0.3 ≈ 2.3
  EXPECT_LT(drop, 4.0);
}

TEST(HopCount, MinimumOneHopPerFlow) {
  auto p = strong_params(64, false);
  p.alpha = 0.0;  // mobility covers the torus: every flow needs ≥ 1 hop
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 25);
  rng::Xoshiro256 g(26);
  auto dest = net::permutation_traffic(p.n, g);
  const auto bound = hop_count_bound(net, dest);
  EXPECT_DOUBLE_EQ(bound.total_min_hops, 64.0);
}

// ------------------------------------------------------------- recommend --

TEST(Recommend, PhiZeroIsTheBalance) {
  // Single-antenna BSs (L = 0): µ_c = Θ(1) for every K ≤ 1.
  for (double K : {0.0, 0.3, 0.7, 1.0})
    EXPECT_DOUBLE_EQ(recommended_phi(0.0, K), 0.0) << "K=" << K;
}

TEST(Recommend, RequiredKInvertsTheLaw) {
  // Target λ = Θ(n^{-0.3}) at ϕ = 0 needs K = 0.7.
  EXPECT_DOUBLE_EQ(required_K(-0.3, 0.0, 0.0), 0.7);
  // Thin wires (ϕ = −0.2) must be compensated with more BSs.
  EXPECT_DOUBLE_EQ(required_K(-0.3, -0.2, 0.0), 0.9);
  // Fat wires don't reduce the BS count (access-limited).
  EXPECT_DOUBLE_EQ(required_K(-0.3, 0.5, 0.0), 0.7);
  EXPECT_THROW(required_K(0.1, 0.0, 0.0), manetcap::CheckError);
}

TEST(Recommend, WorthwhileKMatchesPhaseBoundary) {
  EXPECT_DOUBLE_EQ(dominance_boundary_K(0.3, 0.0, 0.0), 0.7);
  EXPECT_DOUBLE_EQ(dominance_boundary_K(0.3, -0.5, 0.0), 1.2);
  EXPECT_TRUE(infrastructure_improves(0.3, 0.8, 0.0, 0.0));
  EXPECT_FALSE(infrastructure_improves(0.3, 0.6, 0.0, 0.0));
}

TEST(Recommend, WiredBandwidthRealizesPhi) {
  net::ScalingParams p;
  p.n = 10000;
  p.with_bs = true;
  p.K = 0.5;
  const double c = wired_bandwidth_for_phi(p, 0.0);
  EXPECT_NEAR(c * static_cast<double>(p.k()), 1.0, 1e-9);
  const double c2 = wired_bandwidth_for_phi(p, 0.5);
  EXPECT_NEAR(c2 * static_cast<double>(p.k()), 100.0, 1e-9);
}

// Satellite bugfix: n^ϕ can silently overflow to inf or underflow into
// denormals for extreme ϕ; both must trip a named CHECK instead of
// propagating into wired-credit budgets.
TEST(Recommend, WiredBandwidthChecksOverflowAndDenormals) {
  net::ScalingParams p;
  p.n = 1000000;
  p.with_bs = true;
  p.K = 0.5;
  // 10^(6·60) = 10^360 overflows double (max ~1.8e308).
  EXPECT_THROW(wired_bandwidth_for_phi(p, 60.0), manetcap::CheckError);
  // 10^(−6·52)/k = 10^−315 is a denormal (double normal min ~2.2e-308).
  EXPECT_THROW(wired_bandwidth_for_phi(p, -52.0), manetcap::CheckError);
  // A representable but tiny value still passes.
  EXPECT_GT(wired_bandwidth_for_phi(p, -40.0), 0.0);
}

TEST(Recommend, GeneralizedPhiAndAntennaRules) {
  // ϕ* = min(L, 1 − K): backhaul beyond what antennas can radiate or the
  // saturation cap allows is pure waste.
  EXPECT_DOUBLE_EQ(recommended_phi(0.0, 0.7), 0.0);  // legacy at L = 0
  EXPECT_DOUBLE_EQ(recommended_phi(0.2, 0.7), 0.2);
  EXPECT_DOUBLE_EQ(recommended_phi(0.5, 0.7), 0.3);  // capped at 1 − K
  // L* = max(0, min(ϕ, 1 − K)): antennas beyond the backbone or the cap
  // are useless; a starved backbone (ϕ ≤ 0) already wants l = 1.
  EXPECT_DOUBLE_EQ(recommended_L(-0.4, 0.7), 0.0);
  EXPECT_DOUBLE_EQ(recommended_L(0.2, 0.7), 0.2);
  EXPECT_DOUBLE_EQ(recommended_L(0.5, 0.7), 0.3);
}

TEST(Recommend, GeneralizedRequiredKAndBoundary) {
  // L lets wires substitute for BSs: target −0.1 at ϕ = 0.3, L = 0.3 needs
  // K = −0.1 + 1 − 0.3 = 0.6 instead of 0.9 at L = 0.
  EXPECT_DOUBLE_EQ(required_K(-0.1, 0.3, 0.0), 0.9);
  EXPECT_DOUBLE_EQ(required_K(-0.1, 0.3, 0.3), 0.6);
  EXPECT_DOUBLE_EQ(dominance_boundary_K(0.3, 0.4, 0.2), 0.5);
  EXPECT_TRUE(infrastructure_improves(0.3, 0.6, 0.4, 0.2));
  EXPECT_FALSE(infrastructure_improves(0.3, 0.6, 0.4, 0.0));
  // At the exact boundary K the exponents tie and "improves" must be
  // false — consistent with required_K inverting to the same K.
  const double Kb = dominance_boundary_K(0.25, 0.0, 0.0);
  EXPECT_FALSE(infrastructure_improves(0.25, Kb, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(required_K(-0.25, 0.0, 0.0), Kb);
}

TEST(Recommend, BsCostModelDollarsAndExponents) {
  // Exponent: K + max(0, L, ϕ) — the dominant per-BS line item times k.
  EXPECT_DOUBLE_EQ(bs_cost_exponent(0.6, -0.4, 0.0), 0.6);  // fixed cost
  EXPECT_DOUBLE_EQ(bs_cost_exponent(0.6, 0.4, 0.2), 1.0);   // backhaul
  EXPECT_DOUBLE_EQ(bs_cost_exponent(0.6, 0.1, 0.3), 0.9);   // antennas
  // Per-dollar = capacity exponent − cost exponent; starved wires waste
  // the whole BS budget, so the per-dollar frontier peaks at ϕ = L.
  EXPECT_DOUBLE_EQ(capacity_per_dollar_exponent(0.75, 0.6, 0.4, 0.4),
                   0.0 - 1.0);
  EXPECT_LT(capacity_per_dollar_exponent(0.75, 0.6, -0.4, 0.4),
            capacity_per_dollar_exponent(0.75, 0.6, 0.0, 0.0));

  net::ScalingParams p;
  p.n = 10000;
  p.with_bs = true;
  p.K = 0.5;
  p.phi = 0.5;
  p.L = 0.25;
  BsCostModel cost;
  cost.fixed = 2.0;
  cost.per_antenna = 3.0;
  cost.per_backhaul = 5.0;
  // k = 100, l = 10, µ_c = 100: 100·(2 + 3·10 + 5·100) = 53200.
  EXPECT_NEAR(bs_dollars(p, cost), 53200.0, 1e-6);
}

}  // namespace
}  // namespace manetcap::capacity
