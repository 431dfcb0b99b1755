#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "capacity/formulas.h"
#include "capacity/phase_diagram.h"
#include "capacity/recommend.h"
#include "capacity/regimes.h"
#include "util/check.h"

namespace manetcap::capacity {
namespace {

net::ScalingParams params(double alpha, double M, double R, bool with_bs,
                          double K = 0.7, double phi = 0.0,
                          std::size_t n = 4096) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = alpha;
  p.M = M;
  p.R = R;
  p.with_bs = with_bs;
  p.K = K;
  p.phi = phi;
  return p;
}

// -------------------------------------------------------------- regimes --

TEST(Regimes, UniformLayoutWithModerateAlphaIsStrong) {
  // m = n ⇒ f√γ ~ n^(α−1/2): strong for all α < 1/2.
  EXPECT_EQ(classify_exponents(0.3, 1.0, 0.0), MobilityRegime::kStrong);
  EXPECT_EQ(classify_exponents(0.49, 1.0, 0.0), MobilityRegime::kStrong);
}

TEST(Regimes, BoundaryAlphaHalfIsNotStrong) {
  // α = 1/2, M = 1: f√γ = √log n = ω(1) → not strong.
  EXPECT_NE(classify_exponents(0.5, 1.0, 0.0), MobilityRegime::kStrong);
}

TEST(Regimes, HeavyClusteringWeakensMobility) {
  // α = 0.45, M = 0.3: α − M/2 = 0.3 > 0 → not strong.
  // Trivial statistic: α − R − (1−M)/2 = 0.45 − 0.4 − 0.35 < 0 → weak.
  EXPECT_EQ(classify_exponents(0.45, 0.3, 0.4), MobilityRegime::kWeak);
}

TEST(Regimes, TrivialWhenMobilityTinyVsClusterScale) {
  // α = 0.5, M = 0.2, R = 0.0: trivial statistic 0.5 − 0 − 0.4 = 0.1 > 0.
  EXPECT_EQ(classify_exponents(0.5, 0.2, 0.0), MobilityRegime::kTrivial);
}

TEST(Regimes, StatisticsMatchConcreteValues) {
  auto p = params(0.45, 0.3, 0.4, true, 0.6);
  const double m = static_cast<double>(p.m());
  EXPECT_NEAR(f_sqrt_gamma(p), p.f() * std::sqrt(std::log(m) / m), 1e-9);
  EXPECT_NEAR(f_sqrt_gamma_tilde(p), p.f() * std::sqrt(p.gamma_tilde()),
              1e-9);
}

TEST(Regimes, FiniteNStatisticsAgreeWithExponentClassification) {
  // Deep in the strong regime the finite-n statistic is ≪ 1; deep in the
  // trivial regime it is ≫ 1.
  auto strong = params(0.2, 1.0, 0.0, true);
  strong.n = 100000;
  EXPECT_LT(f_sqrt_gamma(strong), 0.3);
  auto trivial = params(0.5, 0.2, 0.0, true);
  trivial.n = 100000;
  EXPECT_GT(f_sqrt_gamma_tilde(trivial), 3.0);
}

TEST(Regimes, Names) {
  EXPECT_EQ(to_string(MobilityRegime::kStrong), "strong");
  EXPECT_EQ(to_string(MobilityRegime::kWeak), "weak");
  EXPECT_EQ(to_string(MobilityRegime::kTrivial), "trivial");
}

// ------------------------------------------------------------- formulas --

TEST(Formulas, MobilityExponent) {
  EXPECT_DOUBLE_EQ(mobility_exponent(0.0), 0.0);
  EXPECT_DOUBLE_EQ(mobility_exponent(0.35), -0.35);
}

TEST(Formulas, InfrastructureExponentSwitchesAtPhiZero) {
  // Single-antenna BSs (L = 0). ϕ ≥ 0: access-limited k/n → K − 1.
  EXPECT_DOUBLE_EQ(infrastructure_exponent(0.7, 0.0, 0.0), -0.3);
  EXPECT_DOUBLE_EQ(infrastructure_exponent(0.7, 0.5, 0.0), -0.3);
  // ϕ < 0: backbone-limited k²c/n → K + ϕ − 1.
  EXPECT_DOUBLE_EQ(infrastructure_exponent(0.7, -0.5, 0.0), -0.8);
  EXPECT_EQ(infrastructure_bottleneck(0.7, -0.1, 0.0),
            InfraBottleneck::kBackbone);
  EXPECT_NE(infrastructure_bottleneck(0.7, 0.0, 0.0),
            InfraBottleneck::kBackbone);
}

// The paper's single-antenna law, written out here, is the generalized law
// at L = 0 bit for bit on a grid covering K ∈ [0, 1] and ϕ ∈ [−1, 1].
TEST(Formulas, SingleAntennaLawIsGeneralizedLawAtLZero) {
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (int i = 0; i <= 100; ++i) {
    const double K = i / 100.0;
    for (int j = -100; j <= 100; ++j) {
      const double phi = j / 100.0;
      EXPECT_TRUE(same_bits(infrastructure_exponent(K, phi, 0.0),
                            K + std::min(phi, 0.0) - 1.0))
          << "K=" << K << " phi=" << phi;
      // K doubles as α ∈ [0, 1] and −K as the target exponent e ≤ 0.
      EXPECT_TRUE(same_bits(dominance_boundary_K(K, phi, 0.0),
                            1.0 - K - std::min(phi, 0.0)))
          << "alpha=" << K << " phi=" << phi;
      EXPECT_TRUE(same_bits(required_K(-K, phi, 0.0),
                            -K + 1.0 - std::min(phi, 0.0)))
          << "e=" << -K << " phi=" << phi;
    }
  }
}

TEST(Formulas, MobilityDominance) {
  // α = 0.2 vs K = 0.7, ϕ = 0: infra −0.3 < mobility −0.2 → mobility wins.
  EXPECT_TRUE(mobility_dominant(0.2, 0.7, 0.0, 0.0));
  // K = 0.9: infra −0.1 > −0.2 → infrastructure wins.
  EXPECT_FALSE(mobility_dominant(0.2, 0.9, 0.0, 0.0));
}

TEST(Formulas, StrongRegimeLawCombinesBothTerms) {
  auto law = capacity_law(params(0.3, 1.0, 0.0, true, 0.9, 0.0));
  EXPECT_EQ(law.regime, MobilityRegime::kStrong);
  EXPECT_DOUBLE_EQ(law.exponent, std::max(-0.3, 0.9 - 1.0));
  EXPECT_DOUBLE_EQ(law.rt_exponent, -0.5);
}

TEST(Formulas, StrongRegimeNoBs) {
  auto law = capacity_law(params(0.3, 1.0, 0.0, false));
  EXPECT_DOUBLE_EQ(law.exponent, -0.3);
  EXPECT_EQ(law.expression, "Th(1/f)");
}

TEST(Formulas, WeakRegimeWithBs) {
  auto law = capacity_law(params(0.45, 0.3, 0.4, true, 0.6, 0.0));
  EXPECT_EQ(law.regime, MobilityRegime::kWeak);
  EXPECT_DOUBLE_EQ(law.exponent, 0.6 - 1.0);
  // R_T = r√(m/n) ⇒ exponent −R + (M−1)/2 = −0.4 − 0.35 = −0.75.
  EXPECT_NEAR(law.rt_exponent, -0.75, 1e-12);
}

TEST(Formulas, WeakRegimeNoBsIsClusteredLaw) {
  auto law = capacity_law(params(0.45, 0.3, 0.4, false));
  EXPECT_DOUBLE_EQ(law.exponent, 0.3 / 2.0 - 1.0);
  EXPECT_NEAR(law.rt_exponent, -0.15, 1e-12);
}

TEST(Formulas, TrivialRegimeWithBs) {
  auto law = capacity_law(params(0.5, 0.2, 0.0, true, 0.6, -0.5));
  EXPECT_EQ(law.regime, MobilityRegime::kTrivial);
  EXPECT_DOUBLE_EQ(law.exponent, 0.6 - 0.5 - 1.0);
  // R_T = r√(m/k) ⇒ −R + (M−K)/2 = 0 + (0.2−0.6)/2 = −0.2.
  EXPECT_NEAR(law.rt_exponent, -0.2, 1e-12);
}

TEST(Formulas, GeneralizedInfrastructureExponent) {
  // Antenna branch binds: K+L = 0.8 < K+ϕ = 1.0 < 1.
  EXPECT_DOUBLE_EQ(infrastructure_exponent(0.6, 0.4, 0.2), -0.2);
  // Backbone branch binds: K+ϕ = 0.2 smallest.
  EXPECT_DOUBLE_EQ(infrastructure_exponent(0.6, -0.4, 0.2), -0.8);
  // Saturation: K+L = 1.4 and K+ϕ = 1.3 both exceed 1 → exponent 0.
  EXPECT_DOUBLE_EQ(infrastructure_exponent(0.9, 0.4, 0.5), 0.0);
}

TEST(Formulas, InfrastructureBottleneckBranches) {
  EXPECT_EQ(infrastructure_bottleneck(0.6, -0.4, 0.2),
            InfraBottleneck::kBackbone);
  EXPECT_EQ(infrastructure_bottleneck(0.6, 0.4, 0.2),
            InfraBottleneck::kAntenna);
  EXPECT_EQ(infrastructure_bottleneck(0.9, 0.4, 0.5),
            InfraBottleneck::kSaturated);
  // Tie K+L == K+ϕ prefers the antenna branch (at L = 0 this is the
  // paper's "ϕ ≥ 0 ⇒ access-limited" convention).
  EXPECT_EQ(infrastructure_bottleneck(0.6, 0.0, 0.0),
            InfraBottleneck::kAntenna);
  EXPECT_EQ(infrastructure_bottleneck(0.6, 0.2, 0.2),
            InfraBottleneck::kAntenna);
  EXPECT_EQ(to_string(InfraBottleneck::kBackbone), "backbone");
}

// Satellite bugfix regression: in the weak/trivial regimes with BSs the
// law must be max(infrastructure, clustered no-BS) — BSs can always be
// ignored, so they never make the order capacity worse. Pre-fix the
// with-BS branch returned the infrastructure exponent alone, so these two
// points reported a *lower* exponent with BSs than without.
TEST(Formulas, WithBsNeverWorseThanIgnoringBs) {
  // Weak regime, tiny-K infrastructure: infra = 0.4 − 0.3 − 1 = −0.9
  // but the clustered no-BS scheme achieves M/2 − 1 = −0.85.
  auto weak = params(0.45, 0.3, 0.4, true, 0.4, -0.3);
  auto weak_law = capacity_law(weak);
  ASSERT_EQ(weak_law.regime, MobilityRegime::kWeak);
  EXPECT_DOUBLE_EQ(weak_law.exponent, -0.85);
  EXPECT_EQ(weak_law.expression, "Th(sqrt(m/(n^2 log m)))");
  EXPECT_NEAR(weak_law.rt_exponent, -0.15, 1e-12);
  auto weak_no_bs = weak;
  weak_no_bs.with_bs = false;
  EXPECT_GE(weak_law.exponent, capacity_law(weak_no_bs).exponent);

  // Trivial regime, starved backbone: infra = 0.6 − 0.8 − 1 = −1.2 vs
  // clustered 0.2/2 − 1 = −0.9.
  auto triv = params(0.75, 0.2, 0.3, true, 0.6, -0.8);
  auto triv_law = capacity_law(triv);
  ASSERT_EQ(triv_law.regime, MobilityRegime::kTrivial);
  EXPECT_DOUBLE_EQ(triv_law.exponent, -0.9);

  // The property, over a grid: adding BSs never lowers the exponent.
  for (double alpha : {0.45, 0.75})
    for (double K : {0.1, 0.5, 0.9})
      for (double phi : {-0.8, 0.0, 0.4})
        for (double L : {0.0, 0.3}) {
          auto with = params(alpha, 0.3, 0.4, true, K, phi);
          with.L = L;
          auto without = with;
          without.with_bs = false;
          EXPECT_GE(capacity_law(with).exponent,
                    capacity_law(without).exponent)
              << "alpha=" << alpha << " K=" << K << " phi=" << phi
              << " L=" << L;
        }
}

TEST(Formulas, ExactTieKeepsInfrastructureRow) {
  // K + ϕ = 0.5 − 0.25 and M/2 = 0.5/2 are both exactly 0.25 in binary, so
  // infra == clustered == −0.75 bit-for-bit: the infra row (with its R_T)
  // wins ties and the reported law stays the BS scheme.
  auto law = capacity_law(params(0.375, 0.5, 0.25, true, 0.5, -0.25));
  ASSERT_EQ(law.regime, MobilityRegime::kWeak);
  EXPECT_DOUBLE_EQ(law.exponent, -0.75);
  EXPECT_EQ(law.expression, "Th(min(k^2 c/n, k/n))");
}

TEST(Formulas, AntennasLiftTrivialRegimeLaw) {
  auto single = params(0.75, 0.2, 0.3, true, 0.6, 0.4);
  auto multi = single;
  multi.L = 0.2;
  auto law0 = capacity_law(single);
  auto law1 = capacity_law(multi);
  ASSERT_EQ(law1.regime, MobilityRegime::kTrivial);
  EXPECT_DOUBLE_EQ(law0.exponent, -0.4);
  EXPECT_DOUBLE_EQ(law1.exponent, -0.2);
  EXPECT_EQ(law1.expression, "Th(min(k l/n, k^2 c/n, 1))");
  // With a starved backbone the antennas cannot lift anything.
  auto starved = multi;
  starved.phi = -0.4;
  EXPECT_DOUBLE_EQ(capacity_law(starved).exponent, -0.8);
}

TEST(Formulas, GeneralizedMobilityDominance) {
  // α = 0.25 vs K = 0.6, ϕ = 0.4: single-antenna infra −0.4 loses, two
  // antenna decades L = 0.3 push the access branch to −0.1 and win.
  EXPECT_TRUE(mobility_dominant(0.25, 0.6, 0.4, 0.0));
  EXPECT_FALSE(mobility_dominant(0.25, 0.6, 0.4, 0.3));
  // L cannot help through a starved backbone.
  EXPECT_TRUE(mobility_dominant(0.25, 0.6, -0.4, 0.3));
}

TEST(Formulas, CapacityNeverExceedsConstant) {
  // Per-node capacity exponent can never be positive (W = 1).
  for (double alpha : {0.0, 0.25, 0.5}) {
    for (double K : {0.0, 0.5, 1.0}) {
      for (double phi : {-1.0, 0.0, 1.0}) {
        auto law = capacity_law(params(alpha, 1.0, 0.0, true, K, phi));
        EXPECT_LE(law.exponent, 1e-12)
            << "alpha=" << alpha << " K=" << K << " phi=" << phi;
      }
    }
  }
}

// -------------------------------------------------------- phase diagram --

TEST(PhaseDiagram, GridShapeAndBounds) {
  auto d = compute_phase_diagram(0.0, 0.0, 6, 5);
  EXPECT_EQ(d.grid.size(), 30u);
  EXPECT_DOUBLE_EQ(d.at(0, 0).alpha, 0.0);
  EXPECT_DOUBLE_EQ(d.at(5, 0).alpha, 0.5);
  EXPECT_DOUBLE_EQ(d.at(0, 4).K, 1.0);
}

TEST(PhaseDiagram, FullInfrastructureAlwaysDominatesAtKOne) {
  // K = 1, ϕ ≥ 0: infra exponent 0 ≥ any mobility exponent.
  auto d = compute_phase_diagram(0.0, 0.0, 11, 11);
  for (std::size_t ai = 0; ai < 11; ++ai)
    EXPECT_FALSE(d.at(ai, 10).mobility_dominant);
}

TEST(PhaseDiagram, MobilityDominatesSmallK) {
  auto d = compute_phase_diagram(0.0, 0.0, 11, 11);
  // α = 0.25 (ai=5), K = 0.1 (ki=1): mobility −0.25 > infra −0.9.
  EXPECT_TRUE(d.at(5, 1).mobility_dominant);
}

TEST(PhaseDiagram, BoundaryMatchesFormula) {
  for (double alpha : {0.0, 0.2, 0.4}) {
    for (double phi : {-0.5, 0.0}) {
      const double Kb = dominance_boundary_K(alpha, phi, 0.0);
      EXPECT_DOUBLE_EQ(Kb, 1.0 - alpha - std::min(phi, 0.0));
      // Just above the boundary infra dominates, just below mobility does.
      EXPECT_GE(infrastructure_exponent(Kb + 0.01, phi, 0.0),
                mobility_exponent(alpha));
      EXPECT_LT(infrastructure_exponent(Kb - 0.01, phi, 0.0),
                mobility_exponent(alpha));
    }
  }
}

TEST(PhaseDiagram, NegativePhiShrinksInfrastructureRegion) {
  auto base = compute_phase_diagram(0.0, 0.0, 11, 11);
  auto neg = compute_phase_diagram(-0.5, 0.0, 11, 11);
  std::size_t base_infra = 0, neg_infra = 0;
  for (const auto& p : base.grid)
    if (!p.mobility_dominant) ++base_infra;
  for (const auto& p : neg.grid)
    if (!p.mobility_dominant) ++neg_infra;
  EXPECT_GT(base_infra, neg_infra);
}

TEST(PhaseDiagram, AsciiRenderingHasGridRows) {
  auto d = compute_phase_diagram(0.0, 0.0, 11, 5);
  const std::string art = render_ascii(d);
  EXPECT_NE(art.find('M'), std::string::npos);
  EXPECT_NE(art.find('I'), std::string::npos);
}

// Pins the documented layout contract: grid[ki * alpha_steps + ai] with α
// the fast axis. Consumers (CSV writers, renderers) index the raw vector.
TEST(CapacityPhaseDiagramTest, LayoutIsRowMajor) {
  auto d = compute_phase_diagram(0.0, 0.0, 7, 4);
  ASSERT_EQ(d.grid.size(), 28u);
  for (std::size_t ki = 0; ki < d.k_steps; ++ki)
    for (std::size_t ai = 0; ai < d.alpha_steps; ++ai) {
      const PhasePoint& raw = d.grid[ki * d.alpha_steps + ai];
      EXPECT_DOUBLE_EQ(raw.alpha, d.at(ai, ki).alpha);
      EXPECT_DOUBLE_EQ(raw.K, d.at(ai, ki).K);
      // The axes themselves: α ascends along the fast index, K along the
      // slow one.
      EXPECT_DOUBLE_EQ(raw.alpha, 0.5 * ai / (d.alpha_steps - 1));
      EXPECT_DOUBLE_EQ(raw.K, 1.0 * ki / (d.k_steps - 1));
    }
}

TEST(CapacityPhaseDiagramTest, AtChecksBounds) {
  auto d = compute_phase_diagram(0.0, 0.0, 5, 3);
  EXPECT_THROW(d.at(5, 0), manetcap::CheckError);
  EXPECT_THROW(d.at(0, 3), manetcap::CheckError);
  auto f = compute_frontier_diagram(0.3, 0.7, 5, 3);
  EXPECT_THROW(f.at(5, 0), manetcap::CheckError);
  EXPECT_THROW(f.at(0, 3), manetcap::CheckError);
}

TEST(PhaseDiagram, GeneralizedBoundaryAndReduction) {
  for (double alpha : {0.0, 0.2, 0.4}) {
    for (double phi : {-0.5, 0.0, 0.5}) {
      for (double L : {0.0, 0.3}) {
        const double Kb = dominance_boundary_K(alpha, phi, L);
        EXPECT_DOUBLE_EQ(Kb, 1.0 - alpha - std::min(L, phi));
        if (Kb + 0.01 <= 1.0) {
          EXPECT_GE(infrastructure_exponent(Kb + 0.01, phi, L),
                    mobility_exponent(alpha));
        }
        EXPECT_LT(infrastructure_exponent(Kb - 0.01, phi, L),
                  mobility_exponent(alpha));
      }
    }
  }
}

TEST(PhaseDiagram, AntennasGrowInfrastructureRegion) {
  auto base = compute_phase_diagram(0.5, 0.0, 11, 11);
  auto ant = compute_phase_diagram(0.5, 0.4, 11, 11);
  std::size_t base_infra = 0, ant_infra = 0;
  for (const auto& p : base.grid)
    if (!p.mobility_dominant) ++base_infra;
  for (const auto& p : ant.grid)
    if (!p.mobility_dominant) ++ant_infra;
  EXPECT_GT(ant_infra, base_infra);
}

TEST(FrontierDiagram, GridBottlenecksAndLayout) {
  auto d = compute_frontier_diagram(0.3, 0.7, 5, 3);
  ASSERT_EQ(d.grid.size(), 15u);
  EXPECT_DOUBLE_EQ(d.at(0, 0).phi, -1.0);
  EXPECT_DOUBLE_EQ(d.at(4, 0).phi, 1.0);
  EXPECT_DOUBLE_EQ(d.at(0, 2).L, 1.0);
  // Layout contract: grid[li * phi_steps + pi], ϕ the fast axis.
  for (std::size_t li = 0; li < d.l_steps; ++li)
    for (std::size_t pi = 0; pi < d.phi_steps; ++pi) {
      const FrontierPoint& raw = d.grid[li * d.phi_steps + pi];
      EXPECT_DOUBLE_EQ(raw.phi, d.at(pi, li).phi);
      EXPECT_DOUBLE_EQ(raw.L, d.at(pi, li).L);
    }
  // Starved wires: backbone-limited and mobility-dominant.
  EXPECT_EQ(d.at(0, 2).bottleneck, InfraBottleneck::kBackbone);
  EXPECT_TRUE(d.at(0, 2).mobility_dominant);
  // Fat wires + many antennas: K+L and K+ϕ both > 1 → saturated, λ = Θ(1).
  EXPECT_EQ(d.at(4, 2).bottleneck, InfraBottleneck::kSaturated);
  EXPECT_DOUBLE_EQ(d.at(4, 2).exponent, 0.0);
  // Every point's exponent is max(mobility, infrastructure).
  for (const auto& p : d.grid)
    EXPECT_DOUBLE_EQ(
        p.exponent,
        std::max(mobility_exponent(0.3),
                 infrastructure_exponent(0.7, p.phi, p.L)));
}

TEST(FrontierDiagram, AsciiRenderingShowsBottleneckClasses) {
  auto d = compute_frontier_diagram(0.3, 0.7, 11, 6);
  const std::string art = render_ascii(d);
  EXPECT_NE(art.find('M'), std::string::npos);  // mobility-dominant corner
  EXPECT_NE(art.find('A'), std::string::npos);  // antenna-limited
  EXPECT_NE(art.find('S'), std::string::npos);  // saturated corner
}

}  // namespace
}  // namespace manetcap::capacity
