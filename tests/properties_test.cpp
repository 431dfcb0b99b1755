// Cross-module property tests: invariants that tie the analytic layer, the
// fluid evaluators and the packet simulator together.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "capacity/cutset.h"
#include "capacity/formulas.h"
#include "capacity/phase_diagram.h"
#include "capacity/recommend.h"
#include "linkcap/link_capacity.h"
#include "linkcap/measure.h"
#include "mobility/shape.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/fluid.h"
#include "sim/slotsim.h"
#include "sim/sweep.h"
#include "util/check.h"

namespace manetcap {
namespace {

// ------------------------------------------------- μ-law self-consistency --

struct MuCase {
  mobility::ShapeKind kind;
  double f;
};

// Without a printer gtest names each case after MuCase's 16 raw bytes, 4 of
// them uninitialised padding, so the ctest names changed from run to run.
void PrintTo(const MuCase& c, std::ostream* os) {
  *os << "{" << mobility::to_string(c.kind) << ", f=" << c.f << "}";
}

class MuLawConsistency : public ::testing::TestWithParam<MuCase> {};

TEST_P(MuLawConsistency, MsMsRatioEqualsEtaRatio) {
  const auto [kind, f] = GetParam();
  mobility::Shape shape(kind);
  linkcap::LinkCapacityModel mu(shape, f, 4096);
  const double mu0 = mu.mu_ms_ms(0.0);
  ASSERT_GT(mu0, 0.0);
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double d = frac * 2.0 * shape.support() / f;
    EXPECT_NEAR(mu.mu_ms_ms(d) / mu0,
                shape.eta(f * d) / shape.eta(0.0), 1e-9)
        << "d=" << d;
  }
}

TEST_P(MuLawConsistency, MsBsRatioEqualsDensityRatio) {
  const auto [kind, f] = GetParam();
  mobility::Shape shape(kind);
  linkcap::LinkCapacityModel mu(shape, f, 4096);
  const double mu0 = mu.mu_ms_bs(0.0);
  ASSERT_GT(mu0, 0.0);
  for (double frac : {0.2, 0.5, 0.8}) {
    const double d = frac * shape.support() / f;
    EXPECT_NEAR(mu.mu_ms_bs(d) / mu0,
                shape.density(f * d) / shape.density(0.0), 1e-9);
  }
}

TEST_P(MuLawConsistency, MonteCarloTracksAnalytic) {
  const auto [kind, f] = GetParam();
  mobility::Shape shape(kind);
  linkcap::LinkCapacityModel mu(shape, f, 4096);
  rng::Xoshiro256 g(17);
  const double d = 0.5 * shape.support() / f;
  auto est = linkcap::estimate_meeting_probability(shape, f, d, mu.range(),
                                                   150000, g);
  const double analytic = mu.meeting_probability_ms_ms(d);
  EXPECT_NEAR(est.value, analytic,
              std::max(5.0 * est.stderr_, 0.08 * analytic));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndScales, MuLawConsistency,
    ::testing::Values(MuCase{mobility::ShapeKind::kUniformDisk, 4.0},
                      MuCase{mobility::ShapeKind::kUniformDisk, 16.0},
                      MuCase{mobility::ShapeKind::kTriangular, 4.0},
                      MuCase{mobility::ShapeKind::kTriangular, 16.0},
                      MuCase{mobility::ShapeKind::kQuadratic, 8.0}));

// ------------------------------------------------ fluid-evaluator sanity --

class FluidInvariants
    : public ::testing::TestWithParam<capacity::MobilityRegime> {};

TEST_P(FluidInvariants, SymmetricAtLeastStrict) {
  net::ScalingParams p;
  switch (GetParam()) {
    case capacity::MobilityRegime::kStrong:
      p.n = 4096;
      p.alpha = 0.3;
      p.with_bs = true;
      p.K = 0.7;
      p.M = 1.0;
      break;
    case capacity::MobilityRegime::kWeak:
      p.n = 4096;
      p.alpha = 0.45;
      p.with_bs = true;
      p.K = 0.6;
      p.M = 0.3;
      p.R = 0.4;
      break;
    case capacity::MobilityRegime::kTrivial:
      p.n = 4096;
      p.alpha = 0.75;
      p.with_bs = true;
      p.K = 0.6;
      p.M = 0.2;
      p.R = 0.3;
      break;
  }
  ASSERT_EQ(capacity::classify(p), GetParam());
  sim::FluidOptions opt;
  opt.seed = 19;
  if (GetParam() == capacity::MobilityRegime::kTrivial)
    opt.placement = net::BsPlacement::kClusterGrid;
  auto out = sim::evaluate_capacity(p, opt);
  // The worst flow can never beat the typical flow.
  EXPECT_LE(out.lambda, out.lambda_symmetric * (1.0 + 1e-9));
  EXPECT_GT(out.lambda_symmetric, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Regimes, FluidInvariants,
                         ::testing::Values(capacity::MobilityRegime::kStrong,
                                           capacity::MobilityRegime::kWeak,
                                           capacity::MobilityRegime::kTrivial));

TEST(FluidInvariants, CutBoundDominatesEvaluator) {
  // The Lemma 6/7 bound must sit above whatever the dispatcher achieves,
  // across all three regimes' parameter points.
  struct Case {
    net::ScalingParams p;
    net::BsPlacement placement;
  };
  std::vector<Case> cases;
  {
    net::ScalingParams p;
    p.n = 4096;
    p.alpha = 0.3;
    p.with_bs = true;
    p.K = 0.7;
    p.M = 1.0;
    cases.push_back({p, net::BsPlacement::kClusteredMatched});
    p.with_bs = false;
    cases.push_back({p, net::BsPlacement::kUniform});
  }
  for (const auto& c : cases) {
    auto net = net::Network::build(c.p, mobility::ShapeKind::kUniformDisk,
                                   c.placement, 23);
    sim::FluidOptions opt;
    opt.seed = 23;
    opt.placement = c.placement;
    auto out = sim::evaluate_capacity(net, opt);
    rng::Xoshiro256 g(sim::traffic_seed(23));
    auto dest = net::permutation_traffic(c.p.n, g);
    auto cut = capacity::best_strip_cut(net, dest, 4);
    EXPECT_GE(cut.lambda_bound(), out.lambda)
        << c.p.describe();
  }
}

// -------------------------------------------------- phase-diagram algebra --

TEST(PhaseDiagramProperty, ExponentIsMaxOfComponents) {
  for (double phi : {-0.7, 0.0, 0.4}) {
    auto d = capacity::compute_phase_diagram(phi, 9, 9);
    for (const auto& pt : d.grid) {
      const double mob = capacity::mobility_exponent(pt.alpha);
      const double infra = capacity::infrastructure_exponent(pt.K, phi);
      EXPECT_DOUBLE_EQ(pt.exponent, std::max(mob, infra));
      EXPECT_EQ(pt.mobility_dominant, mob > infra);
    }
  }
}

TEST(PhaseDiagramProperty, ExponentMonotoneInKAndAlpha) {
  auto d = capacity::compute_phase_diagram(0.0, 11, 11);
  // Non-decreasing in K (more BSs never hurt), non-increasing in α
  // (larger networks never help).
  for (std::size_t ki = 0; ki + 1 < d.k_steps; ++ki)
    for (std::size_t ai = 0; ai < d.alpha_steps; ++ai)
      EXPECT_LE(d.at(ai, ki).exponent, d.at(ai, ki + 1).exponent + 1e-12);
  for (std::size_t ai = 0; ai + 1 < d.alpha_steps; ++ai)
    for (std::size_t ki = 0; ki < d.k_steps; ++ki)
      EXPECT_GE(d.at(ai, ki).exponent, d.at(ai + 1, ki).exponent - 1e-12);
}

// Property (satellite of the generalized-infrastructure PR): the closed
// form dominance_boundary_K must agree with a brute-force argmax over the
// computed grid on EVERY panel, including the new ϕ/L axes. Grid values
// are dyadic (eighths/quarters), so every exponent below is binary-exact
// and the comparison needs no tolerance.
TEST(PhaseDiagramProperty, BoundaryMatchesBruteForceOverAllPanels) {
  constexpr std::size_t kAlphaSteps = 5;  // α = ai/8 ∈ {0, ⅛, ¼, ⅜, ½}
  constexpr std::size_t kKSteps = 9;      // K = ki/8 ∈ {0, ⅛, …, 1}
  for (double phi : {-0.5, -0.25, 0.0, 0.25, 0.5}) {
    for (double L : {0.0, 0.25, 0.5}) {
      auto d = capacity::compute_phase_diagram(phi, L, kAlphaSteps, kKSteps);
      for (std::size_t ai = 0; ai < kAlphaSteps; ++ai) {
        // Brute force: first grid K at which infrastructure dominates.
        std::size_t first = kKSteps;
        for (std::size_t ki = 0; ki < kKSteps; ++ki)
          if (!d.at(ai, ki).mobility_dominant) {
            first = ki;
            break;
          }
        const double alpha = d.at(ai, 0).alpha;
        const double Kb = capacity::dominance_boundary_K(alpha, phi, L);
        // Closed form: smallest grid index with ki/8 ≥ Kb (none if > 1).
        const std::size_t predicted =
            Kb > 1.0 ? kKSteps
                     : static_cast<std::size_t>(
                           std::ceil(Kb * 8.0 - 1e-12) < 0.0
                               ? 0.0
                               : std::ceil(Kb * 8.0 - 1e-12));
        EXPECT_EQ(first, predicted)
            << "phi=" << phi << " L=" << L << " alpha=" << alpha
            << " boundary=" << Kb;
        // Consistency at the boundary: exactly at K = Kb the exponents tie,
        // so "improves" is false but the diagram is already
        // infrastructure-dominant (ties prefer infrastructure), and
        // required_K inverts back to the boundary.
        if (Kb >= 0.0 && Kb <= 1.0) {
          EXPECT_FALSE(capacity::infrastructure_improves(alpha, Kb, phi, L));
          EXPECT_DOUBLE_EQ(capacity::required_K(-alpha, phi, L), Kb);
        }
      }
    }
  }
}

TEST(PhaseDiagramProperty, FrontierPanelMatchesPointwiseRecomputation) {
  for (double alpha : {0.125, 0.375}) {
    for (double K : {0.25, 0.75}) {
      auto d = capacity::compute_frontier_diagram(alpha, K, 9, 5);
      for (const auto& pt : d.grid) {
        const double mob = capacity::mobility_exponent(alpha);
        const double infra =
            capacity::infrastructure_exponent(K, pt.phi, pt.L);
        EXPECT_DOUBLE_EQ(pt.exponent, std::max(mob, infra));
        EXPECT_EQ(pt.mobility_dominant, mob > infra);
        EXPECT_EQ(pt.bottleneck,
                  capacity::infrastructure_bottleneck(K, pt.phi, pt.L));
      }
    }
  }
}

// ------------------------------------------------------- sweep invariants --

TEST(SweepProperty, GeometricMeanBetweenMinAndMax) {
  net::ScalingParams p;
  p.alpha = 0.3;
  p.with_bs = false;
  p.M = 1.0;
  sim::SweepEvaluator eval = [](const sim::EvalContext& ctx) {
    sim::FluidOptions opt;
    opt.seed = ctx.seed;
    return sim::evaluate_capacity(ctx.params, opt).lambda_symmetric;
  };
  sim::SweepOptions sopt;
  sopt.seed0 = 29;
  auto sweep = sim::run_sweep(p, {1024, 2048, 4096}, 3, eval, sopt);
  for (const auto& pt : sweep.points) {
    EXPECT_GE(pt.lambda_gm, pt.lambda_min - 1e-15);
    EXPECT_LE(pt.lambda_gm, pt.lambda_max + 1e-15);
    EXPECT_GT(pt.lambda_min, 0.0);
  }
}

// ------------------------------------------------------ slot-sim windows --

TEST(SlotSimProperty, LargerWindowNeverSlower) {
  net::ScalingParams p;
  p.n = 256;
  p.alpha = 0.3;
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 31);
  rng::Xoshiro256 g(37);
  auto dest = net::permutation_traffic(p.n, g);
  double prev_rate = 0.0;
  for (std::size_t window : {1u, 4u, 16u}) {
    sim::SlotSimOptions opt;
    opt.scheme = sim::SlotScheme::kSchemeA;
    opt.slots = 1500;
    opt.warmup = 300;
    opt.seed = 41;
    opt.source_backlog = window;
    auto r = sim::run_slot_sim(net, dest, opt);
    EXPECT_GE(r.mean_flow_rate, prev_rate * 0.85)  // allow slot noise
        << "window " << window;
    prev_rate = std::max(prev_rate, r.mean_flow_rate);
  }
}

TEST(SlotSimProperty, DeliveredNeverExceedsInjectedBudget) {
  // With window w, at most w packets per flow can be in flight, so the
  // delivered count is bounded by (measured slots)·(meetings) trivially —
  // check the tighter invariant: per-flow delivered ≤ slots (one delivery
  // per slot per flow is the absolute ceiling).
  net::ScalingParams p;
  p.n = 128;
  p.alpha = 0.3;
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 43);
  rng::Xoshiro256 g(47);
  auto dest = net::permutation_traffic(p.n, g);
  sim::SlotSimOptions opt;
  opt.scheme = sim::SlotScheme::kSchemeA;
  opt.slots = 800;
  opt.warmup = 100;
  opt.seed = 53;
  auto r = sim::run_slot_sim(net, dest, opt);
  EXPECT_LE(r.mean_flow_rate, 1.0);
  EXPECT_LE(r.min_flow_rate, r.mean_flow_rate);
  EXPECT_LE(r.total_delivered,
            static_cast<std::uint64_t>(p.n) * r.measured_slots);
}

}  // namespace
}  // namespace manetcap
