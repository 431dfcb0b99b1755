#include <gtest/gtest.h>

#include <cmath>

#include "linkcap/link_capacity.h"
#include "linkcap/measure.h"
#include "mobility/shape.h"
#include "rng/rng.h"
#include "util/check.h"

namespace manetcap::linkcap {
namespace {

using mobility::Shape;
using mobility::ShapeKind;

// ---------------------------------------------------------- analytic ----

TEST(LinkCapacityModel, RangeIsCtOverSqrtPopulation) {
  Shape s(ShapeKind::kUniformDisk);
  LinkCapacityModel m(s, 4.0, 400, 0.3, 1.0);
  EXPECT_NEAR(m.range(), 0.3 / 20.0, 1e-12);
}

TEST(LinkCapacityModel, MsMsDecaysWithHomeDistance) {
  Shape s(ShapeKind::kTriangular);
  const double f = 8.0;
  LinkCapacityModel m(s, f, 1024);
  double prev = m.mu_ms_ms(0.0);
  EXPECT_GT(prev, 0.0);
  for (double d = 0.02; d < 0.3; d += 0.02) {
    double cur = m.mu_ms_ms(d);
    EXPECT_LE(cur, prev + 1e-15) << "at d=" << d;
    prev = cur;
  }
  // Zero beyond 2D/f.
  EXPECT_DOUBLE_EQ(m.mu_ms_ms(2.0 / f + 0.01), 0.0);
}

TEST(LinkCapacityModel, MsBsTracksShapeDensity) {
  Shape s(ShapeKind::kQuadratic);
  const double f = 4.0;
  LinkCapacityModel m(s, f, 256);
  // μ(d) / μ(0) should equal s(f·d)/s(0).
  const double d = 0.1;
  EXPECT_NEAR(m.mu_ms_bs(d) / m.mu_ms_bs(0.0),
              s.density(f * d) / s.density(0.0), 1e-9);
  EXPECT_DOUBLE_EQ(m.mu_ms_bs(1.0 / f + 0.01), 0.0);
}

TEST(LinkCapacityModel, ScalesAsFSquaredOverN) {
  // Corollary 1: μ(0) = Θ(f²/n). Doubling f at fixed n quadruples μ;
  // quadrupling n (population) halves nothing else than 1/n.
  Shape s(ShapeKind::kUniformDisk);
  LinkCapacityModel a(s, 4.0, 1000);
  LinkCapacityModel b(s, 8.0, 1000);
  LinkCapacityModel c(s, 4.0, 4000);
  EXPECT_NEAR(b.mu_ms_ms(0.0) / a.mu_ms_ms(0.0), 4.0, 1e-9);
  EXPECT_NEAR(a.mu_ms_ms(0.0) / c.mu_ms_ms(0.0), 4.0, 1e-9);
}

TEST(LinkCapacityModel, IsolationFactorConstantInN) {
  Shape s(ShapeKind::kUniformDisk);
  LinkCapacityModel a(s, 2.0, 100, 0.3, 1.0);
  LinkCapacityModel b(s, 2.0, 100000, 0.3, 1.0);
  EXPECT_DOUBLE_EQ(a.isolation_factor(), b.isolation_factor());
  EXPECT_GT(a.isolation_factor(), 0.0);
  EXPECT_LT(a.isolation_factor(), 1.0);
}

TEST(LinkCapacityModel, ContactDistances) {
  Shape s(ShapeKind::kUniformDisk, 1.0);
  LinkCapacityModel m(s, 10.0, 10000, 0.3, 1.0);
  EXPECT_NEAR(m.max_contact_dist_ms_ms(), 0.2 + m.range(), 1e-12);
  EXPECT_NEAR(m.max_contact_dist_ms_bs(), 0.1 + m.range(), 1e-12);
}

// μ's constant factors are cached at construction (and refreshed by
// with_range); every μ must keep the bits of the one-expression formula
// isolation · π·R_T²·f²·η(f·d)/S₀² (resp. ·s(f·d)/S₀) it replaces.
TEST(LinkCapacityModel, CachedConstantsKeepTheFormulaBits) {
  for (const ShapeKind kind : {ShapeKind::kUniformDisk, ShapeKind::kTriangular,
                               ShapeKind::kQuadratic}) {
    const Shape s(kind, 1.3);
    const double f = 37.5;
    const LinkCapacityModel pop(s, f, 123457, 0.27, 0.8);
    const LinkCapacityModel ranged =
        LinkCapacityModel::with_range(s, f, 0.0123, 0.6);
    EXPECT_EQ(ranged.range(), 0.0123);
    const struct {
      const LinkCapacityModel* m;
      double rt, ct, delta;
    } models[] = {{&pop, 0.27 / std::sqrt(123457.0), 0.27, 0.8},
                  {&ranged, 0.0123, LinkCapacityModel::kDefaultCt, 0.6}};
    for (const auto& c : models) {
      const double iso = std::exp(-(2.0 * M_PI * (1.0 + c.delta) *
                                    (1.0 + c.delta) * c.ct * c.ct));
      EXPECT_EQ(c.m->isolation_factor(), iso);
      const double s0 = s.normalization();
      for (double d = 0.0; d < 0.08; d += 0.0007) {
        const double ms = M_PI * c.rt * c.rt * f * f * s.eta(f * d) / (s0 * s0);
        const double bs = M_PI * c.rt * c.rt * f * f * s.density(f * d) / s0;
        EXPECT_EQ(c.m->mu_ms_ms(d), iso * ms) << to_string(kind) << " " << d;
        EXPECT_EQ(c.m->mu_ms_bs(d), iso * bs) << to_string(kind) << " " << d;
      }
    }
  }
}

// -------------------------------------------------- Monte-Carlo checks ----

TEST(MeetingProbability, MatchesAnalyticAtZeroDistance) {
  Shape s(ShapeKind::kUniformDisk);
  const double f = 8.0;
  const std::size_t pop = 4096;
  LinkCapacityModel model(s, f, pop, 0.3, 1.0);
  rng::Xoshiro256 g(3);
  auto est = estimate_meeting_probability(s, f, 0.0, model.range(), 200000, g);
  const double analytic = model.meeting_probability_ms_ms(0.0);
  EXPECT_NEAR(est.value, analytic,
              std::max(4.0 * est.stderr_, 0.05 * analytic));
}

class MeetingAtDistance : public ::testing::TestWithParam<double> {};

TEST_P(MeetingAtDistance, MsMsMatchesEtaKernel) {
  const double dist_frac = GetParam();  // fraction of 2D/f
  Shape s(ShapeKind::kTriangular);
  const double f = 6.0;
  LinkCapacityModel model(s, f, 2048, 0.3, 1.0);
  const double d = dist_frac * 2.0 / f;
  rng::Xoshiro256 g(5);
  auto est = estimate_meeting_probability(s, f, d, model.range(), 300000, g);
  const double analytic = model.meeting_probability_ms_ms(d);
  EXPECT_NEAR(est.value, analytic,
              std::max(4.0 * est.stderr_, 0.08 * analytic + 1e-7))
      << "home distance " << d;
}

INSTANTIATE_TEST_SUITE_P(Distances, MeetingAtDistance,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75));

TEST(MeetingProbability, BsCaseMatchesShapeDensity) {
  Shape s(ShapeKind::kUniformDisk);
  const double f = 6.0;
  LinkCapacityModel model(s, f, 2048, 0.3, 1.0);
  rng::Xoshiro256 g(7);
  for (double d : {0.0, 0.08, 0.15}) {
    auto est =
        estimate_meeting_probability_bs(s, f, d, model.range(), 200000, g);
    const double analytic = model.meeting_probability_ms_bs(d);
    EXPECT_NEAR(est.value, analytic,
                std::max(4.0 * est.stderr_, 0.05 * analytic + 1e-7))
        << "home distance " << d;
  }
}

TEST(MeetingProbability, ZeroBeyondContact) {
  Shape s(ShapeKind::kUniformDisk);
  const double f = 10.0;
  rng::Xoshiro256 g(9);
  auto est = estimate_meeting_probability(s, f, 0.5, 0.01, 10000, g);
  EXPECT_DOUBLE_EQ(est.value, 0.0);
}

TEST(Estimate, StderrShrinksWithTrials) {
  Shape s(ShapeKind::kUniformDisk);
  rng::Xoshiro256 g(11);
  auto small = estimate_meeting_probability(s, 4.0, 0.0, 0.05, 1000, g);
  auto large = estimate_meeting_probability(s, 4.0, 0.0, 0.05, 100000, g);
  EXPECT_GT(small.stderr_, large.stderr_);
}

}  // namespace
}  // namespace manetcap::linkcap
