// Property tests that validate the paper's lemmas and theorems empirically
// on sampled finite networks — the bridge between the analysis and the
// simulator. Each test names the statement it exercises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "analysis/density.h"
#include "capacity/formulas.h"
#include "capacity/regimes.h"
#include "geom/tessellation.h"
#include "linkcap/link_capacity.h"
#include "linkcap/measure.h"
#include "mobility/process.h"
#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "routing/scheme_a.h"
#include "routing/scheme_b.h"
#include "sched/sstar.h"
#include "sim/fluid.h"
#include "util/check.h"

namespace manetcap {
namespace {

net::ScalingParams strong_params(std::size_t n) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = 0.3;
  p.with_bs = true;
  p.K = 0.7;
  p.M = 1.0;
  p.phi = 0.0;
  return p;
}

net::ScalingParams clustered_params(std::size_t n, double alpha = 0.45,
                                    double M = 0.3, double R = 0.4) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = alpha;
  p.with_bs = true;
  p.K = 0.6;
  p.M = M;
  p.R = R;
  p.phi = 0.0;
  return p;
}

// ----------------------------------------------------- Theorem 1 / Def 8 --

TEST(Theorem1, StrongMobilityGivesUniformDensity) {
  auto p = strong_params(16384);
  ASSERT_EQ(capacity::classify(p), capacity::MobilityRegime::kStrong);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 1);
  auto field = analysis::compute_density_field(net.ms_home(), net.bs_pos(),
                                               net.shape(), p.f(), 24);
  // ρ bounded between positive constants: contrast is O(1).
  EXPECT_LT(field.contrast(), 5.0);
  EXPECT_GT(field.min, 0.1);
}

TEST(Theorem1, WeakMobilityViolatesUniformDensity) {
  auto p = clustered_params(16384);
  ASSERT_NE(capacity::classify(p), capacity::MobilityRegime::kStrong);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 2);
  auto field = analysis::compute_density_field(net.ms_home(), net.bs_pos(),
                                               net.shape(), p.f(), 24);
  EXPECT_GT(field.contrast(), 20.0);
}

// -------------------------------------------------------------- Lemma 1 --

TEST(Lemma1, TessellationCountsWithinConstantFactors) {
  // γ(n) = log m / m must be small for the (16+β)γ tessellation to have
  // multiple cells, so use many clusters (M close to 2R from below).
  auto p = clustered_params(1 << 20, 0.3, 0.55, 0.29);
  ASSERT_TRUE(p.assumption_violations().empty());
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 3);
  // |A| = (16+β)γ(n) with β = 1.
  const double cell_area = 17.0 * p.gamma();
  auto tess = geom::SquareTessellation::with_min_cell_area(cell_area);
  ASSERT_GE(tess.cells_per_side(), 2);

  std::vector<std::size_t> nm(tess.num_cells(), 0), nb(tess.num_cells(), 0);
  for (const auto& x : net.ms_home())
    ++nm[tess.index_of(tess.cell_of(x))];
  for (const auto& y : net.bs_pos()) ++nb[tess.index_of(tess.cell_of(y))];

  const double n_al = static_cast<double>(p.n) * tess.cell_area();
  const double k_al = static_cast<double>(p.k()) * tess.cell_area();
  for (int c = 0; c < tess.num_cells(); ++c) {
    EXPECT_GT(static_cast<double>(nm[c]), n_al / 4.0) << "cell " << c;
    EXPECT_LT(static_cast<double>(nm[c]), 4.0 * n_al) << "cell " << c;
    EXPECT_GT(static_cast<double>(nb[c]), k_al / 4.0) << "cell " << c;
    EXPECT_LT(static_cast<double>(nb[c]), 4.0 * k_al) << "cell " << c;
  }
}

// -------------------------------------------------------------- Lemma 3 --

TEST(Lemma3, BusyProbabilityBoundedBelowByConstant) {
  // Uniformly dense instance: every node is S*-scheduled a constant
  // fraction of time.
  net::ScalingParams p;
  p.n = 1024;
  p.alpha = 0.25;
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 4);
  mobility::IidStationaryMobility process(net.ms_home(), net.shape(),
                                          1.0 / p.f(), 5);
  sched::SStarScheduler sstar(0.3, 1.0);
  auto busy = linkcap::measure_busy_probability(process, {}, sstar, 400);
  const double mean =
      std::accumulate(busy.begin(), busy.end(), 0.0) / busy.size();
  EXPECT_GT(mean, 0.01);
  // The constant does not degrade with n (spot-check a 4× larger net).
  net::ScalingParams p2 = p;
  p2.n = 4096;
  auto net2 = net::Network::build(p2, mobility::ShapeKind::kUniformDisk,
                                  net::BsPlacement::kUniform, 6);
  mobility::IidStationaryMobility process2(net2.ms_home(), net2.shape(),
                                           1.0 / p2.f(), 7);
  auto busy2 = linkcap::measure_busy_probability(process2, {}, sstar, 200);
  const double mean2 =
      std::accumulate(busy2.begin(), busy2.end(), 0.0) / busy2.size();
  EXPECT_GT(mean2, 0.01);
  EXPECT_LT(std::abs(std::log(mean / mean2)), std::log(2.5));
}

// ------------------------------------------------------------- Lemma 11 --

TEST(Lemma11, ChernoffClusterPopulations) {
  auto p = clustered_params(32768, 0.45, 0.3, 0.4);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 8);
  const std::size_t m = net.ms_layout().num_clusters();
  std::vector<std::size_t> ni(m, 0), ki(m, 0);
  for (auto c : net.ms_layout().cluster_of) ++ni[c];
  for (auto c : net.bs_cluster()) ++ki[c];
  const double n_per = static_cast<double>(p.n) / static_cast<double>(m);
  const double k_per = static_cast<double>(p.k()) / static_cast<double>(m);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_GT(static_cast<double>(ni[i]), 0.5 * n_per);
    EXPECT_LT(static_cast<double>(ni[i]), 1.5 * n_per);
    EXPECT_GT(static_cast<double>(ki[i]), 0.3 * k_per);
    EXPECT_LT(static_cast<double>(ki[i]), 2.0 * k_per);
  }
}

// ------------------------------------------------------------- Lemma 12 --

TEST(Lemma12, ClustersAreMutuallyNonInterfering) {
  // With R_T = r√(m/n) and disjoint clusters (M − 2R < 0), nodes of
  // different clusters sit beyond the (1+Δ)R_T guard reach w.h.p.
  auto p = clustered_params(16384, 0.45, 0.3, 0.4);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 9);
  const double m = static_cast<double>(p.m());
  const double rt = p.r() * std::sqrt(m / static_cast<double>(p.n));
  const double guard = (1.0 + 1.0) * rt;  // Δ = 1
  const double wobble = 2.0 * net.mobility_radius();

  // Cluster centers are uniform, so at finite n a few pairs can land close
  // (the lemma is a w.h.p. statement); require the violating fraction to
  // be a vanishing share of all pairs.
  const auto& layout = net.ms_layout();
  std::size_t pairs = 0, violations = 0;
  for (std::size_t a = 0; a < layout.num_clusters(); ++a) {
    for (std::size_t b = a + 1; b < layout.num_clusters(); ++b) {
      ++pairs;
      const double d = geom::torus_dist(layout.cluster_centers[a],
                                        layout.cluster_centers[b]);
      if (d <= 2.0 * layout.cluster_radius + wobble + guard) ++violations;
    }
  }
  EXPECT_LT(static_cast<double>(violations), 0.05 * static_cast<double>(pairs))
      << violations << " of " << pairs << " cluster pairs too close";
}

// -------------------------------------------------------- Proposition 1 --

TEST(Proposition1, ShapeIntegralScalesAsInverseFSquared) {
  mobility::Shape s(mobility::ShapeKind::kQuadratic);
  auto integral = [&s](double f) {
    // ∫_O s(f·‖Y − X‖) dY by midpoint quadrature around X = (0.5, 0.5).
    const int grid = 600;
    double acc = 0.0;
    for (int a = 0; a < grid; ++a) {
      for (int b = 0; b < grid; ++b) {
        const geom::Point y{(a + 0.5) / grid, (b + 0.5) / grid};
        acc += s.density(f * geom::torus_dist(y, {0.5, 0.5}));
      }
    }
    return acc / (grid * grid);
  };
  const double i4 = integral(4.0);
  const double i8 = integral(8.0);
  EXPECT_NEAR(i4 / i8, 4.0, 0.2);  // 1/f² law
}

// ----------------------------------------------- Theorem 2 (range choice) --

TEST(Theorem2, OversizedRangeCollapsesScheduling) {
  // R_T = ω(1/√n): the exclusion region covers many nodes and S* can
  // schedule almost nothing — the e^{−nR_T²} penalty of the proof.
  net::ScalingParams p;
  p.n = 2048;
  p.alpha = 0.2;
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 10);
  mobility::IidStationaryMobility process(net.ms_home(), net.shape(),
                                          1.0 / p.f(), 11);
  sched::SStarScheduler good(0.3, 1.0);
  sched::SStarScheduler oversized(3.0, 1.0);  // 10× the optimal constant
  std::size_t good_pairs = 0, oversized_pairs = 0;
  for (int t = 0; t < 50; ++t) {
    const auto& pos = process.positions();
    good_pairs += good.feasible_pairs(pos).size();
    oversized_pairs += oversized.feasible_pairs(pos).size();
    process.step();
  }
  EXPECT_GT(good_pairs, 10 * std::max<std::size_t>(oversized_pairs, 1));
}

// -------------------------------------------- Theorem 6 (BS placement) ----

TEST(Theorem6, PlacementInvarianceInUniformlyDenseRegime) {
  auto p = strong_params(8192);
  rng::Xoshiro256 g(12);
  auto dest = net::permutation_traffic(p.n, g);
  routing::SchemeB b;
  std::vector<double> lambdas;
  for (auto placement :
       {net::BsPlacement::kClusteredMatched, net::BsPlacement::kUniform,
        net::BsPlacement::kRegularGrid}) {
    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   placement, 13);
    auto r = b.evaluate(net, dest);
    ASSERT_GT(r.throughput.lambda, 0.0) << to_string(placement);
    lambdas.push_back(r.throughput.lambda);
  }
  const double lo = *std::min_element(lambdas.begin(), lambdas.end());
  const double hi = *std::max_element(lambdas.begin(), lambdas.end());
  EXPECT_LT(hi / lo, 2.5);  // order-equivalent
}

// ------------------------------------- Theorem 8 (static equivalence) ----

TEST(Theorem8, MobilityNegligibleAtTrivialScale) {
  // 4D/f(n) — the worst-case two-node closing speed — is a vanishing
  // fraction of the scheme C cell scale r√(m/k). α > ½ is required for
  // the trivial regime to be populated at all (see DESIGN.md).
  net::ScalingParams p;
  p.n = 65536;
  p.alpha = 0.75;
  p.with_bs = true;
  p.K = 0.6;
  p.M = 0.2;
  p.R = 0.3;
  ASSERT_EQ(capacity::classify(p), capacity::MobilityRegime::kTrivial);
  const double cell_side =
      p.r() * std::sqrt(static_cast<double>(p.m()) /
                        static_cast<double>(p.k()));
  EXPECT_LT(4.0 * p.mobility_radius(), 0.5 * cell_side);
}

TEST(Theorem8, ScheduleFeasibilityPersistsUnderTrivialMobility) {
  // Build a protocol-feasible transmission set at t₀ with scheme-C-scale
  // ranges and margins of 4D/f, then let every node move for 200 slots:
  // the set must remain feasible at every instant — mobility is "trivial"
  // precisely because it cannot break a snapshot schedule (Theorem 8).
  net::ScalingParams p;
  p.n = 2048;
  p.alpha = 0.75;
  p.with_bs = true;
  p.K = 0.6;
  p.M = 0.2;
  p.R = 0.3;
  ASSERT_EQ(capacity::classify(p), capacity::MobilityRegime::kTrivial);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 21);

  // Transmissions: each selected BS to its nearest MS; BSs chosen greedily
  // so selected transmitters are far apart relative to the range.
  geom::SpatialHash ms_hash(0.01, net.num_ms());
  ms_hash.build(net.ms_home());
  const double wobble = 4.0 * net.mobility_radius();
  std::vector<phy::Transmission> txs;
  std::vector<geom::Point> chosen_pos;
  double max_link = 0.0;
  // m = n^0.2 ≈ 5 clusters at this size, so only a handful of spatially
  // separated transmitters exist; one per cluster suffices for the check.
  for (std::uint32_t l = 0; l < net.num_bs() && txs.size() < 16; ++l) {
    const geom::Point y = net.bs_pos()[l];
    bool clear = true;
    for (const auto& cp : chosen_pos)
      if (geom::torus_dist(y, cp) < 0.12) clear = false;
    if (!clear) continue;
    const std::uint32_t i = ms_hash.nearest(y, ~std::uint32_t{0});
    if (i >= net.num_ms()) continue;
    const double d = geom::torus_dist(y, net.ms_home()[i]);
    max_link = std::max(max_link, d);
    // BS transmits (id offset n), MS receives.
    txs.push_back({static_cast<std::uint32_t>(net.num_ms()) + l, i});
    chosen_pos.push_back(y);
  }
  ASSERT_GE(txs.size(), 4u);

  const double rt = max_link + 2.0 * wobble;  // range with persistence margin
  phy::ProtocolModel pm(rt, 1.0);

  mobility::PullHomeMobility process(net.ms_home(), net.mobility_radius(),
                                     23);
  std::size_t feasible_slots = 0;
  const int slots = 200;
  for (int t = 0; t < slots; ++t) {
    std::vector<geom::Point> pos = process.positions();
    pos.insert(pos.end(), net.bs_pos().begin(), net.bs_pos().end());
    if (pm.feasible(pos, txs)) ++feasible_slots;
    process.step();
  }
  // Theorem 8 is a w.h.p. statement; at these margins it should hold at
  // every single slot.
  EXPECT_EQ(feasible_slots, static_cast<std::size_t>(slots));
}

// --------------------------------------- Theorems 3–5 (capacity orders) ----

TEST(Theorem3, SchemeAUpperBoundedByInverseF) {
  // λ·f stays bounded above by a constant across sizes (Lemma 4).
  routing::SchemeA a;
  for (std::size_t n : {4096u, 16384u}) {
    net::ScalingParams p;
    p.n = n;
    p.alpha = 0.35;
    p.with_bs = false;
    p.M = 1.0;
    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kUniform, 14);
    rng::Xoshiro256 g(15);
    auto dest = net::permutation_traffic(p.n, g);
    auto r = a.evaluate(net, dest);
    ASSERT_GT(r.throughput.lambda, 0.0);
    EXPECT_LT(r.throughput.lambda * p.f(), 1.0);
  }
}

TEST(Theorem5, HybridBeatsBothComponentsAlone) {
  // λ = Θ(1/f) + Θ(min(k²c/n, k/n)): the combined throughput is at least
  // each single-scheme throughput.
  sim::FluidOptions opt;
  opt.seed = 16;
  auto out = sim::evaluate_capacity(strong_params(8192), opt);
  sim::FluidOptions only_a = opt;
  only_a.force = sim::Scheme::kSchemeA;
  sim::FluidOptions only_b = opt;
  only_b.force = sim::Scheme::kSchemeB;
  const double la = sim::evaluate_capacity(strong_params(8192), only_a).lambda;
  const double lb = sim::evaluate_capacity(strong_params(8192), only_b).lambda;
  EXPECT_GE(out.lambda * 1.0000001, la);
  EXPECT_GE(out.lambda * 1.0000001, lb);
}

// --------------------------------- Remark 13 (clustering hurts, no BS) ----

TEST(Remark13, ClusteredNoBsCapacityDecaysFasterThanStrong) {
  // The gap Remark 13 describes is an *order* gap: the clustered no-BS
  // law n^{M/2−1} falls off much faster than the strong-mobility n^{−α}.
  // Compare decay factors over a 4× size change instead of raw values
  // (raw values at one n are constant-dominated).
  sim::FluidOptions opt;
  opt.seed = 17;
  auto decay = [&opt](net::ScalingParams p) {
    p.n = 8192;
    const double lo = sim::evaluate_capacity(p, opt).lambda;
    p.n = 32768;
    const double hi = sim::evaluate_capacity(p, opt).lambda;
    return lo / hi;  // > 1: capacity shrinks with n
  };
  // α = 0.3 keeps the uniform instance deep inside the uniformly dense
  // region at these finite sizes (f√γ ≪ 1); α near ½ is strong only
  // asymptotically.
  net::ScalingParams uniform;
  uniform.alpha = 0.3;
  uniform.with_bs = false;
  uniform.M = 1.0;
  auto clustered = clustered_params(0);
  clustered.with_bs = false;

  const double strong_decay = decay(uniform);      // ≈ 4^0.3 ≈ 1.5
  const double clustered_decay = decay(clustered); // ≈ 4^0.85 ≈ 3.2
  EXPECT_GT(strong_decay, 1.0);
  EXPECT_GT(clustered_decay, 1.3 * strong_decay);
}

}  // namespace
}  // namespace manetcap
