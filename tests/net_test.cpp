#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/params.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "util/binio.h"
#include "util/check.h"

namespace manetcap::net {
namespace {

ScalingParams strong_params(std::size_t n = 1024) {
  ScalingParams p;
  p.n = n;
  p.alpha = 0.3;
  p.with_bs = true;
  p.K = 0.7;
  p.M = 1.0;  // cluster-free
  p.phi = 0.0;
  return p;
}

ScalingParams clustered_params(std::size_t n = 2048) {
  ScalingParams p;
  p.n = n;
  p.alpha = 0.45;
  p.with_bs = true;
  p.K = 0.6;
  p.M = 0.3;
  p.R = 0.4;
  p.phi = 0.0;
  return p;
}

// --------------------------------------------------------------- params --

TEST(ScalingParams, DerivedQuantities) {
  ScalingParams p = strong_params(10000);
  EXPECT_NEAR(p.f(), std::pow(10000.0, 0.3), 1e-9);
  EXPECT_EQ(p.k(), static_cast<std::size_t>(std::round(std::pow(10000, 0.7))));
  EXPECT_EQ(p.m(), 10000u);  // cluster-free
  EXPECT_DOUBLE_EQ(p.r(), 0.0);
  EXPECT_NEAR(p.c() * static_cast<double>(p.k()), 1.0, 1e-9);  // phi = 0
}

TEST(ScalingParams, GammaMatchesDefinition) {
  ScalingParams p = clustered_params(4096);
  const double m = static_cast<double>(p.m());
  EXPECT_NEAR(p.gamma(), std::log(m) / m, 1e-12);
  const double per = 4096.0 / m;
  EXPECT_NEAR(p.gamma_tilde(), p.r() * p.r() * std::log(per) / per, 1e-12);
}

TEST(ScalingParams, MobilityRadiusIsSupportOverF) {
  ScalingParams p = strong_params(4096);
  p.shape_support = 2.0;
  EXPECT_NEAR(p.mobility_radius(), 2.0 / p.f(), 1e-12);
}

TEST(ScalingParams, NoBsHasNoStations) {
  ScalingParams p = strong_params();
  p.with_bs = false;
  EXPECT_EQ(p.k(), 0u);
  EXPECT_THROW(p.c(), manetcap::CheckError);
}

TEST(ScalingParams, ValidConfigurationHasNoViolations) {
  EXPECT_TRUE(strong_params().assumption_violations().empty());
  EXPECT_TRUE(clustered_params().assumption_violations().empty());
}

TEST(ScalingParams, ViolationsDetected) {
  ScalingParams p = clustered_params();
  p.alpha = 0.7;  // outside [0, 1/2]
  EXPECT_FALSE(p.assumption_violations().empty());

  ScalingParams q = clustered_params();
  q.R = 0.1;  // M − 2R = 0.3 − 0.2 > 0 ⇒ overlap
  EXPECT_FALSE(q.assumption_violations().empty());

  ScalingParams r = clustered_params();
  r.K = 0.2;  // K <= M violates k = omega(m)
  EXPECT_FALSE(r.assumption_violations().empty());
}

TEST(ScalingParams, DescribeMentionsKeyNumbers) {
  const std::string d = clustered_params().describe();
  EXPECT_NE(d.find("n=2048"), std::string::npos);
  EXPECT_NE(d.find("alpha=0.45"), std::string::npos);
}

TEST(ScalingParams, AntennaCountFollowsL) {
  ScalingParams p = strong_params(10000);
  EXPECT_EQ(p.l(), 1u);  // L = 0: the paper's single-antenna BS
  p.L = 0.5;
  EXPECT_EQ(p.l(), 100u);
  p.with_bs = false;
  EXPECT_EQ(p.l(), 1u);  // no BSs: l is a harmless 1, not 0
}

TEST(ScalingParams, DescribeShowsAntennasOnlyWhenGeneralized) {
  ScalingParams p = clustered_params();
  EXPECT_EQ(p.describe().find("L="), std::string::npos);
  p.L = 0.25;
  const std::string d = p.describe();
  EXPECT_NE(d.find("L=0.25"), std::string::npos);
  EXPECT_NE(d.find("l="), std::string::npos);
}

TEST(ScalingParams, AntennaViolationsDetected) {
  ScalingParams p = strong_params();
  p.L = -0.1;  // antennas cannot shrink with n
  EXPECT_FALSE(p.assumption_violations().empty());

  ScalingParams q = strong_params();
  q.L = 0.4;  // K + L = 1.1 > 1: more antennas than MSs
  EXPECT_FALSE(q.assumption_violations().empty());

  ScalingParams r = strong_params();
  r.L = 0.3;  // K + L = 1.0 is fine
  EXPECT_TRUE(r.assumption_violations().empty());
}

// -------------------------------------------------------------- network --

TEST(Network, BuildsRequestedPopulation) {
  auto net = Network::build(strong_params(), mobility::ShapeKind::kUniformDisk,
                            BsPlacement::kClusteredMatched, 1);
  EXPECT_EQ(net.num_ms(), 1024u);
  EXPECT_EQ(net.num_bs(), strong_params().k());
  EXPECT_EQ(net.ms_home().size(), 1024u);
}

TEST(Network, DeterministicGivenSeed) {
  auto a = Network::build(clustered_params(), mobility::ShapeKind::kTriangular,
                          BsPlacement::kClusteredMatched, 99);
  auto b = Network::build(clustered_params(), mobility::ShapeKind::kTriangular,
                          BsPlacement::kClusteredMatched, 99);
  for (std::size_t i = 0; i < a.num_ms(); ++i) {
    EXPECT_DOUBLE_EQ(a.ms_home()[i].x, b.ms_home()[i].x);
    EXPECT_DOUBLE_EQ(a.ms_home()[i].y, b.ms_home()[i].y);
  }
  for (std::size_t j = 0; j < a.num_bs(); ++j)
    EXPECT_DOUBLE_EQ(a.bs_pos()[j].x, b.bs_pos()[j].x);
}

TEST(Network, SeedsChangeLayout) {
  auto a = Network::build(strong_params(), mobility::ShapeKind::kUniformDisk,
                          BsPlacement::kUniform, 1);
  auto b = Network::build(strong_params(), mobility::ShapeKind::kUniformDisk,
                          BsPlacement::kUniform, 2);
  EXPECT_GT(geom::torus_dist(a.ms_home()[0], b.ms_home()[0]), 0.0);
}

TEST(Network, ClusteredMatchedBsNearClusters) {
  auto net = Network::build(clustered_params(),
                            mobility::ShapeKind::kUniformDisk,
                            BsPlacement::kClusteredMatched, 7);
  const auto& layout = net.ms_layout();
  const double tol = layout.cluster_radius + net.mobility_radius() + 1e-9;
  for (std::size_t j = 0; j < net.num_bs(); ++j) {
    const auto c = net.bs_cluster()[j];
    EXPECT_LE(geom::torus_dist(net.bs_pos()[j], layout.cluster_centers[c]),
              tol);
  }
}

TEST(Network, RegularGridIsDeterministicLattice) {
  auto p = strong_params();
  auto a = Network::build(p, mobility::ShapeKind::kUniformDisk,
                          BsPlacement::kRegularGrid, 1);
  auto b = Network::build(p, mobility::ShapeKind::kUniformDisk,
                          BsPlacement::kRegularGrid, 2);
  // Lattice ignores the seed.
  for (std::size_t j = 0; j < a.num_bs(); ++j) {
    EXPECT_DOUBLE_EQ(a.bs_pos()[j].x, b.bs_pos()[j].x);
    EXPECT_DOUBLE_EQ(a.bs_pos()[j].y, b.bs_pos()[j].y);
  }
}

TEST(Network, EveryClusterGetsBs) {
  // k = ω(m) should give every cluster at least one BS w.h.p.
  auto net = Network::build(clustered_params(4096),
                            mobility::ShapeKind::kUniformDisk,
                            BsPlacement::kClusteredMatched, 3);
  std::set<std::uint32_t> clusters_with_bs(net.bs_cluster().begin(),
                                           net.bs_cluster().end());
  EXPECT_EQ(clusters_with_bs.size(), net.ms_layout().num_clusters());
}

// -------------------------------------------------------------- traffic --

TEST(Network, WithBsSubsetKeepsPositionClusterAlignment) {
  // Every surviving BS must keep its (position, cluster) pairing — the
  // two arrays are compacted in one pass and a mismatch would silently
  // re-home the fluid scheme-B evaluation after an outage.
  auto net = Network::build(clustered_params(),
                            mobility::ShapeKind::kUniformDisk,
                            BsPlacement::kClusteredMatched, 17);
  ASSERT_GT(net.num_bs(), 2u);
  std::vector<bool> keep(net.num_bs(), false);
  for (std::size_t j = 0; j < keep.size(); j += 2) keep[j] = true;
  const auto sub = net.with_bs_subset(keep);
  std::size_t cursor = 0;
  for (std::size_t j = 0; j < keep.size(); ++j) {
    if (!keep[j]) continue;
    EXPECT_DOUBLE_EQ(sub.bs_pos()[cursor].x, net.bs_pos()[j].x);
    EXPECT_DOUBLE_EQ(sub.bs_pos()[cursor].y, net.bs_pos()[j].y);
    EXPECT_EQ(sub.bs_cluster()[cursor], net.bs_cluster()[j]);
    ++cursor;
  }
  EXPECT_EQ(sub.num_bs(), cursor);
  EXPECT_EQ(sub.bs_cluster().size(), cursor);
  // The MS side and the scaling parameters are untouched: surviving
  // wires keep their per-edge capacity c(n).
  EXPECT_EQ(sub.num_ms(), net.num_ms());
  EXPECT_DOUBLE_EQ(sub.params().phi, net.params().phi);
}

TEST(Network, WithBsSubsetEdgeCases) {
  auto net = Network::build(strong_params(256),
                            mobility::ShapeKind::kUniformDisk,
                            BsPlacement::kClusteredMatched, 19);
  // keep-all is the identity on the BS arrays.
  const auto all = net.with_bs_subset(
      std::vector<bool>(net.num_bs(), true));
  ASSERT_EQ(all.num_bs(), net.num_bs());
  for (std::size_t j = 0; j < net.num_bs(); ++j) {
    EXPECT_DOUBLE_EQ(all.bs_pos()[j].x, net.bs_pos()[j].x);
    EXPECT_EQ(all.bs_cluster()[j], net.bs_cluster()[j]);
  }
  // keep-none leaves a BS-free network (the no-infrastructure shape).
  const auto none = net.with_bs_subset(
      std::vector<bool>(net.num_bs(), false));
  EXPECT_EQ(none.num_bs(), 0u);
  EXPECT_TRUE(none.bs_cluster().empty());
  EXPECT_EQ(none.num_ms(), net.num_ms());
  // A mask of the wrong size is a named error, not UB.
  EXPECT_THROW(net.with_bs_subset(std::vector<bool>(net.num_bs() + 1, true)),
               CheckError);
}

TEST(Traffic, ProducesValidPermutation) {
  rng::Xoshiro256 g(5);
  for (std::size_t n : {2u, 3u, 10u, 1001u}) {
    auto dest = permutation_traffic(n, g);
    EXPECT_TRUE(is_valid_permutation_traffic(dest)) << "n=" << n;
  }
}

TEST(Traffic, NoFixedPointsOverManySeeds) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    rng::Xoshiro256 g(seed);
    auto dest = permutation_traffic(7, g);
    for (std::size_t i = 0; i < 7; ++i) EXPECT_NE(dest[i], i);
  }
}

TEST(Traffic, ValidatorRejectsBadInputs) {
  EXPECT_FALSE(is_valid_permutation_traffic({0, 1}));      // fixed points
  EXPECT_FALSE(is_valid_permutation_traffic({1, 1, 0}));   // duplicate
  EXPECT_FALSE(is_valid_permutation_traffic({3, 0, 1}));   // out of range
  EXPECT_TRUE(is_valid_permutation_traffic({1, 2, 0}));
}

TEST(Traffic, RequiresAtLeastTwoNodes) {
  rng::Xoshiro256 g(1);
  EXPECT_THROW(permutation_traffic(1, g), manetcap::CheckError);
}

TEST(Traffic, DestValidatorNamesEachError) {
  auto expect_error = [](const std::vector<std::uint32_t>& dest,
                         std::size_t n, const char* needle) {
    try {
      validate_traffic_dest(dest, n, "who");
      FAIL() << "expected CheckError for " << needle;
    } catch (const manetcap::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << "got: " << what;
      EXPECT_NE(what.find("who"), std::string::npos);
    }
  };
  expect_error({1, 0, 2}, 4, "one entry per MS");
  expect_error({1, 5, 0}, 3, "out of range");
  expect_error({1, 1, 0}, 3, "self-loop");
  // Many-to-one maps are legal (hotspot), unlike permutation validation.
  validate_traffic_dest({1, 0, 0, 0}, 4);
}

TEST(TrafficSpec, ParseDescribeRoundTrip) {
  const TrafficSpec d;
  EXPECT_TRUE(d.is_default());
  EXPECT_TRUE(TrafficSpec::parse("").is_default());
  EXPECT_TRUE(TrafficSpec::parse("perm").is_default());
  EXPECT_EQ(TrafficSpec::parse("perm").describe(), "perm");

  const auto s = TrafficSpec::parse(
      " hotspot:0.25,0.9 ; pareto:2,500 ; onoff:32,96 ; start:400 ");
  EXPECT_FALSE(s.is_default());
  EXPECT_EQ(s.pattern, TrafficPattern::kHotspot);
  EXPECT_DOUBLE_EQ(s.hotspot_frac, 0.25);
  EXPECT_DOUBLE_EQ(s.hotspot_mass, 0.9);
  EXPECT_DOUBLE_EQ(s.pareto_alpha, 2.0);
  EXPECT_DOUBLE_EQ(s.pareto_mean, 500.0);
  EXPECT_DOUBLE_EQ(s.on_mean, 32.0);
  EXPECT_DOUBLE_EQ(s.off_mean, 96.0);
  EXPECT_EQ(s.max_start, 400u);
  // describe() re-parses to the same spec (the round-trip contract the
  // FaultPlan grammar also keeps).
  const auto back = TrafficSpec::parse(s.describe());
  EXPECT_EQ(back.pattern, s.pattern);
  EXPECT_DOUBLE_EQ(back.hotspot_frac, s.hotspot_frac);
  EXPECT_DOUBLE_EQ(back.hotspot_mass, s.hotspot_mass);
  EXPECT_DOUBLE_EQ(back.pareto_mean, s.pareto_mean);
  EXPECT_DOUBLE_EQ(back.on_mean, s.on_mean);
  EXPECT_EQ(back.max_start, s.max_start);
}

TEST(TrafficSpec, ParseNamesEachError) {
  auto expect_error = [](const char* spec, const char* needle) {
    try {
      TrafficSpec::parse(spec);
      FAIL() << "expected CheckError for '" << spec << "'";
    } catch (const manetcap::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("TrafficSpec"), std::string::npos)
          << "got: " << what;
      EXPECT_NE(what.find(needle), std::string::npos) << "got: " << what;
    }
  };
  expect_error("blorp:1,2", "unknown clause");
  expect_error("perm:3", "takes no arguments");
  expect_error("hotspot:0.5", "two comma-separated values");
  expect_error("hotspot:0.5,0.8,1", "two comma-separated values");
  expect_error("onoff:12x,30", "bad number");
  expect_error("start:", "missing number");
  expect_error("hotspot:1.5,0.5", "outside (0, 1]");
  expect_error("hotspot:0.5,1.5", "outside [0, 1]");
  expect_error("pareto:0.9,100", "must be > 1");
  expect_error("pareto:1.5,0.2", "must be >= 1 packet");
  expect_error("onoff:0,30", "both on/off means or neither");
}

TEST(TrafficModel, DefaultDrawMatchesPermutationStream) {
  // The default model must consume the RNG exactly like the historical
  // permutation_traffic call — the byte-identity contract both engines
  // lean on.
  rng::Xoshiro256 g1(77);
  const auto dest = permutation_traffic(300, g1);
  rng::Xoshiro256 g2(77);
  const auto demands = make_traffic_model(TrafficSpec{})->draw(300, g2);
  EXPECT_EQ(dest_of(demands), dest);
  EXPECT_EQ(g1.state(), g2.state());  // no extra draws for decorations
  for (const FlowDemand& f : demands) {
    EXPECT_TRUE(f.unlimited());
    EXPECT_TRUE(f.always_on());
    EXPECT_EQ(f.start, 0u);
  }
  validate_demands(demands, 300);
}

TEST(TrafficModel, HotspotConcentratesMass) {
  const std::size_t n = 2000;
  auto spec = TrafficSpec::parse("hotspot:0.1,0.8");
  rng::Xoshiro256 g(101);
  const auto demands = make_traffic_model(spec)->draw(n, g);
  validate_demands(demands, n);
  // Count destination hits per MS; the top-10% must absorb far more than
  // a uniform map's 10% share (expected ~82% incl. the uniform tail).
  std::vector<std::size_t> hits(n, 0);
  for (const FlowDemand& f : demands) ++hits[f.dst];
  std::vector<std::size_t> sorted = hits;
  std::sort(sorted.rbegin(), sorted.rend());
  std::size_t top = 0;
  for (std::size_t i = 0; i < n / 10; ++i) top += sorted[i];
  EXPECT_GT(top, (n * 6) / 10);  // ≫ the uniform 10%
  // mass 0 degenerates to uniform random destinations.
  spec.hotspot_mass = 0.0;
  rng::Xoshiro256 g2(103);
  const auto uniform = make_traffic_model(spec)->draw(n, g2);
  validate_demands(uniform, n);
  std::vector<std::size_t> uhits(n, 0);
  for (const FlowDemand& f : uniform) ++uhits[f.dst];
  std::sort(uhits.rbegin(), uhits.rend());
  std::size_t utop = 0;
  for (std::size_t i = 0; i < n / 10; ++i) utop += uhits[i];
  // Poisson fluctuations put the uniform map's top-10% near 30%, still
  // nowhere near the hotspot model's 60%+.
  EXPECT_LT(utop, (n * 7) / 20);
}

TEST(TrafficModel, ParetoSizesAreHeavyTailedWithTheRequestedMean) {
  const std::size_t n = 4000;
  const auto spec = TrafficSpec::parse("pareto:1.5,1000");
  rng::Xoshiro256 g(107);
  const auto demands = make_traffic_model(spec)->draw(n, g);
  validate_demands(demands, n);
  double sum = 0.0;
  std::uint64_t max_size = 0;
  for (const FlowDemand& f : demands) {
    EXPECT_GE(f.size, 1u);
    EXPECT_FALSE(f.unlimited());
    sum += static_cast<double>(f.size);
    max_size = std::max(max_size, f.size);
  }
  const double mean = sum / static_cast<double>(n);
  // α = 1.5 has infinite variance, so the sample mean is noisy — gate a
  // wide band around the requested mean and require a genuine tail.
  EXPECT_GT(mean, 400.0);
  EXPECT_LT(mean, 6000.0);
  EXPECT_GT(max_size, 10000u);  // x_m ≈ 333; a 4000-draw max ≫ the bulk
}

TEST(TrafficModel, StaggeredStartsStayInRange) {
  const auto spec = TrafficSpec::parse("start:500");
  rng::Xoshiro256 g(109);
  const auto demands = make_traffic_model(spec)->draw(1000, g);
  bool any_late = false;
  for (const FlowDemand& f : demands) {
    EXPECT_LE(f.start, 500u);
    any_late = any_late || f.start > 250;
  }
  EXPECT_TRUE(any_late);  // uniform over [0, 500] cannot all land early
}

TEST(OnOffGate, DutyCycleAndLazyAdvanceAgree) {
  const std::uint64_t kSlots = 200000;
  OnOffGate dense(40.0, 60.0, 1234);
  OnOffGate sparse(40.0, 60.0, 1234);
  std::uint64_t on = 0;
  for (std::uint64_t t = 0; t < kSlots; ++t)
    if (dense.on_at(t)) ++on;
  // Querying every 7th slot must agree with the dense walk at the common
  // slots — the lazy advance is order-independent state, not sampling.
  OnOffGate dense2(40.0, 60.0, 1234);
  for (std::uint64_t t = 0; t < kSlots; t += 7)
    EXPECT_EQ(sparse.on_at(t), dense2.on_at(t)) << "slot " << t;
  // Long-run duty ≈ on/(on+off) = 0.4.
  const double duty = static_cast<double>(on) / kSlots;
  EXPECT_GT(duty, 0.3);
  EXPECT_LT(duty, 0.5);
  // The always-on default gate never gates.
  OnOffGate open;
  EXPECT_FALSE(open.active());
  EXPECT_TRUE(open.on_at(0));
  EXPECT_TRUE(open.on_at(1u << 20));
  // Restore round-trip: a snapshot reproduces the original's future.
  OnOffGate a(25.0, 75.0, 55);
  for (std::uint64_t t = 0; t < 1000; ++t) a.on_at(t);
  std::vector<std::uint8_t> snapshot;
  util::binio::Walker save(snapshot);
  a.walk_state(save);
  OnOffGate b(25.0, 75.0, 55);
  util::binio::Walker load(snapshot, 0, snapshot.size(), "gate");
  b.walk_state(load);
  EXPECT_TRUE(load.at_end());
  OnOffGate c(25.0, 75.0, 55);
  for (std::uint64_t t = 0; t < 1000; ++t) c.on_at(t);
  for (std::uint64_t t = 1000; t < 5000; ++t)
    EXPECT_EQ(b.on_at(t), c.on_at(t)) << "slot " << t;
}

TEST(TrafficModel, DemandValidatorNamesEachError) {
  rng::Xoshiro256 g(113);
  const auto good = make_traffic_model(TrafficSpec{})->draw(8, g);
  auto expect_error = [](std::vector<FlowDemand> demands, std::size_t n,
                         const char* needle) {
    try {
      validate_demands(demands, n);
      FAIL() << "expected CheckError for " << needle;
    } catch (const manetcap::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };
  expect_error(good, 9, "one flow per MS");
  auto bad = good;
  bad[2].src = 3;
  expect_error(bad, 8, "must be sourced at MS");
  bad = good;
  bad[2].dst = 8;
  expect_error(bad, 8, "out of range");
  bad = good;
  bad[2].dst = 2;
  expect_error(bad, 8, "self-loop");
  bad = good;
  bad[2].size = 0;
  expect_error(bad, 8, "zero size");
  bad = good;
  bad[2].on_mean = 10.0;  // off_mean still 0
  expect_error(bad, 8, "both on/off means or neither");
}

}  // namespace
}  // namespace manetcap::net
