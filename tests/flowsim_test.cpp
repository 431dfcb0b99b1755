// Flow-level engine tests: rate-structure invariants, the audit identity,
// seed unification across engines, bottleneck propagation, forced-scheme
// degeneracy, and fluid-vs-packet cross-validation on the golden
// scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "net/traffic.h"
#include "rng/rng.h"
#include "routing/rate_structure.h"
#include "routing/scheme_a.h"
#include "routing/scheme_b.h"
#include "routing/scheme_c.h"
#include "routing/static_multihop.h"
#include "routing/two_hop.h"
#include "sim/engine.h"
#include "sim/fluid.h"
#include "sim/flowsim.h"
#include "sim/metrics.h"
#include "sim/slotsim.h"
#include "sim/sweep.h"
#include "sim/trace.h"

namespace manetcap::sim {
namespace {

net::ScalingParams strong_params(std::size_t n, bool with_bs = true) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = 0.35;
  p.with_bs = with_bs;
  p.K = 0.75;
  p.M = 1.0;
  p.phi = 0.0;
  return p;
}

net::ScalingParams trivial_params(std::size_t n) {
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

struct Instance {
  net::Network net;
  std::vector<std::uint32_t> dest;
};

Instance make_instance(const net::ScalingParams& p, net::BsPlacement place,
                       std::uint64_t seed) {
  auto net =
      net::Network::build(p, mobility::ShapeKind::kUniformDisk, place, seed);
  rng::Xoshiro256 g(traffic_seed(seed));
  auto dest = net::permutation_traffic(p.n, g);
  return {std::move(net), std::move(dest)};
}

/// Fills `rs` for the given flow scheme using the same dispatch FlowSim
/// runs, returning the evaluator's solver result.
flow::ThroughputResult fill_rates(const Instance& in, Scheme scheme,
                                  routing::RateStructure& rs) {
  switch (scheme) {
    case Scheme::kSchemeA:
      return routing::SchemeA()
          .evaluate(in.net, in.dest, nullptr, 1.0, &rs)
          .throughput;
    case Scheme::kTwoHop:
      return routing::TwoHopRelay().evaluate(in.net, in.dest, &rs).throughput;
    case Scheme::kSchemeB:
      return routing::SchemeB(routing::BsGrouping::kSquarelet)
          .evaluate(in.net, in.dest, nullptr, 1.0, &rs)
          .throughput;
    case Scheme::kSchemeC:
      return routing::SchemeC().evaluate(in.net, in.dest, &rs).throughput;
    case Scheme::kStaticMultihop:
      return routing::StaticMultihop()
          .evaluate(in.net, in.dest, &rs)
          .throughput;
  }
  return {};
}

struct SchemeCase {
  Scheme scheme;
  net::ScalingParams params;
  net::BsPlacement placement;
};

std::vector<SchemeCase> scheme_cases() {
  net::ScalingParams static_p = strong_params(1024, /*with_bs=*/false);
  static_p.alpha = 0.75;  // static baseline: mobility effectively off
  return {
      {Scheme::kSchemeA, strong_params(4096, /*with_bs=*/false),
       net::BsPlacement::kUniform},
      {Scheme::kTwoHop, strong_params(512, /*with_bs=*/false),
       net::BsPlacement::kUniform},
      {Scheme::kSchemeB, strong_params(1024),
       net::BsPlacement::kClusteredMatched},
      {Scheme::kSchemeC, trivial_params(1024),
       net::BsPlacement::kClusterGrid},
      {Scheme::kStaticMultihop, static_p, net::BsPlacement::kUniform},
  };
}

// ------------------------------------------------ rate-structure contract --

// The recorded incidence must reproduce the solver exactly: the min over
// served flows of the per-flow TDMA share (min over incident rows of
// cap/load) IS the solver's λ, and no constraint is oversubscribed by the
// recorded coefficients.
TEST(RateStructure, TdmaShareReproducesSolverLambda) {
  for (const auto& c : scheme_cases()) {
    Instance in = make_instance(c.params, c.placement, 7);
    routing::RateStructure rs;
    const auto tp = fill_rates(in, c.scheme, rs);
    ASSERT_EQ(rs.flow_start.size(), c.params.n + 1) << to_string(c.scheme);

    double min_share = std::numeric_limits<double>::infinity();
    std::size_t served = 0;
    for (std::uint32_t f = 0; f < c.params.n; ++f) {
      if (rs.flow_served[f] == 0) continue;
      ++served;
      double share = std::numeric_limits<double>::infinity();
      for (std::uint32_t j = rs.flow_start[f]; j < rs.flow_start[f + 1];
           ++j) {
        const auto& row = rs.constraints[rs.incid_cid[j]];
        share = std::min(share, row.capacity / row.unit_load);
      }
      min_share = std::min(min_share, share);
    }
    ASSERT_GT(served, 0u) << to_string(c.scheme);
    ASSERT_TRUE(std::isfinite(min_share)) << to_string(c.scheme);
    EXPECT_DOUBLE_EQ(min_share, tp.lambda) << to_string(c.scheme);

    // Σ_f coeff(f, c) ≤ unit_load(c) for every real (positive-capacity)
    // row: the recorded per-flow loads never exceed what the evaluator
    // charged the constraint.
    std::vector<double> coeff_sum(rs.constraints.size(), 0.0);
    for (std::uint32_t f = 0; f < c.params.n; ++f)
      for (std::uint32_t j = rs.flow_start[f]; j < rs.flow_start[f + 1];
           ++j)
        coeff_sum[rs.incid_cid[j]] += rs.incid_coeff[j];
    for (std::size_t cid = 0; cid < rs.constraints.size(); ++cid) {
      if (rs.constraints[cid].capacity <= 0.0) continue;
      EXPECT_LE(coeff_sum[cid],
                rs.constraints[cid].unit_load * (1.0 + 1e-9))
          << to_string(c.scheme) << " cid " << cid;
    }

    // Hops are at least 1 for every served flow; per-flow cids ascend.
    for (std::uint32_t f = 0; f < c.params.n; ++f) {
      if (rs.flow_served[f] == 0) continue;
      EXPECT_GE(rs.flow_hops[f], 1.0);
      for (std::uint32_t j = rs.flow_start[f] + 1;
           j < rs.flow_start[f + 1]; ++j)
        EXPECT_LT(rs.incid_cid[j - 1], rs.incid_cid[j]);
    }
  }
}

// ------------------------------------------------------- engine contract --

// injected == delivered + queued + dropped, for every scheme, by
// construction of the fluid advance — and the engine must agree with the
// evaluator's strict λ.
TEST(FlowSim, AuditIdentityHoldsForEveryScheme) {
  for (const auto& c : scheme_cases()) {
    Instance in = make_instance(c.params, c.placement, 11);
    FlowSimOptions opt;
    opt.scheme = c.scheme;
    opt.slots = 1500;
    opt.warmup = 300;
    Metrics m;
    opt.metrics = &m;
    const auto r = run_flow_sim(in.net, in.dest, opt);
    SCOPED_TRACE(to_string(c.scheme));
    EXPECT_FALSE(r.degenerate);
    EXPECT_GT(r.served_flows, 0u);
    EXPECT_GT(r.mean_flow_rate, 0.0);
    EXPECT_EQ(r.injected,
              r.delivered_lifetime + r.queued_end + r.dropped);
    EXPECT_GT(r.injected, 0u);
    EXPECT_EQ(m.count(Counter::kInjected), r.injected);
    EXPECT_EQ(m.count(Counter::kDelivered), r.delivered_lifetime);
    EXPECT_GT(r.state_bytes, 0u);
  }
}

// The allocation starts from the pure TDMA share, whose minimum equals the
// solver λ, and water-filling only raises rates — so on a wire-free scheme,
// where nothing throttles delivery, the measured minimum rate is at least λ
// (steady state: warmup exceeds every pipeline depth).
TEST(FlowSim, MinRateIsAtLeastSolverLambda) {
  Instance in = make_instance(strong_params(4096, /*with_bs=*/false),
                              net::BsPlacement::kUniform, 5);
  FlowSimOptions opt;
  opt.scheme = Scheme::kSchemeA;
  opt.slots = 2000;
  opt.warmup = 400;
  const auto r = run_flow_sim(in.net, in.dest, opt);
  ASSERT_FALSE(r.degenerate);
  ASSERT_GT(r.lambda_strict, 0.0);
  EXPECT_EQ(r.served_flows, in.dest.size());
  EXPECT_GE(r.min_flow_rate, r.lambda_strict * (1.0 - 1e-12));
}

// ---------------------------------------------------- seed unification ----

// Same (seed) ⇒ same destination permutation in every engine. The fluid
// dispatcher used to draw from seed ^ 0xa5a5…, so fluid and SlotSim
// evaluated different flows for the same seed and cross-validation was
// meaningless.
TEST(TrafficSeed, FluidUsesCanonicalDerivation) {
  EXPECT_EQ(traffic_seed(2026), trial_seed(2026, 0, 1));

  const auto p = strong_params(512);
  Instance in = make_instance(p, net::BsPlacement::kClusteredMatched, 17);
  // evaluate_capacity builds the same network internally (same seed and
  // placement) and must land on the same permutation: forcing scheme B
  // must reproduce the direct evaluation on our dest bit for bit.
  FluidOptions opt;
  opt.seed = 17;
  opt.force = Scheme::kSchemeB;
  const auto out = evaluate_capacity(in.net, opt);
  const auto direct = routing::SchemeB(routing::BsGrouping::kSquarelet)
                          .evaluate(in.net, in.dest);
  EXPECT_EQ(out.lambda, direct.throughput.lambda);
  EXPECT_EQ(out.bottleneck, direct.throughput.bottleneck);
}

// --------------------------------------------- bottleneck propagation ----

// The dispatcher must report the winning component's actual bottleneck —
// the strong-regime branch used to hard-code kWirelessRelay for the ad hoc
// side instead of propagating the evaluator's.
TEST(Fluid, BottleneckComesFromWinningComponent) {
  // Pure ad hoc strong regime: outcome must carry the ad hoc evaluator's
  // own bottleneck (two-hop fallback included), not an assumption.
  {
    const auto p = strong_params(4096, /*with_bs=*/false);
    Instance in = make_instance(p, net::BsPlacement::kUniform, 3);
    FluidOptions opt;
    opt.seed = 3;
    const auto out = evaluate_capacity(in.net, opt);
    const auto ra = routing::SchemeA().evaluate(in.net, in.dest);
    const auto& tp = ra.degenerate
                         ? routing::TwoHopRelay().evaluate(in.net, in.dest)
                               .throughput
                         : ra.throughput;
    EXPECT_EQ(out.bottleneck, tp.bottleneck);
    EXPECT_EQ(out.bottleneck_label, tp.bottleneck_label);
  }
  // Hybrid: whichever component carries the larger λ owns the bottleneck.
  {
    const auto p = strong_params(2048);
    Instance in = make_instance(p, net::BsPlacement::kClusteredMatched, 3);
    FluidOptions opt;
    opt.seed = 3;
    const auto out = evaluate_capacity(in.net, opt);
    const auto ra = routing::SchemeA().evaluate(in.net, in.dest);
    const auto la = ra.degenerate
                        ? routing::TwoHopRelay().evaluate(in.net, in.dest)
                              .throughput
                        : ra.throughput;
    const auto rb = routing::SchemeB(routing::BsGrouping::kSquarelet)
                        .evaluate(in.net, in.dest);
    const auto& want =
        la.lambda >= rb.throughput.lambda ? la : rb.throughput;
    EXPECT_EQ(out.bottleneck, want.bottleneck);
    EXPECT_EQ(out.bottleneck_label, want.bottleneck_label);
  }
}

// ------------------------------------------------- forced degeneracy ------

// Forcing an infrastructure scheme onto a BS-free network is a labeled
// λ = 0 outcome, not a crash and not silently-default numbers (the same
// contract the forced-A fix established for degenerate grids).
TEST(Fluid, ForcedInfraSchemeWithoutBsIsLabeledDegenerate) {
  const auto p = strong_params(512, /*with_bs=*/false);
  for (const auto force : {Scheme::kSchemeB,
                           Scheme::kSchemeC}) {
    FluidOptions opt;
    opt.seed = 9;
    opt.placement = net::BsPlacement::kUniform;
    opt.force = force;
    const auto out = evaluate_capacity(p, opt);
    EXPECT_EQ(out.lambda, 0.0);
    EXPECT_EQ(out.lambda_symmetric, 0.0);
    EXPECT_NE(out.scheme.find("degenerate"), std::string::npos)
        << out.scheme;
  }
  // Healthy counterparts still measure positive rates.
  for (const auto force : {Scheme::kSchemeB,
                           Scheme::kSchemeC}) {
    FluidOptions opt;
    opt.seed = 9;
    opt.force = force;
    if (force == Scheme::kSchemeC)
      opt.placement = net::BsPlacement::kClusterGrid;
    const auto out = evaluate_capacity(
        force == Scheme::kSchemeC ? trivial_params(2048)
                                               : strong_params(2048),
        opt);
    EXPECT_GT(out.lambda, 0.0) << out.scheme;
    EXPECT_EQ(out.scheme.find("degenerate"), std::string::npos)
        << out.scheme;
  }
}

// A degenerate FlowSim run (scheme A under the minimum grid) reports
// λ = 0 with the audit trivially conserved instead of faking a rate.
TEST(FlowSim, DegenerateSchemeAIsSurfaced) {
  net::ScalingParams p = strong_params(512, /*with_bs=*/false);
  p.alpha = 0.0;  // f(n) = 1: mobility spans the torus, grid collapses
  Instance in = make_instance(p, net::BsPlacement::kUniform, 21);
  FlowSimOptions opt;
  opt.scheme = Scheme::kSchemeA;
  const auto r = run_flow_sim(in.net, in.dest, opt);
  EXPECT_TRUE(r.degenerate);
  EXPECT_EQ(r.mean_flow_rate, 0.0);
  EXPECT_EQ(r.injected, 0u);
  EXPECT_EQ(r.queued_end, 0u);
}

// ------------------------------------------------- cross-validation ------

// Fluid vs packet on the four golden scenarios: identical instance and
// traffic (the byte-compared golden specs), mean rates within the
// per-scheme bands bench/flowsim_speed.cpp gates in CI. The packet engine
// is the ground truth; the flow engine is its scheduling relaxation.
TEST(FlowSim, CrossValidatesAgainstSlotSimOnGoldens) {
  struct Band {
    double lo, hi;
  };
  auto band_of = [](Scheme s) -> Band {
    switch (s) {
      case Scheme::kSchemeA:
        return {0.8, 4.0};
      case Scheme::kTwoHop:
        return {1.0, 12.0};
      case Scheme::kSchemeB:
        return {0.35, 2.5};
      case Scheme::kSchemeC:
        return {0.25, 2.0};
      case Scheme::kStaticMultihop:
        break;  // no packet engine to compare against
    }
    return {0.0, 1e9};
  };
  for (const auto& spec : golden_trace_specs()) {
    SCOPED_TRACE(spec.name);
    const auto net =
        net::Network::build(spec.params, mobility::ShapeKind::kUniformDisk,
                            spec.placement, spec.net_seed);
    rng::Xoshiro256 g(spec.traffic_seed);
    const auto dest = net::permutation_traffic(spec.params.n, g);

    SlotSimOptions sopt;
    sopt.scheme = spec.scheme;
    sopt.slots = spec.slots;
    sopt.warmup = spec.warmup;
    sopt.seed = spec.sim_seed;
    const auto sres = run_slot_sim(net, dest, sopt);

    FlowSimOptions fopt;
    fopt.scheme = spec.scheme;
    fopt.slots = spec.slots;
    fopt.warmup = spec.warmup;
    fopt.seed = spec.sim_seed;
    const auto fres = run_flow_sim(net, dest, fopt);

    ASSERT_GT(sres.mean_flow_rate, 0.0);
    ASSERT_GT(fres.mean_flow_rate, 0.0);
    const double ratio = fres.mean_flow_rate / sres.mean_flow_rate;
    const Band b = band_of(spec.scheme);
    EXPECT_GE(ratio, b.lo) << "fluid " << fres.mean_flow_rate << " slots "
                           << sres.mean_flow_rate;
    EXPECT_LE(ratio, b.hi) << "fluid " << fres.mean_flow_rate << " slots "
                           << sres.mean_flow_rate;
  }
}

// ------------------------------------------------------ engine plumbing --

TEST(Engine, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_engine("fluid"), EngineKind::kFluid);
  EXPECT_EQ(parse_engine("slots"), EngineKind::kSlots);
  EXPECT_EQ(parse_engine("auto"), EngineKind::kAuto);
  EXPECT_EQ(to_string(EngineKind::kFluid), "fluid");
  EXPECT_EQ(to_string(EngineKind::kSlots), "slots");
  EXPECT_EQ(to_string(EngineKind::kAuto), "auto");
  EXPECT_THROW(parse_engine("warp"), std::runtime_error);
}

// run_sweep through the fluid engine: positive, decreasing λ(n) with a
// valid fit — the flow engine is fast enough to sweep where SlotSim is
// not, and its curve must behave like a capacity law.
TEST(Engine, FluidSweepMeasuresDecreasingLambda) {
  net::ScalingParams base = strong_params(0);
  const std::vector<std::size_t> sizes = {1024, 2048, 4096};
  EngineOptions eopt;
  eopt.slots = 1200;
  eopt.warmup = 200;
  SweepOptions sopt;
  sopt.seed0 = 1;
  const auto sweep = run_sweep(base, sizes, 2,
                               make_engine_evaluator(EngineKind::kFluid,
                                                     eopt),
                               sopt);
  ASSERT_EQ(sweep.points.size(), sizes.size());
  for (const auto& pt : sweep.points) EXPECT_GT(pt.lambda_gm, 0.0);
  for (std::size_t i = 1; i < sweep.points.size(); ++i)
    EXPECT_LT(sweep.points[i].lambda_gm, sweep.points[i - 1].lambda_gm);
  EXPECT_TRUE(sweep.fit_valid);
  EXPECT_LT(sweep.fit.exponent, 0.0);
}

// kAuto resolves per instance: both arms measure a positive rate and the
// fluid arm is the one that carries large n.
TEST(Engine, AutoSelectsByInstanceSize) {
  EngineOptions eopt;
  eopt.slots = 600;
  eopt.warmup = 120;
  EvalContext small;
  small.params = strong_params(256);
  small.seed = trial_seed(1, 0, 0);
  EvalContext large;
  large.params = strong_params(2048);
  large.seed = trial_seed(1, 1, 0);
  const double r_small = measure_instance(EngineKind::kAuto, small, eopt);
  const double r_large = measure_instance(EngineKind::kAuto, large, eopt);
  EXPECT_GT(r_small, 0.0);
  EXPECT_GT(r_large, 0.0);
  // The fluid arm at n=2048 must match an explicit fluid measurement.
  EXPECT_EQ(r_large, measure_instance(EngineKind::kFluid, large, eopt));
}

TEST(FlowSimTraffic, DefaultSpecDemandsMatchDestPathExactly) {
  // A demand set drawn from the default TrafficSpec must take the legacy
  // arithmetic bit for bit: duty 1.0, start 0, unlimited size.
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 929);
  FlowSimOptions opt;
  opt.scheme = Scheme::kSchemeB;
  opt.slots = 2000;
  opt.warmup = 400;
  opt.seed = 937;

  rng::Xoshiro256 g1(traffic_seed(opt.seed));
  const auto dest = net::permutation_traffic(p.n, g1);
  rng::Xoshiro256 g2(traffic_seed(opt.seed));
  const auto demands =
      net::make_traffic_model(net::TrafficSpec{})->draw(p.n, g2);
  ASSERT_EQ(net::dest_of(demands), dest);

  const auto a = run_flow_sim(net, dest, opt);
  const auto b = run_flow_sim(net, demands, opt);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered_lifetime, b.delivered_lifetime);
  EXPECT_EQ(a.queued_end, b.queued_end);
  EXPECT_DOUBLE_EQ(a.mean_flow_rate, b.mean_flow_rate);
  EXPECT_DOUBLE_EQ(a.min_flow_rate, b.min_flow_rate);
  EXPECT_DOUBLE_EQ(a.p10_flow_rate, b.p10_flow_rate);
}

TEST(FlowSimTraffic, DutyThinningCutsInjectedVolume) {
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 941);
  FlowSimOptions opt;
  opt.scheme = Scheme::kSchemeB;
  opt.slots = 2000;
  opt.warmup = 400;
  opt.seed = 947;

  rng::Xoshiro256 g1(traffic_seed(opt.seed));
  const auto cbr =
      net::make_traffic_model(net::TrafficSpec{})->draw(p.n, g1);
  rng::Xoshiro256 g2(traffic_seed(opt.seed));
  const auto bursty =
      net::make_traffic_model(net::TrafficSpec::parse("onoff:50,150"))
          ->draw(p.n, g2);
  // Same destination draw, different decoration.
  ASSERT_EQ(net::dest_of(cbr), net::dest_of(bursty));

  const auto rc = run_flow_sim(net, cbr, opt);
  const auto rb = run_flow_sim(net, bursty, opt);
  // Duty 50/(50+150) = 1/4 thins every flow's offered rate; the injected
  // integral must drop strictly, and both audits must close.
  EXPECT_LT(rb.injected, rc.injected);
  EXPECT_EQ(rc.injected, rc.delivered_lifetime + rc.queued_end + rc.dropped);
  EXPECT_EQ(rb.injected, rb.delivered_lifetime + rb.queued_end + rb.dropped);
  EXPECT_LT(rb.mean_flow_rate, rc.mean_flow_rate);
}

TEST(FlowSimTraffic, FiniteSizesCapInjection) {
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 953);
  FlowSimOptions opt;
  opt.scheme = Scheme::kSchemeB;
  opt.slots = 4000;
  opt.warmup = 400;
  opt.seed = 967;

  rng::Xoshiro256 g(traffic_seed(opt.seed));
  auto demands = net::make_traffic_model(net::TrafficSpec{})->draw(p.n, g);
  for (auto& d : demands) d.size = 2;  // two packets each, then silence
  const auto r = run_flow_sim(net, demands, opt);
  EXPECT_LE(r.injected, 2u * p.n);
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
}

TEST(FlowSimTraffic, OutOfRangeDestIsANamedError) {
  auto p = strong_params(64);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 971);
  FlowSimOptions opt;
  opt.scheme = Scheme::kSchemeB;
  opt.slots = 200;
  opt.warmup = 20;

  rng::Xoshiro256 g(traffic_seed(opt.seed));
  auto dest = net::permutation_traffic(p.n, g);
  dest[3] = static_cast<std::uint32_t>(p.n);
  try {
    run_flow_sim(net, dest, opt);
    FAIL() << "expected CheckError";
  } catch (const manetcap::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(FlowSimChurn, ConservationClosesAndLeaveGatesInjection) {
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 977);
  rng::Xoshiro256 g(983);
  const auto dest = net::permutation_traffic(p.n, g);

  FlowSimOptions opt;
  opt.scheme = Scheme::kSchemeB;
  opt.slots = 2000;
  opt.warmup = 400;
  opt.seed = 991;
  Metrics m0;
  opt.metrics = &m0;
  const auto plain = run_flow_sim(net, dest, opt);

  const FaultPlan plan = FaultPlan::parse("leave@600:3; leave@700:12");
  opt.faults = &plan;
  Metrics m;
  opt.metrics = &m;
  const auto r = run_flow_sim(net, dest, opt);
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
  EXPECT_EQ(m.count(Counter::kMsLeft), 2u);
  EXPECT_EQ(m.count(Counter::kDroppedMsChurn), r.dropped);
  // Departed sources stop injecting, so the churn run injects strictly
  // less fluid volume than the undisturbed one.
  EXPECT_LT(r.injected, plain.injected);
  EXPECT_GT(r.delivered_lifetime, 0u);
  // The fluid engine is deterministic: a repeat run is bit-identical.
  Metrics m2;
  opt.metrics = &m2;
  const auto r2 = run_flow_sim(net, dest, opt);
  EXPECT_EQ(r.injected, r2.injected);
  EXPECT_EQ(r.dropped, r2.dropped);
  EXPECT_DOUBLE_EQ(r.mean_flow_rate, r2.mean_flow_rate);
}

TEST(FlowSimChurn, RejectsInfraAndShiftPlans) {
  // The fluid engine has no per-slot geometry: BS outages, wire faults
  // and mobility shifts must be refused with a named error, not ignored.
  auto p = strong_params(64);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 997);
  rng::Xoshiro256 g(1009);
  const auto dest = net::permutation_traffic(p.n, g);
  FlowSimOptions opt;
  opt.scheme = Scheme::kSchemeB;
  opt.slots = 400;
  opt.warmup = 40;
  for (const char* spec : {"down@100:0", "shift@100:walk"}) {
    const FaultPlan plan = FaultPlan::parse(spec);
    opt.faults = &plan;
    try {
      run_flow_sim(net, dest, opt);
      FAIL() << "expected CheckError for " << spec;
    } catch (const manetcap::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("churn-only"), std::string::npos)
          << "got: " << e.what();
    }
  }
}

}  // namespace
}  // namespace manetcap::sim
