#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "geom/point.h"
#include "linkcap/link_capacity.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "routing/scheme_c.h"
#include "sim/engine.h"
#include "sim/fluid.h"
#include "sim/metrics.h"
#include "sim/slotsim.h"
#include "sim/slotsim_reference.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "util/check.h"

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
  // Trivial mobility needs α > ½ once clusters are disjoint (see
  // DESIGN.md): the network outgrows the mobility radius so fast that
  // within-cluster movement cannot even reach a neighbor.
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

// ---------------------------------------------------------------- fluid --

TEST(Fluid, StrongRegimeUsesHybridScheme) {
  FluidOptions opt;
  opt.seed = 3;
  auto out = evaluate_capacity(strong_params(4096), opt);
  EXPECT_EQ(out.regime, capacity::MobilityRegime::kStrong);
  EXPECT_GT(out.lambda, 0.0);
  EXPECT_GT(out.lambda_adhoc, 0.0);
  EXPECT_GT(out.lambda_infra, 0.0);
  EXPECT_NE(out.scheme.find("scheme-B"), std::string::npos);
  EXPECT_DOUBLE_EQ(out.lambda, out.lambda_adhoc + out.lambda_infra);
}

TEST(Fluid, WeakRegimeUsesClusterSubnets) {
  FluidOptions opt;
  opt.seed = 5;
  auto out = evaluate_capacity(weak_params(8192), opt);
  EXPECT_EQ(out.regime, capacity::MobilityRegime::kWeak);
  EXPECT_GT(out.lambda, 0.0);
  EXPECT_DOUBLE_EQ(out.lambda_adhoc, 0.0);
  EXPECT_NE(out.scheme.find("clusters"), std::string::npos);
}

TEST(Fluid, TrivialRegimeUsesSchemeC) {
  FluidOptions opt;
  opt.seed = 7;
  auto out = evaluate_capacity(trivial_params(8192), opt);
  EXPECT_EQ(out.regime, capacity::MobilityRegime::kTrivial);
  EXPECT_GT(out.lambda, 0.0);
  EXPECT_NE(out.scheme.find("scheme-C"), std::string::npos);
}

TEST(Fluid, NoBsStrongIsPureAdhoc) {
  FluidOptions opt;
  opt.seed = 9;
  auto out = evaluate_capacity(strong_params(4096, /*with_bs=*/false), opt);
  EXPECT_GT(out.lambda, 0.0);
  EXPECT_DOUBLE_EQ(out.lambda_infra, 0.0);
}

TEST(Fluid, ForcedSchemeOverridesDispatch) {
  FluidOptions opt;
  opt.seed = 11;
  opt.force = FluidOptions::ForceScheme::kB;
  auto out = evaluate_capacity(strong_params(4096), opt);
  EXPECT_NE(out.scheme.find("forced"), std::string::npos);
  EXPECT_DOUBLE_EQ(out.lambda_adhoc, 0.0);
  EXPECT_GT(out.lambda_infra, 0.0);
}

TEST(Fluid, DeterministicGivenSeed) {
  FluidOptions opt;
  opt.seed = 13;
  auto a = evaluate_capacity(strong_params(2048), opt);
  auto b = evaluate_capacity(strong_params(2048), opt);
  EXPECT_DOUBLE_EQ(a.lambda, b.lambda);
}

TEST(Fluid, MoreBaseStationsNeverHurt) {
  FluidOptions opt;
  opt.seed = 15;
  auto small_k = strong_params(4096);
  small_k.K = 0.5;
  auto big_k = strong_params(4096);
  big_k.K = 0.9;
  const double lo = evaluate_capacity(small_k, opt).lambda;
  const double hi = evaluate_capacity(big_k, opt).lambda;
  EXPECT_GT(hi, lo);
}

// ---------------------------------------------------------------- sweep --

TEST(Sweep, GeometricSizes) {
  auto sizes = geometric_sizes(100, 2.0, 4);
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[0], 100u);
  EXPECT_EQ(sizes[3], 800u);
}

TEST(Sweep, GeometricSizesDeduplicatesCollapsedPoints) {
  // 100·1.001ⁱ rounds to 100 for many consecutive i: collapsed points must
  // appear once, leaving a strictly increasing sequence.
  auto sizes = geometric_sizes(100, 1.001, 12);
  EXPECT_LT(sizes.size(), 12u);
  for (std::size_t i = 1; i < sizes.size(); ++i)
    EXPECT_LT(sizes[i - 1], sizes[i]);
}

TEST(Sweep, TrialSeedsNeverCollide) {
  // The pre-SplitMix64 linear formula collided across the (seed0, si, t)
  // grid (e.g. seed0 strides of 1 alias si strides of 1000003·k). The
  // mixed derivation must give pairwise-distinct seeds over a dense grid.
  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (std::uint64_t seed0 : {1ULL, 2ULL, 3ULL, 42ULL, 2026ULL,
                              0x9e3779b97f4a7c15ULL}) {
    for (std::size_t si = 0; si < 16; ++si) {
      for (std::size_t t = 0; t < 64; ++t) {
        seen.insert(trial_seed(seed0, si, t));
        ++total;
      }
    }
  }
  EXPECT_EQ(seen.size(), total);
}

TEST(Sweep, TrialSeedMatchesRunSweepDerivation) {
  // Serial, so the evaluator may record without a lock. Cells start
  // longest first; each gets trial_seed(seed0, size index, trial).
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;  // (n, seed)
  auto eval = [&seen](const EvalContext& ctx) {
    seen.push_back({ctx.params.n, ctx.seed});
    return 1.0;
  };
  SweepOptions opt;
  opt.seed0 = 7;
  opt.num_threads = 1;
  run_sweep(strong_params(0), {128, 256}, 2, eval, opt);
  const std::vector<std::pair<std::size_t, std::uint64_t>> want = {
      {256, trial_seed(7, 1, 0)},
      {256, trial_seed(7, 1, 1)},
      {128, trial_seed(7, 0, 0)},
      {128, trial_seed(7, 0, 1)}};
  EXPECT_EQ(seen, want);
}

TEST(Sweep, ThreadCountDoesNotChangeResults) {
  // A seed-sensitive evaluator: any reordering of trials across threads
  // that leaked into the reduction would change the bits of the result.
  auto eval = [](const EvalContext& ctx) {
    rng::Xoshiro256 g(ctx.seed);
    return std::pow(static_cast<double>(ctx.params.n), -0.5) *
           (0.5 + rng::uniform01(g));
  };
  const auto sizes = geometric_sizes(256, 2.0, 5);
  SweepResult reference;
  {
    SweepOptions opt;
    opt.num_threads = 1;
    opt.seed0 = 2026;
    reference = run_sweep(strong_params(0), sizes, 4, eval, opt);
  }
  ASSERT_TRUE(reference.fit_valid);
  for (std::size_t threads : {2u, 8u}) {
    SweepOptions opt;
    opt.num_threads = threads;
    opt.seed0 = 2026;
    auto r = run_sweep(strong_params(0), sizes, 4, eval, opt);
    ASSERT_EQ(r.points.size(), reference.points.size());
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      EXPECT_EQ(r.points[i].n, reference.points[i].n);
      EXPECT_EQ(r.points[i].trials, reference.points[i].trials);
      // Bit-identical, not merely close.
      EXPECT_DOUBLE_EQ(r.points[i].lambda_gm, reference.points[i].lambda_gm);
      EXPECT_DOUBLE_EQ(r.points[i].lambda_min,
                       reference.points[i].lambda_min);
      EXPECT_DOUBLE_EQ(r.points[i].lambda_max,
                       reference.points[i].lambda_max);
    }
    ASSERT_EQ(r.fit_valid, reference.fit_valid);
    EXPECT_DOUBLE_EQ(r.fit.exponent, reference.fit.exponent);
    EXPECT_DOUBLE_EQ(r.fit.stderr_, reference.fit.stderr_);
    EXPECT_DOUBLE_EQ(r.fit.r_squared, reference.fit.r_squared);
  }
}

TEST(Sweep, CellsStartLongestFirst) {
  // Unsorted sizes: cells start in descending n, trials of one size in
  // index order.
  std::vector<std::size_t> started;
  auto eval = [&started](const EvalContext& ctx) {
    started.push_back(ctx.params.n);
    return 1.0;
  };
  SweepOptions opt;
  opt.num_threads = 1;
  run_sweep(strong_params(0), {512, 2048, 1024}, 2, eval, opt);
  EXPECT_EQ(started,
            (std::vector<std::size_t>{2048, 2048, 1024, 1024, 512, 512}));
}

TEST(Sweep, FailingSweepReportsTheSameErrorForAnyThreadCount) {
  // Two cells fail; the one that starts first (largest n) is reported,
  // however many threads ran the sweep.
  auto eval = [](const EvalContext& ctx) -> double {
    if (ctx.params.n != 1024)
      throw std::runtime_error("cell n=" + std::to_string(ctx.params.n));
    return 1.0;
  };
  for (std::size_t threads : {1u, 2u, 8u}) {
    SweepOptions opt;
    opt.num_threads = threads;
    try {
      run_sweep(strong_params(0), {512, 1024, 2048}, 3, eval, opt);
      ADD_FAILURE() << "sweep with failing cells returned";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell n=2048") << threads << " threads";
    }
  }
}

TEST(Sweep, ParallelFluidEvaluationMatchesSerial) {
  // End-to-end with the real fluid evaluator: sampled networks, scheme
  // dispatch, the lot — still bit-identical across thread counts.
  SweepEvaluator eval = [](const EvalContext& ctx) {
    FluidOptions opt;
    opt.seed = ctx.seed;
    return evaluate_capacity(ctx.params, opt).lambda_symmetric;
  };
  SweepOptions serial;
  serial.num_threads = 1;
  serial.seed0 = 11;
  auto a = run_sweep(strong_params(0), {512, 1024, 2048}, 2, eval, serial);
  SweepOptions parallel = serial;
  parallel.num_threads = 4;
  auto b = run_sweep(strong_params(0), {512, 1024, 2048}, 2, eval, parallel);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i)
    EXPECT_DOUBLE_EQ(a.points[i].lambda_gm, b.points[i].lambda_gm);
  ASSERT_EQ(a.fit_valid, b.fit_valid);
  if (a.fit_valid) {
    EXPECT_DOUBLE_EQ(a.fit.exponent, b.fit.exponent);
  }
}

TEST(Sweep, RecoversAnalyticExponent) {
  // Evaluator returns exactly n^{-0.5}: the fit must find −0.5.
  auto eval = [](const EvalContext& ctx) {
    return std::pow(static_cast<double>(ctx.params.n), -0.5);
  };
  auto result = run_sweep(strong_params(0), geometric_sizes(256, 2.0, 5), 2,
                          eval);
  ASSERT_TRUE(result.fit_valid);
  EXPECT_NEAR(result.fit.exponent, -0.5, 1e-9);
  EXPECT_EQ(result.points.size(), 5u);
}

TEST(Sweep, ZeroMeasurementInvalidatesFit) {
  auto eval = [](const EvalContext& ctx) {
    return ctx.params.n > 1000 ? 0.0 : 1.0;
  };
  auto result =
      run_sweep(strong_params(0), geometric_sizes(256, 2.0, 4), 1, eval);
  EXPECT_FALSE(result.fit_valid);
}

TEST(Sweep, DeterministicSeeds) {
  SweepOptions opt;
  opt.seed0 = 42;
  std::vector<std::uint64_t> seen;
  auto eval = [&seen](const EvalContext& ctx) {
    seen.push_back(ctx.seed);
    return 1.0;
  };
  run_sweep(strong_params(0), {128, 256, 512}, 2, eval, opt);
  std::vector<std::uint64_t> seen2;
  auto eval2 = [&seen2](const EvalContext& ctx) {
    seen2.push_back(ctx.seed);
    return 1.0;
  };
  run_sweep(strong_params(0), {128, 256, 512}, 2, eval2, opt);
  EXPECT_EQ(seen, seen2);
}

// -------------------------------------------------------------- slotsim --

TEST(SlotSim, SchemeADeliversPackets) {
  auto p = strong_params(512, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 17);
  rng::Xoshiro256 g(19);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 1500;
  opt.warmup = 300;
  opt.seed = 21;
  auto r = run_slot_sim(net, dest, opt);
  EXPECT_GT(r.total_delivered, 0u);
  EXPECT_GT(r.pairs_per_slot, 0.0);
  EXPECT_GT(r.mean_flow_rate, 0.0);
}

TEST(SlotSim, TwoHopDeliversUnderFullMixing) {
  net::ScalingParams p;
  p.n = 256;
  p.alpha = 0.0;  // full mixing
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 23);
  rng::Xoshiro256 g(29);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kTwoHop;
  opt.slots = 1500;
  opt.warmup = 300;
  opt.seed = 31;
  auto r = run_slot_sim(net, dest, opt);
  EXPECT_GT(r.total_delivered, 0u);
  EXPECT_GT(r.mean_flow_rate, 0.0);
}

TEST(SlotSim, SchemeBDeliversViaInfrastructure) {
  auto p = strong_params(512);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 37);
  rng::Xoshiro256 g(41);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 2000;
  opt.warmup = 400;
  opt.seed = 43;
  auto r = run_slot_sim(net, dest, opt);
  EXPECT_GT(r.total_delivered, 0u);
}

TEST(SlotSim, DeterministicGivenSeed) {
  auto p = strong_params(256, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 47);
  rng::Xoshiro256 g(53);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 400;
  opt.warmup = 100;
  opt.seed = 59;
  auto a = run_slot_sim(net, dest, opt);
  auto b = run_slot_sim(net, dest, opt);
  EXPECT_EQ(a.total_delivered, b.total_delivered);
  EXPECT_DOUBLE_EQ(a.pairs_per_slot, b.pairs_per_slot);
}

TEST(SlotSim, SchemeCDeliversInTrivialRegime) {
  auto p = trivial_params(1024);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 81);
  rng::Xoshiro256 g(83);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeC;
  opt.slots = 3000;
  opt.warmup = 300;
  opt.seed = 87;
  auto r = run_slot_sim(net, dest, opt);
  EXPECT_GT(r.total_delivered, 0u);
  EXPECT_GT(r.mean_flow_rate, 0.0);
  EXPECT_GT(r.pairs_per_slot, 0.0);  // active cells per slot
  EXPECT_GT(r.mean_delay, 0.0);
}

TEST(SlotSim, SchemeCMatchesFluidOrder) {
  // Slot-level scheme C against the fluid evaluator: same instance, ratio
  // must be an O(1) constant.
  auto p = trivial_params(1024);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 85);
  rng::Xoshiro256 g(89);
  auto dest = net::permutation_traffic(p.n, g);
  routing::SchemeC c;
  const double fluid = c.evaluate(net, dest).lambda_symmetric;
  ASSERT_GT(fluid, 0.0);

  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeC;
  opt.slots = 4000;
  opt.warmup = 400;
  opt.seed = 91;
  auto r = run_slot_sim(net, dest, opt);
  ASSERT_GT(r.mean_flow_rate, 0.0);
  const double ratio = r.mean_flow_rate / fluid;
  EXPECT_GT(ratio, 0.05);
  EXPECT_LT(ratio, 20.0);
}

TEST(SlotSim, SchemeBDeliversInWeakRegime) {
  // Theorem 7 at packet level: clusters as subnets, uplink within the
  // cluster, wired across, downlink in the destination cluster.
  auto p = weak_params(1024);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 151);
  rng::Xoshiro256 g(153);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 3000;
  opt.warmup = 300;
  opt.seed = 157;
  auto r = run_slot_sim(net, dest, opt);
  EXPECT_GT(r.total_delivered, 0u);
  EXPECT_GT(r.mean_flow_rate, 0.0);
}

TEST(SlotSim, DeliveredPacketsHaveDelays) {
  auto p = strong_params(256, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 91);
  rng::Xoshiro256 g(93);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 1500;
  opt.warmup = 300;
  opt.seed = 97;
  auto r = run_slot_sim(net, dest, opt);
  ASSERT_GT(r.total_delivered, 0u);
  EXPECT_GT(r.mean_delay, 0.0);
  EXPECT_GE(r.p95_delay, r.mean_delay * 0.5);
  EXPECT_LT(r.p95_delay, static_cast<double>(opt.slots));
}

TEST(SlotSim, TwoHopDelayShrinksWithFasterMixing) {
  // Brownian mixing (full torus) delivers two-hop packets; the measured
  // delay is the inter-meeting time, finite and well below the horizon.
  net::ScalingParams p;
  p.n = 128;
  p.alpha = 0.0;
  p.with_bs = false;
  p.M = 1.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 99);
  rng::Xoshiro256 g(101);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kTwoHop;
  opt.mobility = SlotMobility::kBrownian;
  opt.slots = 3000;
  opt.warmup = 300;
  opt.seed = 103;
  auto r = run_slot_sim(net, dest, opt);
  EXPECT_GT(r.total_delivered, 0u);
  EXPECT_GT(r.mean_delay, 0.0);
}

TEST(SlotSim, MobilityVariantsAllRun) {
  auto p = strong_params(256, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 61);
  rng::Xoshiro256 g(67);
  auto dest = net::permutation_traffic(p.n, g);
  for (auto mob : {SlotMobility::kIid, SlotMobility::kWalk,
                   SlotMobility::kPullHome}) {
    SlotSimOptions opt;
    opt.scheme = SlotScheme::kSchemeA;
    opt.mobility = mob;
    opt.slots = 600;
    opt.warmup = 150;
    opt.seed = 71;
    auto r = run_slot_sim(net, dest, opt);
    EXPECT_GT(r.pairs_per_slot, 0.0);
  }
}

TEST(SlotSim, WarmupMustPrecedeEnd) {
  auto p = strong_params(64, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 73);
  rng::Xoshiro256 g(79);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.slots = 100;
  opt.warmup = 100;
  EXPECT_THROW(run_slot_sim(net, dest, opt), manetcap::CheckError);
}

TEST(SlotSim, SchemeNames) {
  EXPECT_EQ(to_string(SlotScheme::kSchemeA), "scheme-A");
  EXPECT_EQ(to_string(SlotScheme::kTwoHop), "two-hop");
  EXPECT_EQ(to_string(SlotScheme::kSchemeB), "scheme-B");
}

// ------------------------------------------ options validation (names) --

TEST(SlotSimValidation, EachBadOptionThrowsItsNamedError) {
  auto p = strong_params(64, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 201);
  rng::Xoshiro256 g(203);
  auto dest = net::permutation_traffic(p.n, g);
  auto expect_error = [&](const SlotSimOptions& opt,
                          const std::string& needle) {
    try {
      run_slot_sim(net, dest, opt);
      FAIL() << "expected CheckError mentioning: " << needle;
    } catch (const manetcap::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };
  SlotSimOptions opt;
  opt.slots = 100;
  opt.warmup = 100;
  expect_error(opt, "warmup (100) must be < slots (100)");
  opt = {};
  opt.max_queue = 0;
  expect_error(opt, "max_queue must be >= 1");
  opt = {};
  opt.ct = 0.0;
  expect_error(opt, "ct must be > 0");
  opt = {};
  opt.delta = -0.5;
  expect_error(opt, "delta must be > 0");
  opt = {};
  opt.source_backlog = 0;
  expect_error(opt, "source_backlog must be >= 1");
}

// --------------------------------- SoA simulator vs frozen reference --

// The SoA hot-path rewrite must be behaviorally invisible: identical
// result structs and byte-identical traces on the same inputs, for every
// scheme and a non-i.i.d. mobility mix (incremental spatial-hash moves
// only happen under walk/pull/brownian mobility).
void expect_matches_reference(const net::ScalingParams& p,
                              net::BsPlacement placement,
                              std::uint64_t build_seed, SlotSimOptions opt) {
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 placement, build_seed);
  rng::Xoshiro256 g(build_seed + 1);
  auto dest = net::permutation_traffic(p.n, g);

  Trace trace_new, trace_ref;
  opt.trace = &trace_new;
  auto got = run_slot_sim(net, dest, opt);
  opt.trace = &trace_ref;
  auto want = run_slot_sim_reference(net, dest, opt);

  EXPECT_DOUBLE_EQ(got.mean_flow_rate, want.mean_flow_rate);
  EXPECT_DOUBLE_EQ(got.min_flow_rate, want.min_flow_rate);
  EXPECT_DOUBLE_EQ(got.p10_flow_rate, want.p10_flow_rate);
  EXPECT_DOUBLE_EQ(got.pairs_per_slot, want.pairs_per_slot);
  EXPECT_EQ(got.total_delivered, want.total_delivered);
  EXPECT_EQ(got.measured_slots, want.measured_slots);
  EXPECT_DOUBLE_EQ(got.mean_delay, want.mean_delay);
  EXPECT_DOUBLE_EQ(got.p95_delay, want.p95_delay);
  EXPECT_EQ(got.injected, want.injected);
  EXPECT_EQ(got.delivered_lifetime, want.delivered_lifetime);
  EXPECT_EQ(got.queued_end, want.queued_end);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(trace_new.encode(), trace_ref.encode())
      << "per-packet event streams diverged";
}

TEST(SlotSimEquivalence, SchemeAWalkMatchesReference) {
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.mobility = SlotMobility::kWalk;
  opt.slots = 600;
  opt.warmup = 150;
  opt.seed = 211;
  expect_matches_reference(strong_params(256, /*with_bs=*/false),
                           net::BsPlacement::kUniform, 209, opt);
}

TEST(SlotSimEquivalence, TwoHopBrownianMatchesReference) {
  net::ScalingParams p;
  p.n = 128;
  p.alpha = 0.0;  // full mixing
  p.with_bs = false;
  p.M = 1.0;
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kTwoHop;
  opt.mobility = SlotMobility::kBrownian;
  opt.slots = 800;
  opt.warmup = 200;
  opt.seed = 223;
  expect_matches_reference(p, net::BsPlacement::kUniform, 221, opt);
}

TEST(SlotSimEquivalence, SchemeBMatchesReference) {
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 800;
  opt.warmup = 200;
  opt.seed = 227;
  expect_matches_reference(strong_params(512),
                           net::BsPlacement::kClusteredMatched, 229, opt);
}

TEST(SlotSimEquivalence, SchemeCPullHomeMatchesReference) {
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeC;
  opt.mobility = SlotMobility::kPullHome;
  opt.slots = 1000;
  opt.warmup = 200;
  opt.seed = 233;
  expect_matches_reference(trivial_params(1024),
                           net::BsPlacement::kClusterGrid, 231, opt);
}

// ------------------------------------------- packet-conservation audit --

TEST(SlotSimAudit, ConservationHoldsForAllSchemes) {
  // ≥10k-slot saturated runs: injected == delivered + queued + dropped
  // must hold exactly for every scheme (the simulator also checks this
  // internally; asserting on the result catches accounting drift between
  // the counters and the returned totals).
  struct SchemeCase {
    SlotScheme scheme;
    net::ScalingParams params;
    net::BsPlacement placement;
  };
  net::ScalingParams two_hop = strong_params(256, /*with_bs=*/false);
  two_hop.alpha = 0.0;  // full mixing
  const std::vector<SchemeCase> cases = {
      {SlotScheme::kSchemeA, strong_params(256, /*with_bs=*/false),
       net::BsPlacement::kUniform},
      {SlotScheme::kTwoHop, two_hop, net::BsPlacement::kUniform},
      {SlotScheme::kSchemeB, strong_params(256),
       net::BsPlacement::kClusteredMatched},
      {SlotScheme::kSchemeC, trivial_params(512),
       net::BsPlacement::kClusterGrid},
  };
  for (const auto& c : cases) {
    auto net = net::Network::build(c.params, mobility::ShapeKind::kUniformDisk,
                                   c.placement, 211);
    rng::Xoshiro256 g(223);
    auto dest = net::permutation_traffic(c.params.n, g);
    SlotSimOptions opt;
    opt.scheme = c.scheme;
    opt.slots = 10000;
    opt.warmup = 1000;
    opt.seed = 227;
    Metrics m;
    opt.metrics = &m;
    auto r = run_slot_sim(net, dest, opt);
    SCOPED_TRACE(to_string(c.scheme));
    EXPECT_GT(r.injected, 0u);
    EXPECT_GT(r.delivered_lifetime, 0u);
    EXPECT_EQ(r.dropped, 0u);
    EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
    EXPECT_EQ(m.count(Counter::kInjected), r.injected);
    EXPECT_EQ(m.count(Counter::kDelivered), r.delivered_lifetime);
    EXPECT_EQ(m.count(Counter::kDropped), 0u);
    EXPECT_EQ(m.count(Counter::kUndeliverable), 0u);
  }
}

TEST(SlotSimAudit, MetricsSeriesTracksQueues) {
  auto p = strong_params(256, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 229);
  rng::Xoshiro256 g(233);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 1200;
  opt.warmup = 200;
  opt.seed = 239;
  Metrics m;
  m.enable_series(opt.slots);
  opt.metrics = &m;
  auto r = run_slot_sim(net, dest, opt);
  ASSERT_EQ(m.series().size(), opt.slots);
  // The last sample's queue gauge must equal the end-of-run occupancy.
  EXPECT_EQ(m.series().back().queued, r.queued_end);
  EXPECT_EQ(m.series().back().slot, opt.slots - 1);
  // The scheduler stats were threaded through: candidates ≥ feasible, and
  // candidates = feasible + range-rejected.
  EXPECT_GT(m.count(Counter::kSchedFeasiblePairs), 0u);
  EXPECT_EQ(m.count(Counter::kSchedCandidatePairs),
            m.count(Counter::kSchedFeasiblePairs) +
                m.count(Counter::kSchedRangeRejected));
}

TEST(SlotSimAudit, MetricsAttachmentDoesNotPerturbResults) {
  auto p = strong_params(256, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 241);
  rng::Xoshiro256 g(251);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 800;
  opt.warmup = 200;
  opt.seed = 257;
  auto plain = run_slot_sim(net, dest, opt);
  Metrics m;
  m.enable_series(opt.slots);
  opt.metrics = &m;
  auto audited = run_slot_sim(net, dest, opt);
  EXPECT_EQ(plain.total_delivered, audited.total_delivered);
  EXPECT_DOUBLE_EQ(plain.pairs_per_slot, audited.pairs_per_slot);
  EXPECT_EQ(plain.injected, audited.injected);
  EXPECT_EQ(plain.queued_end, audited.queued_end);
}

TEST(SlotSimAudit, HugeHorizonSeriesReservationIsBounded) {
  // Regression: enable_series used to reserve the full horizon upfront, so
  // a 10⁷-slot hint pre-committed ~240 MB before the first sample landed.
  // The reservation is now capped at kMaxSeriesReserve samples.
  Metrics m;
  m.enable_series(10'000'000);
  EXPECT_LE(m.series().capacity(), Metrics::kMaxSeriesReserve);
  // A stride hint reserves horizon/stride when that is under the cap.
  Metrics strided;
  strided.enable_series(10'000'000, 1000);
  EXPECT_LE(strided.series().capacity(), Metrics::kMaxSeriesReserve);
  EXPECT_GE(strided.series().capacity(), 10'000'000 / 1000);
  EXPECT_EQ(strided.series_stride(), 1000u);
  // The stride gate drops non-stride slots and keeps stride multiples.
  strided.sample_slot(0, 1, 0, 0);
  strided.sample_slot(1, 2, 0, 0);
  strided.sample_slot(999, 3, 0, 0);
  strided.sample_slot(1000, 4, 0, 0);
  strided.sample_slot(2000, 5, 0, 0);
  ASSERT_EQ(strided.series().size(), 3u);
  EXPECT_EQ(strided.series()[0].slot, 0u);
  EXPECT_EQ(strided.series()[1].slot, 1000u);
  EXPECT_EQ(strided.series()[2].slot, 2000u);
  EXPECT_EQ(strided.series()[2].queued, 5u);
}

TEST(SlotSimAudit, SchemeBSparseTopologyHasNoOrphans) {
  // Regression for the scheme-B stall: with only a handful of BSs most
  // home points have no BS within the contact distance. Before the
  // nearest-BS fallback those flows' packets sat at hop 0 in BS queues
  // forever (wired_step had nowhere to send them), permanently eating
  // max_queue slots; the audit surfaced them as `undeliverable`.
  net::ScalingParams p;
  p.n = 1024;
  p.alpha = 0.45;
  p.with_bs = true;
  p.K = 0.55;  // ~45 BSs: most home points uncovered, but enough coverage
               // that covered flows still deliver within the horizon
  p.M = 1.0;
  p.phi = 0.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 263);
  ASSERT_GE(net.num_bs(), 1u);

  // Precondition: the sparse layout really orphans some home points.
  linkcap::LinkCapacityModel mu(net.shape(), net.params().f(),
                                net.num_ms() + net.num_bs(), 0.3, 1.0);
  const double contact = mu.max_contact_dist_ms_bs();
  std::size_t orphans = 0;
  for (const auto& home : net.ms_home()) {
    bool covered = false;
    for (const auto& bs : net.bs_pos())
      covered = covered || geom::torus_dist(home, bs) <= contact;
    if (!covered) ++orphans;
  }
  ASSERT_GT(orphans, 0u) << "topology not sparse enough to exercise the fix";

  rng::Xoshiro256 g(269);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 4000;
  opt.warmup = 400;
  opt.seed = 271;
  Metrics m;
  opt.metrics = &m;
  auto r = run_slot_sim(net, dest, opt);
  // Every uplinked packet has a wired target (no stalled hop-0 packets)
  // and conservation holds despite the orphaned home points.
  EXPECT_EQ(m.count(Counter::kUndeliverable), 0u);
  EXPECT_GT(r.delivered_lifetime, 0u);
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
}

TEST(SlotSimAudit, SchemeALastCellDeliversDirectly) {
  // shape_support = 2 with α = 0 makes the mobility radius span the torus,
  // so scheme A's tessellation collapses to a single cell: every flow's
  // H-V path has length 1 and every packet is born at its last cell. Only
  // direct source→destination delivery is possible — this pins the
  // at-last-cell branch in transfer_scheme_a (where a dead BS re-check
  // used to sit; BS endpoints are excluded before the scan).
  net::ScalingParams p;
  p.n = 128;
  p.alpha = 0.0;
  p.with_bs = false;
  p.M = 1.0;
  p.shape_support = 2.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 277);
  rng::Xoshiro256 g(281);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 3000;
  opt.warmup = 300;
  opt.seed = 283;
  Metrics m;
  opt.metrics = &m;
  auto r = run_slot_sim(net, dest, opt);
  EXPECT_GT(r.delivered_lifetime, 0u);
  // No relay hand-off can ever fire on length-1 paths.
  EXPECT_EQ(m.count(Counter::kRelayed), 0u);
  EXPECT_EQ(m.count(Counter::kRelayRejectQueueFull), 0u);
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
}

TEST(SlotSimAudit, FullQueuesAreCountedNotSilent) {
  // A queue bound of 1 with a deep source window forces injection
  // rejections immediately — the audit must see them instead of the old
  // silent no-op.
  auto p = strong_params(256, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 293);
  rng::Xoshiro256 g(307);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 1500;
  opt.warmup = 300;
  opt.seed = 311;
  opt.max_queue = 1;
  opt.source_backlog = 8;
  Metrics m;
  opt.metrics = &m;
  auto r = run_slot_sim(net, dest, opt);
  EXPECT_GT(m.count(Counter::kInjectRejectQueueFull), 0u);
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
}

TEST(Fluid, ForcedSchemeADegeneracyIsSurfaced) {
  // Regression: forcing scheme A on an instance whose squarelet grid is
  // too small (f(n) = Θ(1) → fewer than kMinGrid cells) used to report
  // the degenerate evaluation as if it were a capacity. The outcome now
  // zeroes λ and labels the scheme so ablation tables can't mistake a
  // non-running scheme for a zero-capacity one.
  net::ScalingParams p = strong_params(512, /*with_bs=*/false);
  p.alpha = 0.0;  // full mixing: the mobility disk covers the torus
  FluidOptions opt;
  opt.seed = 11;
  opt.force = FluidOptions::ForceScheme::kA;
  const auto out = evaluate_capacity(p, opt);
  EXPECT_EQ(out.lambda, 0.0);
  EXPECT_EQ(out.lambda_symmetric, 0.0);
  EXPECT_NE(out.scheme.find("degenerate"), std::string::npos) << out.scheme;
  // A healthy grid keeps the plain forced label and a positive rate.
  const auto ok = evaluate_capacity(strong_params(4096, /*with_bs=*/false),
                                    opt);
  EXPECT_GT(ok.lambda, 0.0);
  EXPECT_EQ(ok.scheme.find("degenerate"), std::string::npos) << ok.scheme;
}

// --------------------------------------------------------------- faults --

// Shared scheme-B fault fixture: strong-regime instance with a plan that
// exercises every fault kind at distinct slots.
FaultPlan mixed_plan(std::size_t warmup) {
  FaultPlan plan;
  FaultEvent e;
  e.slot = static_cast<std::uint32_t>(warmup);
  e.kind = FaultKind::kBsDown;
  e.bs = 0;
  plan.events.push_back(e);
  e = {};
  e.slot = static_cast<std::uint32_t>(warmup + 200);
  e.kind = FaultKind::kWireScale;
  e.bs = 1;
  e.bs2 = 2;
  e.scale = 0.25;
  plan.events.push_back(e);
  e = {};
  e.slot = static_cast<std::uint32_t>(warmup + 400);
  e.kind = FaultKind::kBsUp;
  e.bs = 0;
  plan.events.push_back(e);
  return plan;
}

TEST(SlotSimFault, EmptyPlanIsExactlyFaultFree) {
  // Null plan, empty plan and no plan must be the same run bit for bit —
  // the fault machinery is all behind `faults_ != nullptr` guards.
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 331);
  rng::Xoshiro256 g(337);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 1500;
  opt.warmup = 300;
  opt.seed = 347;
  const auto plain = run_slot_sim(net, dest, opt);
  const FaultPlan empty;
  opt.faults = &empty;
  const auto with_empty = run_slot_sim(net, dest, opt);
  EXPECT_EQ(plain.total_delivered, with_empty.total_delivered);
  EXPECT_EQ(plain.injected, with_empty.injected);
  EXPECT_EQ(plain.queued_end, with_empty.queued_end);
  EXPECT_DOUBLE_EQ(plain.mean_flow_rate, with_empty.mean_flow_rate);
  EXPECT_DOUBLE_EQ(plain.pairs_per_slot, with_empty.pairs_per_slot);
  EXPECT_EQ(with_empty.dropped, 0u);
  EXPECT_EQ(with_empty.dropped_bs_outage, 0u);
}

TEST(SlotSimFault, ConservationClosesUnderMixedFaultsSchemeB) {
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 331);
  rng::Xoshiro256 g(337);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 2000;
  opt.warmup = 400;
  opt.seed = 347;
  const FaultPlan plan = mixed_plan(opt.warmup);
  opt.faults = &plan;
  Metrics m;
  opt.metrics = &m;
  const auto r = run_slot_sim(net, dest, opt);
  // The conservation identity closes with drops in the ledger (also
  // checked internally, including window == injected − delivered −
  // dropped: a dropped packet must release its flow-control slot).
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
  EXPECT_EQ(r.dropped, r.dropped_bs_outage);
  EXPECT_EQ(m.count(Counter::kDroppedBsOutage), r.dropped_bs_outage);
  EXPECT_EQ(m.count(Counter::kDropped), r.dropped);
  // BS 0 served someone (ClusteredMatched puts a BS in every populated
  // cluster), so killing it re-homed at least one MS.
  EXPECT_GT(m.count(Counter::kMsRehomed), 0u);
  // Saturated sources keep BS queues non-empty; the dying queue dropped.
  EXPECT_GT(r.dropped_bs_outage, 0u);
  // The run survived the outage: packets still flow.
  EXPECT_GT(r.delivered_lifetime, 0u);
}

TEST(SlotSimFault, ConservationClosesUnderRegionalOutageSchemeC) {
  auto p = trivial_params(512);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 353);
  rng::Xoshiro256 g(359);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeC;
  opt.slots = 2000;
  opt.warmup = 400;
  opt.seed = 367;
  FaultPlan plan;
  FaultEvent e;
  e.slot = static_cast<std::uint32_t>(opt.warmup);
  e.kind = FaultKind::kRegional;
  e.center = {0.5, 0.5};
  e.radius = 0.25;
  plan.events.push_back(e);
  opt.faults = &plan;
  Metrics m;
  m.enable_series(opt.slots);
  opt.metrics = &m;
  const auto r = run_slot_sim(net, dest, opt);
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
  EXPECT_EQ(r.dropped, r.dropped_bs_outage);
  // The disk actually killed BSs (ClusterGrid covers the torus) and the
  // survivors re-colored and kept serving.
  const std::size_t k = net.num_bs();
  ASSERT_FALSE(m.series().empty());
  EXPECT_EQ(m.series().front().live_bs, k);
  EXPECT_LT(m.series().back().live_bs, k);
  EXPECT_GT(m.series().back().live_bs, 0u);
  EXPECT_GT(m.count(Counter::kMsRehomed), 0u);
  EXPECT_GT(r.delivered_lifetime, 0u);
}

TEST(SlotSimFault, LiveBsSeriesTracksDownAndUp) {
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 331);
  rng::Xoshiro256 g(337);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 1500;
  opt.warmup = 300;
  opt.seed = 347;
  const FaultPlan plan = mixed_plan(opt.warmup);
  opt.faults = &plan;
  Metrics m;
  m.enable_series(opt.slots);
  opt.metrics = &m;
  run_slot_sim(net, dest, opt);
  const std::size_t k = net.num_bs();
  const auto& s = m.series();
  ASSERT_EQ(s.size(), opt.slots);
  EXPECT_EQ(s[opt.warmup - 1].live_bs, k);       // before the outage
  EXPECT_EQ(s[opt.warmup].live_bs, k - 1);       // BS 0 down
  EXPECT_EQ(s[opt.warmup + 400].live_bs, k);     // BS 0 back up
  EXPECT_EQ(s.back().live_bs, k);
}

TEST(SlotSimFault, RequiresInfrastructureScheme) {
  // A network that HAS base stations, driven by scheme A (which ignores
  // them): the plan passes shape validation and the scheme gate throws.
  auto p = strong_params(128);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 373);
  rng::Xoshiro256 g(379);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 100;
  opt.warmup = 10;
  FaultPlan plan;
  FaultEvent e;
  e.slot = 50;
  e.kind = FaultKind::kBsDown;
  e.bs = 0;
  plan.events.push_back(e);
  opt.faults = &plan;
  try {
    run_slot_sim(net, dest, opt);
    FAIL() << "fault plan on scheme A must throw";
  } catch (const CheckError& err) {
    EXPECT_NE(std::string(err.what()).find("infrastructure"),
              std::string::npos)
        << err.what();
  }
}

TEST(SlotSimFault, RefusesToKillLastLiveBs) {
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 383);
  rng::Xoshiro256 g(389);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 200;
  opt.warmup = 20;
  FaultPlan plan;
  for (std::uint32_t l = 0; l < net.num_bs(); ++l) {
    FaultEvent e;
    e.slot = 50;
    e.kind = FaultKind::kBsDown;
    e.bs = l;
    plan.events.push_back(e);
  }
  opt.faults = &plan;
  try {
    run_slot_sim(net, dest, opt);
    FAIL() << "downing every BS must throw";
  } catch (const CheckError& err) {
    EXPECT_NE(std::string(err.what()).find("no live base station"),
              std::string::npos)
        << err.what();
  }
}

TEST(SlotSimFault, PlanValidationNamesEachError) {
  const auto expect_invalid = [](const FaultPlan& plan, std::size_t k,
                                 std::size_t slots,
                                 const std::string& needle) {
    try {
      plan.validate(k, slots);
      FAIL() << "expected validation error containing '" << needle << "'";
    } catch (const CheckError& err) {
      EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
          << err.what();
    }
  };
  FaultEvent down;
  down.slot = 10;
  down.kind = FaultKind::kBsDown;
  down.bs = 0;

  {  // decreasing slots
    FaultPlan plan;
    plan.events.push_back(down);
    FaultEvent earlier = down;
    earlier.slot = 5;
    plan.events.push_back(earlier);
    expect_invalid(plan, 4, 100, "slot order");
  }
  {  // event beyond the run
    FaultPlan plan;
    FaultEvent e = down;
    e.slot = 100;
    plan.events.push_back(e);
    expect_invalid(plan, 4, 100, ">= slots");
  }
  {  // BS index out of range
    FaultPlan plan;
    FaultEvent e = down;
    e.bs = 4;
    plan.events.push_back(e);
    expect_invalid(plan, 4, 100, "BS index");
  }
  {  // wired self-loop
    FaultPlan plan;
    FaultEvent e;
    e.slot = 10;
    e.kind = FaultKind::kWireScale;
    e.bs = 1;
    e.bs2 = 1;
    e.scale = 0.5;
    plan.events.push_back(e);
    expect_invalid(plan, 4, 100, "must differ");
  }
  {  // scale out of [0, 1]
    FaultPlan plan;
    FaultEvent e;
    e.slot = 10;
    e.kind = FaultKind::kWireScale;
    e.bs = 0;
    e.bs2 = 1;
    e.scale = 1.5;
    plan.events.push_back(e);
    expect_invalid(plan, 4, 100, "scale");
  }
  {  // negative radius
    FaultPlan plan;
    FaultEvent e;
    e.slot = 10;
    e.kind = FaultKind::kRegional;
    e.center = {0.5, 0.5};
    e.radius = -0.1;
    plan.events.push_back(e);
    expect_invalid(plan, 4, 100, "radius");
  }
}

TEST(SlotSimFault, ParseRoundTripsTheGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "down@10:3; wire@20:1-2x0.5; region@30:0.25,0.75,0.1; up@40:3");
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kBsDown);
  EXPECT_EQ(plan.events[0].slot, 10u);
  EXPECT_EQ(plan.events[0].bs, 3u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kWireScale);
  EXPECT_EQ(plan.events[1].bs, 1u);
  EXPECT_EQ(plan.events[1].bs2, 2u);
  EXPECT_DOUBLE_EQ(plan.events[1].scale, 0.5);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kRegional);
  EXPECT_DOUBLE_EQ(plan.events[2].center.x, 0.25);
  EXPECT_DOUBLE_EQ(plan.events[2].center.y, 0.75);
  EXPECT_DOUBLE_EQ(plan.events[2].radius, 0.1);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kBsUp);
  plan.validate(4, 100);
  EXPECT_FALSE(plan.describe().empty());

  EXPECT_THROW(FaultPlan::parse("explode@10:3"), CheckError);
  EXPECT_THROW(FaultPlan::parse("down@10"), CheckError);
  EXPECT_THROW(FaultPlan::parse("wire@20:1-2"), CheckError);
  EXPECT_THROW(FaultPlan::parse("down@ten:3"), CheckError);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(SlotSimFault, ReferenceSimRejectsFaultPlans) {
  auto p = strong_params(128);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 397);
  rng::Xoshiro256 g(401);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 100;
  opt.warmup = 10;
  FaultPlan plan;
  FaultEvent e;
  e.slot = 50;
  e.kind = FaultKind::kBsDown;
  e.bs = 0;
  plan.events.push_back(e);
  opt.faults = &plan;
  EXPECT_THROW(run_slot_sim_reference(net, dest, opt), CheckError);
  // An empty plan is fine — it is exactly a fault-free run.
  const FaultPlan empty;
  opt.faults = &empty;
  const auto r = run_slot_sim_reference(net, dest, opt);
  EXPECT_GT(r.injected, 0u);
}

TEST(Sweep, MetricsAggregateAcrossCellsAndThreads) {
  // When the sweep aggregates audit counters, every (size, trial) cell
  // receives a fresh registry via EvalContext::metrics and the registries
  // merge in fixed order — the aggregate must be identical for any thread
  // count.
  const std::vector<std::size_t> sizes = {128, 256, 512};
  const std::size_t trials = 3;
  SweepEvaluator eval = [](const EvalContext& ctx) {
    EXPECT_NE(ctx.metrics, nullptr);
    ctx.metrics->add(Counter::kInjected, ctx.params.n);
    ctx.metrics->inc(Counter::kDelivered);
    return 1.0;
  };
  std::uint64_t expected_injected = 0;
  for (std::size_t n : sizes) expected_injected += n * trials;

  for (std::size_t threads : {1u, 4u}) {
    SweepOptions opt;
    opt.num_threads = threads;
    opt.seed0 = 5;
    Metrics agg;
    opt.metrics = &agg;
    run_sweep(strong_params(0), sizes, trials, eval, opt);
    EXPECT_EQ(agg.count(Counter::kInjected), expected_injected);
    EXPECT_EQ(agg.count(Counter::kDelivered), sizes.size() * trials);
  }
}

// --------------------------------------------------- interference backends --

// Named SlotSimPhy* so the TSan CI job's gtest filter picks these up
// alongside the other threaded SlotSim suites.

SlotSimResult run_phy(const net::Network& net,
                      const std::vector<std::uint32_t>& dest,
                      SlotSimOptions opt) {
  return run_slot_sim(net, dest, opt);
}

// Explicitly selecting the protocol backend must take the historical code
// path exactly: every result field bit-identical to the default.
TEST(SlotSimPhy, ProtocolFlagIsByteIdenticalToDefault) {
  auto p = strong_params(256, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 301);
  rng::Xoshiro256 g(303);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 400;
  opt.warmup = 100;
  opt.seed = 305;
  const auto base = run_phy(net, dest, opt);
  opt.phy = phy::PhyKind::kProtocol;
  // Even absurd SINR params are inert under protocol (never validated).
  opt.sinr.beta = 1e9;
  const auto flagged = run_phy(net, dest, opt);
  EXPECT_EQ(base.total_delivered, flagged.total_delivered);
  EXPECT_EQ(base.injected, flagged.injected);
  EXPECT_EQ(base.queued_end, flagged.queued_end);
  EXPECT_DOUBLE_EQ(base.mean_flow_rate, flagged.mean_flow_rate);
  EXPECT_DOUBLE_EQ(base.pairs_per_slot, flagged.pairs_per_slot);
  EXPECT_DOUBLE_EQ(base.mean_delay, flagged.mean_delay);
}

// The SINR filter runs serially on a per-slot snapshot, so the sharded
// parallel phases must not be able to perturb it: results are bit-identical
// for every shard count, with and without CSMA.
TEST(SlotSimPhy, SinrBitIdenticalAcrossShards) {
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 307);
  rng::Xoshiro256 g(311);
  auto dest = net::permutation_traffic(p.n, g);
  for (phy::PhyKind kind : {phy::PhyKind::kSinr, phy::PhyKind::kSinrCsma}) {
    SlotSimOptions opt;
    opt.scheme = SlotScheme::kSchemeB;
    opt.slots = 300;
    opt.warmup = 60;
    opt.seed = 313;
    opt.phy = kind;
    opt.sinr.beta = 3.0;     // noise-limited enough that the filter bites
    opt.sinr.snr_edge = 4.0;
    opt.shards = 1;
    const auto serial = run_phy(net, dest, opt);
    for (std::size_t shards : {2UL, 4UL}) {
      opt.shards = shards;
      const auto sharded = run_phy(net, dest, opt);
      EXPECT_EQ(serial.total_delivered, sharded.total_delivered)
          << phy::to_string(kind) << " shards " << shards;
      EXPECT_EQ(serial.injected, sharded.injected);
      EXPECT_EQ(serial.queued_end, sharded.queued_end);
      EXPECT_DOUBLE_EQ(serial.mean_flow_rate, sharded.mean_flow_rate);
      EXPECT_DOUBLE_EQ(serial.pairs_per_slot, sharded.pairs_per_slot);
    }
  }
}

TEST(SlotSimPhy, SchemeCRejectsNonProtocolBackend) {
  auto p = trivial_params(512);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusterGrid, 317);
  rng::Xoshiro256 g(319);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeC;
  opt.slots = 200;
  opt.warmup = 40;
  opt.phy = phy::PhyKind::kSinr;
  try {
    run_slot_sim(net, dest, opt);
    FAIL() << "expected CheckError";
  } catch (const manetcap::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("scheme C"), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(SlotSimPhy, InvalidSinrParamsRejectedAtRunStart) {
  auto p = strong_params(64, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 321);
  rng::Xoshiro256 g(323);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.phy = phy::PhyKind::kSinr;
  opt.sinr.path_loss = 2.0;  // far field diverges
  EXPECT_THROW(run_slot_sim(net, dest, opt), manetcap::CheckError);
}

// A noise-limited configuration must visibly cut the schedule: fewer
// concurrent pairs than the protocol run, with the cut accounted in the
// phy_sinr_rejected audit counter. A hair-trigger CCA shows up in
// phy_csma_suppressed the same way.
TEST(SlotSimPhy, RejectionCountersAccountForTheCut) {
  auto p = strong_params(256, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 327);
  rng::Xoshiro256 g(331);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 300;
  opt.warmup = 60;
  opt.seed = 337;
  const auto protocol = run_phy(net, dest, opt);

  Metrics m;
  opt.metrics = &m;
  opt.phy = phy::PhyKind::kSinr;
  opt.sinr.beta = 5.0;
  opt.sinr.snr_edge = 2.0;  // edge links fail on noise alone
  const auto sinr = run_phy(net, dest, opt);
  EXPECT_GT(m.count(Counter::kPhySinrRejected), 0u);
  EXPECT_EQ(m.count(Counter::kPhyCsmaSuppressed), 0u);
  EXPECT_LT(sinr.pairs_per_slot, protocol.pairs_per_slot);

  Metrics mc;
  opt.metrics = &mc;
  opt.phy = phy::PhyKind::kSinrCsma;
  opt.sinr = {};
  opt.sinr.cca = 0.05;
  const auto csma = run_phy(net, dest, opt);
  EXPECT_GT(mc.count(Counter::kPhyCsmaSuppressed), 0u);
  EXPECT_LT(csma.pairs_per_slot, protocol.pairs_per_slot);
}

// The fluid engine consumes a non-protocol backend as a wireless-capacity
// derate: the Monte-Carlo pair-survival ratio of the instance.
TEST(SlotSimPhy, FluidSurvivalRatioDeratesCapacity) {
  auto p = strong_params(512, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 353);
  phy::SinrParams harsh;
  harsh.beta = 5.0;
  harsh.snr_edge = 2.0;
  EXPECT_DOUBLE_EQ(
      sinr_survival_ratio(net, phy::PhyKind::kProtocol, harsh, 7), 1.0);
  const double ratio =
      sinr_survival_ratio(net, phy::PhyKind::kSinr, harsh, 7);
  EXPECT_GT(ratio, 0.0);
  EXPECT_LT(ratio, 1.0);  // the noise-limited config must cut something
  EXPECT_DOUBLE_EQ(ratio,
                   sinr_survival_ratio(net, phy::PhyKind::kSinr, harsh, 7));

  EvalContext ctx;
  ctx.params = p;
  ctx.seed = 7;
  EngineOptions eopt;
  eopt.slots = 400;
  eopt.warmup = 80;
  const double base = measure_instance(EngineKind::kFluid, ctx, eopt);
  eopt.phy = phy::PhyKind::kSinr;
  eopt.sinr = harsh;
  const double derated = measure_instance(EngineKind::kFluid, ctx, eopt);
  EXPECT_GT(base, 0.0);
  EXPECT_GT(derated, 0.0);
  EXPECT_LT(derated, base);
}

// The checkpoint config echo covers the PHY backend: resuming under a
// different interference model must fail loudly, not silently blend two
// physical models in one trajectory.
TEST(SlotSimPhy, CheckpointRejectsBackendMismatch) {
  auto p = strong_params(128, /*with_bs=*/false);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 341);
  rng::Xoshiro256 g(347);
  auto dest = net::permutation_traffic(p.n, g);
  const std::string path = testing::TempDir() + "manetcap_phy_mismatch.ckpt";
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeA;
  opt.slots = 200;
  opt.warmup = 40;
  opt.seed = 349;
  opt.phy = phy::PhyKind::kSinr;
  opt.checkpoint_every = 100;
  opt.checkpoint_path = path;
  run_slot_sim(net, dest, opt);

  SlotSimOptions resume = opt;
  resume.checkpoint_every = 0;
  resume.checkpoint_path.clear();
  resume.resume_path = path;
  resume.phy = phy::PhyKind::kProtocol;  // different backend
  try {
    run_slot_sim(net, dest, resume);
    FAIL() << "expected CheckError";
  } catch (const manetcap::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("phy"), std::string::npos)
        << "got: " << e.what();
  }
  // Same backend and parameters: resume completes and matches the
  // uninterrupted run.
  resume.phy = phy::PhyKind::kSinr;
  const auto resumed = run_slot_sim(net, dest, resume);
  opt.checkpoint_every = 0;
  opt.checkpoint_path.clear();
  const auto full = run_slot_sim(net, dest, opt);
  EXPECT_EQ(full.total_delivered, resumed.total_delivered);
  EXPECT_DOUBLE_EQ(full.mean_flow_rate, resumed.mean_flow_rate);
  std::remove(path.c_str());
}

TEST(SlotSimTraffic, DefaultSpecDemandsMatchDestPathExactly) {
  // The demand overload with a default TrafficSpec must reproduce the
  // historical dest-overload run bit for bit: the draw consumes the same
  // RNG stream and every new branch is behind a demands_ guard.
  auto p = strong_params(192);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 811);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 1200;
  opt.warmup = 240;
  opt.seed = 821;

  rng::Xoshiro256 g1(traffic_seed(opt.seed));
  const auto dest = net::permutation_traffic(p.n, g1);
  rng::Xoshiro256 g2(traffic_seed(opt.seed));
  const auto demands =
      net::make_traffic_model(net::TrafficSpec{})->draw(p.n, g2);
  ASSERT_EQ(net::dest_of(demands), dest);

  const auto a = run_slot_sim(net, dest, opt);
  const auto b = run_slot_sim(net, demands, opt);
  EXPECT_EQ(a.total_delivered, b.total_delivered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.queued_end, b.queued_end);
  EXPECT_DOUBLE_EQ(a.mean_flow_rate, b.mean_flow_rate);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
  EXPECT_DOUBLE_EQ(a.pairs_per_slot, b.pairs_per_slot);
}

TEST(SlotSimTraffic, OutOfRangeDestIsANamedError) {
  // Regression: a dest id >= n used to be an out-of-bounds CSR read.
  // Both overloads must reject it up front with a named error.
  auto p = strong_params(64);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 823);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 100;
  opt.warmup = 10;

  rng::Xoshiro256 g(traffic_seed(opt.seed));
  auto dest = net::permutation_traffic(p.n, g);
  dest[5] = static_cast<std::uint32_t>(p.n);  // one past the end
  try {
    run_slot_sim(net, dest, opt);
    FAIL() << "expected CheckError";
  } catch (const manetcap::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << "got: " << e.what();
  }

  rng::Xoshiro256 g2(traffic_seed(opt.seed));
  auto demands = net::make_traffic_model(net::TrafficSpec{})->draw(p.n, g2);
  demands[5].dst = static_cast<std::uint32_t>(p.n) + 7;
  EXPECT_THROW(run_slot_sim(net, demands, opt), manetcap::CheckError);
}

TEST(SlotSimTraffic, ConservationClosesUnderHotspotBurstyLoad) {
  auto p = strong_params(192);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 827);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 1500;
  opt.warmup = 300;
  opt.seed = 829;
  Metrics m;
  opt.metrics = &m;

  const auto tspec = net::TrafficSpec::parse(
      "hotspot:0.1,0.8; pareto:1.5,200; onoff:30,60; start:200");
  rng::Xoshiro256 g(traffic_seed(opt.seed));
  const auto demands = net::make_traffic_model(tspec)->draw(p.n, g);
  const auto r = run_slot_sim(net, demands, opt);

  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
  EXPECT_GT(r.delivered_lifetime, 0u);
  // A 1/3 duty cycle over 1500 slots must gate some injection attempts.
  EXPECT_GT(m.count(Counter::kInjectGatedTraffic), 0u);
  // No churn plan: churn counters stay exactly zero.
  EXPECT_EQ(m.count(Counter::kMsLeft), 0u);
  EXPECT_EQ(m.count(Counter::kDroppedMsChurn), 0u);
}

TEST(SlotSimTraffic, ShardsAreBitIdenticalUnderTrafficAndChurn) {
  auto p = strong_params(192);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 839);
  const auto tspec =
      net::TrafficSpec::parse("hotspot:0.15,0.7; onoff:40,80");
  const FaultPlan plan =
      FaultPlan::parse("leave@400:3; join@700:3; leave@900:17");

  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 1500;
  opt.warmup = 300;
  opt.seed = 853;
  opt.faults = &plan;

  rng::Xoshiro256 g(traffic_seed(opt.seed));
  const auto demands = net::make_traffic_model(tspec)->draw(p.n, g);
  opt.shards = 1;
  const auto serial = run_slot_sim(net, demands, opt);
  for (std::size_t shards : {2u, 4u}) {
    opt.shards = shards;
    const auto sharded = run_slot_sim(net, demands, opt);
    EXPECT_EQ(serial.total_delivered, sharded.total_delivered)
        << "shards=" << shards;
    EXPECT_EQ(serial.injected, sharded.injected);
    EXPECT_EQ(serial.dropped, sharded.dropped);
    EXPECT_DOUBLE_EQ(serial.mean_flow_rate, sharded.mean_flow_rate);
    EXPECT_DOUBLE_EQ(serial.mean_delay, sharded.mean_delay);
  }
}

TEST(SlotSimChurn, ConservationClosesUnderLeaveAndJoin) {
  auto p = strong_params(256);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 857);
  rng::Xoshiro256 g(859);
  auto dest = net::permutation_traffic(p.n, g);
  const FaultPlan plan =
      FaultPlan::parse("leave@500:3; leave@600:40; join@900:3");

  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 2000;
  opt.warmup = 400;
  opt.seed = 863;
  opt.faults = &plan;
  Metrics m;
  opt.metrics = &m;
  const auto r = run_slot_sim(net, dest, opt);

  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
  EXPECT_EQ(r.dropped, r.dropped_ms_churn);
  EXPECT_EQ(m.count(Counter::kDroppedMsChurn), r.dropped_ms_churn);
  EXPECT_EQ(m.count(Counter::kMsLeft), 2u);
  EXPECT_EQ(m.count(Counter::kMsJoined), 1u);
  // Saturated CBR keeps queues non-empty, so each departure flushed
  // packets (its own queue plus in-flight packets addressed to it).
  EXPECT_GT(r.dropped_ms_churn, 0u);
  // Absent sources cannot inject: the gate counter must have fired.
  EXPECT_GT(m.count(Counter::kInjectBlockedChurn), 0u);
  EXPECT_GT(r.delivered_lifetime, 0u);
}

TEST(SlotSimChurn, FirstEventJoinStartsAbsent) {
  // An MS whose first churn event is a join is absent from slot 0 — its
  // flow injects nothing until the join fires.
  auto p = strong_params(128);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 877);
  rng::Xoshiro256 g(881);
  auto dest = net::permutation_traffic(p.n, g);
  const FaultPlan plan = FaultPlan::parse("join@800:5");

  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 1200;
  opt.warmup = 240;
  opt.seed = 883;
  opt.faults = &plan;
  Metrics m;
  opt.metrics = &m;
  const auto r = run_slot_sim(net, dest, opt);
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
  EXPECT_EQ(m.count(Counter::kMsJoined), 1u);
  EXPECT_EQ(m.count(Counter::kMsLeft), 0u);
  EXPECT_GT(m.count(Counter::kInjectBlockedChurn), 0u);
}

TEST(SlotSimChurn, CheckpointRefusedWithShiftPlans) {
  auto p = strong_params(64);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 887);
  rng::Xoshiro256 g(907);
  auto dest = net::permutation_traffic(p.n, g);
  const FaultPlan plan = FaultPlan::parse("shift@300:walk");

  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 600;
  opt.warmup = 120;
  opt.faults = &plan;
  opt.checkpoint_every = 100;
  opt.checkpoint_path = "churn_shift_ckpt.bin";
  try {
    run_slot_sim(net, dest, opt);
    FAIL() << "expected CheckError";
  } catch (const manetcap::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("mobility-shift"),
              std::string::npos)
        << "got: " << e.what();
  }
  // Without checkpointing the same plan runs, shifts once and conserves.
  opt.checkpoint_every = 0;
  opt.checkpoint_path.clear();
  Metrics m;
  opt.metrics = &m;
  const auto r = run_slot_sim(net, dest, opt);
  EXPECT_EQ(m.count(Counter::kMobilityShifts), 1u);
  EXPECT_EQ(r.injected, r.delivered_lifetime + r.queued_end + r.dropped);
}

TEST(SlotSimChurn, CheckpointRoundTripsUnderTrafficAndChurn) {
  // Checkpoint/resume must reproduce the uninterrupted run exactly even
  // with a traffic model (on-off gate state) and churn (presence table)
  // in flight.
  auto p = strong_params(128);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 911);
  const auto tspec = net::TrafficSpec::parse("hotspot:0.2,0.6; onoff:25,50");
  const FaultPlan plan = FaultPlan::parse("leave@300:7; join@600:7");
  const std::string path = "churn_traffic_ckpt.bin";

  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 1000;
  opt.warmup = 200;
  opt.seed = 919;
  opt.faults = &plan;
  rng::Xoshiro256 g(traffic_seed(opt.seed));
  const auto demands = net::make_traffic_model(tspec)->draw(p.n, g);

  const auto full = run_slot_sim(net, demands, opt);
  opt.checkpoint_every = 450;
  opt.checkpoint_path = path;
  run_slot_sim(net, demands, opt);
  SlotSimOptions resume = opt;
  resume.checkpoint_every = 0;
  resume.checkpoint_path.clear();
  resume.resume_path = path;
  const auto resumed = run_slot_sim(net, demands, resume);
  EXPECT_EQ(full.total_delivered, resumed.total_delivered);
  EXPECT_EQ(full.injected, resumed.injected);
  EXPECT_EQ(full.dropped, resumed.dropped);
  EXPECT_DOUBLE_EQ(full.mean_flow_rate, resumed.mean_flow_rate);
  std::remove(path.c_str());
}


// ---------------------------------------------------- capacity frontier --
//
// The generalized infrastructure axes (phi backhaul, L antennas) ride the
// fluid engine and the sweep harness; bench/ext_cost_frontier gates the
// capacity-law bends in CI. These tests pin the determinism and the
// engine boundary that the bench relies on.

TEST(CapacityFrontier, SweepOverNewAxesIsBitIdenticalAcrossThreads) {
  // A forced scheme-C sweep at a generalized point (phi < 0, L > 0):
  // exactly the kind of spot ext_cost_frontier measures. Any thread-order
  // leak into the reduction would change the bits of the fit.
  auto p = trivial_params(0);
  p.phi = -0.4;
  p.L = 0.2;
  SweepEvaluator eval = [](const EvalContext& ctx) {
    FluidOptions opt;
    opt.seed = ctx.seed;
    opt.force = FluidOptions::ForceScheme::kC;
    opt.placement = net::BsPlacement::kClusterGrid;
    return evaluate_capacity(ctx.params, opt).lambda_symmetric;
  };
  const auto sizes = geometric_sizes(512, 2.0, 3);
  SweepOptions serial;
  serial.num_threads = 1;
  serial.seed0 = 97;
  auto a = run_sweep(p, sizes, 2, eval, serial);
  SweepOptions parallel = serial;
  parallel.num_threads = 4;
  auto b = run_sweep(p, sizes, 2, eval, parallel);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].lambda_gm, b.points[i].lambda_gm);
    EXPECT_DOUBLE_EQ(a.points[i].lambda_min, b.points[i].lambda_min);
    EXPECT_DOUBLE_EQ(a.points[i].lambda_max, b.points[i].lambda_max);
  }
  ASSERT_TRUE(a.fit_valid);
  ASSERT_TRUE(b.fit_valid);
  EXPECT_DOUBLE_EQ(a.fit.exponent, b.fit.exponent);
}

TEST(CapacityFrontier, AntennasLiftTheFluidEstimateAtSamePoint) {
  // Same network draw, L = 0 vs L > 0: the only change is the antenna
  // multiplier in the scheme-C cell rows, so lambda must not drop and
  // must gain at most a factor l.
  auto p = trivial_params(8192);
  p.phi = 0.4;
  FluidOptions opt;
  opt.seed = 41;
  opt.force = FluidOptions::ForceScheme::kC;
  opt.placement = net::BsPlacement::kClusterGrid;
  auto single = evaluate_capacity(p, opt);
  auto q = p;
  q.L = 0.25;
  auto multi = evaluate_capacity(q, opt);
  EXPECT_GT(multi.lambda_symmetric, single.lambda_symmetric);
  EXPECT_LE(multi.lambda_symmetric,
            single.lambda_symmetric * static_cast<double>(q.l()) * 1.0001);
}

TEST(CapacityFrontier, SlotSimRejectsAntennaScaling) {
  // The packet engine's golden traces pin single-antenna BS event order;
  // L > 0 must be a named error pointing at the fluid engine, not a
  // silently-ignored knob.
  auto p = strong_params(512);
  p.L = 0.25;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kUniform, 17);
  rng::Xoshiro256 g(19);
  auto dest = net::permutation_traffic(p.n, g);
  SlotSimOptions opt;
  opt.scheme = SlotScheme::kSchemeB;
  opt.slots = 100;
  opt.warmup = 0;
  opt.seed = 21;
  try {
    run_slot_sim(net, dest, opt);
    FAIL() << "SlotSim accepted L > 0";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("single-antenna"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("fluid"), std::string::npos);
  }
}

}  // namespace
}  // namespace manetcap::sim
