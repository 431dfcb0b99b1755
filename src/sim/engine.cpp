#include "sim/engine.h"

#include <memory>
#include <stdexcept>

#include "mobility/process.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sched/sstar.h"

namespace manetcap::sim {

std::string to_string(EngineKind k) {
  switch (k) {
    case EngineKind::kFluid:
      return "fluid";
    case EngineKind::kSlots:
      return "slots";
    case EngineKind::kAuto:
      return "auto";
  }
  return "?";
}

EngineKind parse_engine(const std::string& s) {
  if (s == "fluid") return EngineKind::kFluid;
  if (s == "slots") return EngineKind::kSlots;
  if (s == "auto") return EngineKind::kAuto;
  throw std::runtime_error("unknown engine: " + s +
                           " (expected fluid|slots|auto)");
}

EngineKind resolve_engine(EngineKind kind, std::size_t n) {
  if (kind != EngineKind::kAuto) return kind;
  return n < 1024 ? EngineKind::kSlots : EngineKind::kFluid;
}

net::BsPlacement engine_placement(const net::ScalingParams& params,
                                  bool scheme_c, net::BsPlacement base) {
  if (!params.with_bs) return net::BsPlacement::kUniform;
  if (scheme_c && !params.cluster_free())
    return net::BsPlacement::kClusterGrid;
  return base;
}

double sinr_survival_ratio(const net::Network& net, phy::PhyKind kind,
                           const phy::SinrParams& sinr, std::uint64_t seed) {
  constexpr std::size_t kSnapshots = 32;
  if (kind == phy::PhyKind::kProtocol) return 1.0;
  const SlotSimOptions defaults;  // canonical ct / Δ shared by both engines
  const auto model = phy::make_interference_model(kind, defaults.delta, sinr);
  sched::SStarScheduler sstar(defaults.ct, defaults.delta);
  mobility::IidStationaryMobility process(net.ms_home(), net.shape(),
                                          1.0 / net.params().f(), seed);
  const double rt = sstar.range_for(net.num_ms() + net.num_bs());
  phy::InterferenceModel::Workspace phyws;
  std::uint64_t total = 0;
  std::uint64_t kept = 0;
  for (std::size_t s = 0; s < kSnapshots; ++s) {
    std::vector<geom::Point> pos = process.positions();
    pos.insert(pos.end(), net.bs_pos().begin(), net.bs_pos().end());
    auto pairs = sstar.feasible_pairs(pos);
    total += pairs.size();
    phy::PhyStats ps;
    model->filter_pairs(pos, rt, pairs, phyws, &ps);
    kept += pairs.size();
    process.step();
  }
  // An instance that never schedules a pair has nothing to derate.
  if (total == 0) return 1.0;
  return static_cast<double>(kept) / static_cast<double>(total);
}

FlowSimResult run_flow_sim_derated(
    const std::function<FlowSimResult(const FlowSimOptions&)>& run,
    FlowSimOptions opt, double survival) {
  if (survival == 0.0) return {};  // no wireless pair ever clears β
  // Schemes A and B model the derate exactly: bandwidth_share cuts their
  // wireless legs and leaves the wires untouched. Two-hop and static
  // multihop are wireless-only, so a uniform capacity derate scales their
  // achieved rates linearly; apply it to the result instead.
  const bool shares =
      opt.scheme == Scheme::kSchemeA || opt.scheme == Scheme::kSchemeB;
  opt.bandwidth_share = shares ? survival : 1.0;
  FlowSimResult r = run(opt);
  if (!shares) {
    r.mean_flow_rate *= survival;
    r.min_flow_rate *= survival;
    r.p10_flow_rate *= survival;
    r.lambda_strict *= survival;
  }
  return r;
}

double measure_instance(EngineKind kind, const EvalContext& ctx,
                        const EngineOptions& opt) {
  kind = resolve_engine(kind, ctx.params.n);
  Scheme scheme = select_scheme(ctx.params);
  // The packet engine has no static multihop; pure ad hoc networks run
  // scheme A there regardless of regime.
  if (kind == EngineKind::kSlots && scheme == Scheme::kStaticMultihop)
    scheme = Scheme::kSchemeA;
  const auto placement = engine_placement(
      ctx.params, scheme == Scheme::kSchemeC, opt.placement);
  const auto net =
      net::Network::build(ctx.params, opt.shape, placement, ctx.seed);
  rng::Xoshiro256 g(traffic_seed(ctx.seed));
  // The default spec takes the historical dest-overload path exactly; a
  // custom spec draws its demand set from the same canonical traffic seed,
  // so fluid and slots measure the same workload instance.
  std::vector<net::FlowDemand> demands;
  std::vector<std::uint32_t> dest;
  if (opt.traffic.is_default())
    dest = net::permutation_traffic(ctx.params.n, g);
  else
    demands = net::make_traffic_model(opt.traffic)->draw(ctx.params.n, g);

  if (kind == EngineKind::kFluid) {
    const auto run = [&](const FlowSimOptions& o) {
      return opt.traffic.is_default() ? run_flow_sim(net, dest, o)
                                      : run_flow_sim(net, demands, o);
    };
    FlowSimOptions fopt;
    fopt.slots = opt.slots;
    fopt.warmup = opt.warmup;
    fopt.faults = opt.faults;
    fopt.grouping = bs_grouping(ctx.params);
    fopt.seed = ctx.seed;
    // Non-protocol backends derate the fluid engine's wireless capacities
    // by the instance's measured pair-survival ratio (docs/PHY.md).
    // Scheme C runs under the protocol model by design — see
    // EngineOptions::phy — so it takes no derate.
    const double survival =
        scheme == Scheme::kSchemeC
            ? 1.0
            : sinr_survival_ratio(net, opt.phy, opt.sinr,
                                  trial_seed(ctx.seed, 0, 2));
    auto mean_rate = [&](Scheme s) {
      fopt.scheme = s;
      FlowSimResult r = run_flow_sim_derated(run, fopt, survival);
      // Scheme A degenerates below the minimum grid; the paper's answer
      // (and fluid's) is the two-hop fallback, not a zero.
      if (r.degenerate) {
        fopt.scheme = Scheme::kTwoHop;
        r = run_flow_sim_derated(run, fopt, survival);
      }
      return r.mean_flow_rate;
    };
    double lambda = mean_rate(scheme);
    if (strong_hybrid(ctx.params)) lambda += mean_rate(Scheme::kSchemeB);
    return lambda;
  }
  SlotSimOptions sopt;
  sopt.scheme = scheme;
  sopt.slots = opt.slots;
  sopt.warmup = opt.warmup;
  sopt.seed = ctx.seed;
  sopt.faults = opt.faults;
  // Scheme C is TDMA-scheduled (no per-slot S* geometry), so the engine
  // layer pins it to the protocol model rather than letting SlotSim reject
  // the combination — the sweep can then mix regimes under one --phy flag.
  sopt.phy = scheme == Scheme::kSchemeC ? phy::PhyKind::kProtocol : opt.phy;
  sopt.sinr = opt.sinr;
  return (opt.traffic.is_default() ? run_slot_sim(net, dest, sopt)
                                   : run_slot_sim(net, demands, sopt))
      .mean_flow_rate;
}

SweepEvaluator make_engine_evaluator(EngineKind kind,
                                     const EngineOptions& opt) {
  return [kind, opt](const EvalContext& ctx) {
    return measure_instance(kind, ctx, opt);
  };
}

}  // namespace manetcap::sim
