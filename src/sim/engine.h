// Engine selection: one switch between the two measurement engines —
// FlowSim (flow-level, seconds at n = 10⁵) and SlotSim (packet-level,
// the ground truth) — exposed to run_sweep and the CLI as
// --engine fluid|slots|auto.
//
// Both engines measure the SAME instance: the network is built from the
// same (params, placement, seed) and the traffic permutation is drawn from
// the canonical sim::traffic_seed derivation, so a fluid-vs-slots delta is
// a modeling difference, never a sampling one.
#pragma once

#include <functional>
#include <string>

#include "net/network.h"
#include "sim/flowsim.h"
#include "sim/scheme.h"
#include "sim/slotsim.h"
#include "sim/sweep.h"

namespace manetcap::sim {

enum class EngineKind {
  kFluid,  // flow-level FlowSim (run_flow_sim)
  kSlots,  // packet-level SlotSim (run_slot_sim)
  kAuto,   // resolve_engine: slots below 1024 MSs, fluid at/above
};

std::string to_string(EngineKind k);

/// Parses "fluid" | "slots" | "auto"; throws std::runtime_error otherwise.
EngineKind parse_engine(const std::string& s);

/// The engine that runs an instance of `n` MSs: kAuto picks SlotSim below
/// 1024 MSs and FlowSim at or above — small instances are cheap enough for
/// packet-level fidelity, large ones need the flow engine's O(flows)
/// slot-epochs. kFluid and kSlots are returned unchanged.
EngineKind resolve_engine(EngineKind kind, std::size_t n);

/// Orchestration options. The shared (slots, warmup, phy, sinr) quartet
/// lives in the RunConfig base (sim/run_config.h); the engine defaults
/// are 2000/200. Under a non-protocol `phy` the slots engine re-evaluates
/// every slot's S* pair set; the fluid engine derates its wireless
/// capacities by the measured sinr_survival_ratio() of the instance.
/// Scheme C (trivial regime) always runs under the protocol model on both
/// engines — its TDMA schedule has no per-slot geometry to evaluate (the
/// decision is made here, at the orchestration layer).
struct EngineOptions : RunConfig {
  EngineOptions() {
    slots = 2000;
    warmup = 200;
  }

  mobility::ShapeKind shape = mobility::ShapeKind::kUniformDisk;
  net::BsPlacement placement = net::BsPlacement::kClusteredMatched;
  /// Traffic scenario both engines draw their demand set from
  /// (net/traffic.h). The default spec is the paper's uniform-permutation
  /// CBR and takes the historical code path exactly.
  net::TrafficSpec traffic;
  /// Optional fault/churn timeline forwarded to the engines. The slots
  /// engine accepts every kind; the fluid engine accepts churn-only plans
  /// (join/leave) and rejects infrastructure or mobility-shift events
  /// with a named error.
  const FaultPlan* faults = nullptr;
};

/// Monte-Carlo S*-pair survival ratio of one instance under a
/// non-protocol backend: the fraction of S*-scheduled pairs whose two
/// directions both clear β, over 32 i.i.d. mobility snapshots.
/// This is the factor the fluid engine derates its wireless capacities by
/// (wires are unaffected — FlowSimOptions::bandwidth_share semantics).
/// Deterministic in (net, seed); 1.0 for the protocol backend.
double sinr_survival_ratio(const net::Network& net, phy::PhyKind kind,
                           const phy::SinrParams& sinr, std::uint64_t seed);

/// FlowSim under a wireless pair-survival ratio `survival` (see
/// sinr_survival_ratio): schemes A and B carry it as their
/// bandwidth_share, the wireless-only schemes run at full share and their
/// rates scale by it. `run` runs FlowSim on the caller's traffic. At
/// survival 0 no pair clears β, nothing runs and the result is all zero.
FlowSimResult run_flow_sim_derated(
    const std::function<FlowSimResult(const FlowSimOptions&)>& run,
    FlowSimOptions opt, double survival);

/// BS placement actually used for an instance: no BSs → uniform;
/// clustered scheme C → cluster grid; else `base`.
net::BsPlacement engine_placement(const net::ScalingParams& params,
                                  bool scheme_c, net::BsPlacement base);

/// Builds the instance for `ctx` and measures its mean per-flow rate
/// (packets/slot) under the chosen engine, with the regime's scheme
/// (select_scheme; the strong hybrid sums A and B on the fluid engine).
/// kAuto resolves per instance (resolve_engine).
double measure_instance(EngineKind kind, const EvalContext& ctx,
                        const EngineOptions& opt);

/// run_sweep adapter: λ(n) points measured by the chosen engine.
SweepEvaluator make_engine_evaluator(EngineKind kind,
                                     const EngineOptions& opt = {});

}  // namespace manetcap::sim
