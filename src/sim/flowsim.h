// Flow-level (fluid) simulation engine — the fast counterpart of SlotSim.
//
// Instead of moving packets slot by slot, FlowSim allocates a per-flow
// rate over the routing evaluator's constraint rows (TDMA share + bounded
// max-min water-filling over the shared routing::RateStructure incidence),
// then advances continuous per-flow volumes in slot-epochs: a flow's
// delivery lags its injection by its pipeline depth (store-and-forward
// hops), and cross-BS flows are paced by the same wired-credit token
// buckets SlotSim uses (sim/wire_credit.h) over the same serving tables
// (sim/route_tables.h).
//
// The engine reports the same Metrics counters and the same audit identity
// as the packet engine — injected == delivered + queued + dropped, where
// "queued" is the fluid backlog (injected volume not yet delivered) — so
// verify-style checks apply unchanged. See docs/FLOWSIM.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/constraints.h"
#include "net/network.h"
#include "net/traffic.h"
#include "routing/scheme_b.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "sim/scheme.h"

namespace manetcap::sim {

struct FlowSimOptions {
  Scheme scheme = Scheme::kSchemeA;
  std::size_t slots = 4000;   // simulated horizon, in SlotSim slots
  std::size_t warmup = 400;   // rate measurement starts here
  double ct = 0.3;     // S* contact threshold (matches SlotSimOptions)
  double delta = 1.0;  // protocol-model guard factor
  double bandwidth_share = 1.0;
  routing::BsGrouping grouping = routing::BsGrouping::kSquarelet;
  std::uint64_t seed = 1;  // recorded only; the fluid model is deterministic
  Metrics* metrics = nullptr;
  bool check_conservation = true;
  /// Optional churn timeline (sim/faults.h). The fluid engine accepts
  /// churn-only plans — leave@SLOT:MS / join@SLOT:MS — and refuses
  /// infrastructure or mobility-shift events with a named error (those
  /// need the packet engine's per-slot geometry). Epoch boundaries are
  /// clamped to churn slots, so liveness is constant within an epoch; a
  /// departure flushes the leaver's flows' fluid backlog into `dropped`.
  const FaultPlan* faults = nullptr;
};

struct FlowSimResult {
  // Measured per-flow delivery rates over [warmup, slots).
  double mean_flow_rate = 0.0;
  double min_flow_rate = 0.0;
  double p10_flow_rate = 0.0;
  /// Strict constraint-solver λ over the same rows the allocation used
  /// (identical to the routing evaluator's throughput.lambda).
  double lambda_strict = 0.0;
  double lambda_symmetric = 0.0;
  flow::Resource bottleneck = flow::Resource::kWirelessRelay;
  std::string bottleneck_label;
  bool degenerate = false;  // scheme cannot operate at this size (scheme A)
  std::size_t measured_slots = 0;
  std::size_t served_flows = 0;
  // Audit integers: injected == delivered_lifetime + queued_end + dropped.
  std::uint64_t injected = 0;
  std::uint64_t delivered_lifetime = 0;
  std::uint64_t queued_end = 0;
  std::uint64_t dropped = 0;
  std::uint64_t state_bytes = 0;
};

/// Runs the flow-level engine for permutation traffic `dest` over `net`.
FlowSimResult run_flow_sim(const net::Network& net,
                           const std::vector<std::uint32_t>& dest,
                           const FlowSimOptions& options);

/// Demand-set overload (net/traffic.h): the allocation water-fills as
/// usual, then each flow's offered rate is thinned by its on-off duty
/// cycle, gated on its start slot and clamped to its finite size — the
/// fluid rendering of the same per-flow demands SlotSim injects. A
/// demand set from the default TrafficSpec reproduces the dest overload
/// exactly.
FlowSimResult run_flow_sim(const net::Network& net,
                           const std::vector<net::FlowDemand>& demands,
                           const FlowSimOptions& options);

}  // namespace manetcap::sim
