// Optimal routing scheme A (Definition 11) — pure ad hoc multihop over
// mobility: squarelets of area Θ(1/f²), horizontal-then-vertical forwarding
// through random relays in contiguous squarelets. Achieves Θ(1/f(n)) in the
// uniformly dense regime (Lemma 5 / Theorem 3).
//
// Fluid evaluation: loads come from routing every permutation flow along
// its H-V squarelet path; the wireless capacity of each routed squarelet
// pair is the sum of S* link capacities μ(i,j) over its home-point pairs
// within contact (routing/routed_contacts.h). When the
// mobility disk covers a constant fraction of the torus (f(n) = Θ(1), fewer
// than kMinGrid cells fit) scheme A degenerates into two-hop relay and the
// caller should use TwoHopRelay instead; evaluate() reports that via
// `degenerate`.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/constraints.h"
#include "net/network.h"
#include "routing/rate_structure.h"

namespace manetcap::routing {

struct SchemeAResult {
  flow::ThroughputResult throughput;
  /// Typical-resource capacity: mean inter-squarelet capacity over mean
  /// load (plus the median endpoint airtime), instead of the strict
  /// worst-cell minimum. Converges to the Θ(1/f) law without the
  /// extreme-value bias of finite-n minima; within a constant of a
  /// feasible rate w.h.p. (cell occupancies concentrate, Lemma 1).
  double lambda_symmetric = 0.0;
  bool degenerate = false;      // grid too small for multihop forwarding
  int grid_side = 0;            // squarelets per side
  double mean_hops = 0.0;       // average H-V path length
  double min_intercell_capacity = 0.0;
  double max_intercell_load = 0.0;  // at λ = 1
};

class SchemeA {
 public:
  /// Fluid per-node capacity of scheme A for permutation traffic `dest`.
  /// `include_flow` (optional, size n) restricts the evaluation to a
  /// subset of flows — hybrid allocations (L-max-hop, scheme A ∥ B) route
  /// only part of the traffic here. `bandwidth_share` scales the wireless
  /// capacities when the channel is split between coexisting schemes.
  /// `rates` (optional) receives the per-flow constraint incidence for the
  /// flow-level engine.
  SchemeAResult evaluate(const net::Network& net,
                         const std::vector<std::uint32_t>& dest,
                         const std::vector<bool>* include_flow = nullptr,
                         double bandwidth_share = 1.0,
                         RateStructure* rates = nullptr) const;

  /// Minimum grid side below which the scheme is declared degenerate.
  static constexpr int kMinGrid = 4;

  /// Squarelet side relative to the mobility radius D/f, shared by every
  /// squarelet tessellation (unicast, multicast, L-max-hop, SlotSim).
  static constexpr double kCellSideFactor = 0.8;
  // Adjacent squarelets must stay within the MS–MS contact range 2D/f: the
  // worst-case home distance across a 4-adjacency is √5·side.
  static_assert(kCellSideFactor * kCellSideFactor * 5.0 < 4.0,
                "cell side too large: adjacent cells out of contact");
};

}  // namespace manetcap::routing
