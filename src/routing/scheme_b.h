// Optimal routing scheme B (Definition 12) — infrastructure routing.
//
// Phase I:  a MS relays its traffic to the BSs it can reach wirelessly
//           (those within the mobility contact range of its home-point;
//           Lemma 9 shows the aggregate access rate is Θ(k/n)).
// Phase II: source-side BSs forward over the wired backbone to the BSs
//           serving the destination; each flow spreads uniformly over the
//           edges between the two BS groups.
// Phase III: destination-side BSs deliver wirelessly.
//
// The BS grouping is the squarelet tessellation with constant cell area in
// the strong-mobility regime, and the home-point clusters in the weak
// regime (Theorem 7 maps the squarelet argument onto clusters-as-subnets).
// Either way the fluid capacity comes out Θ(min(k²c/n, k/n)).
//
// Generalized model: with l = n^L antennas per BS (net.params().l(), from
// arXiv:1402.2042) each BS's aggregate access row caps at l·W_A instead of
// W_A, realizing the antenna-limited branch Θ(min(k·l, k²c, n)/n). At the
// paper's l = 1 the rows are arithmetically identical.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/constraints.h"
#include "net/network.h"
#include "routing/rate_structure.h"

namespace manetcap::routing {

enum class BsGrouping {
  kSquarelet,  // constant-area squarelets (strong mobility)
  kCluster,    // home-point clusters as subnets (weak mobility)
};

struct SchemeBResult {
  flow::ThroughputResult throughput;
  /// Typical-MS capacity: mean access rate and fluid backbone bound,
  /// without the per-MS/per-BS worst cases (see SchemeAResult).
  double lambda_symmetric = 0.0;
  std::size_t num_groups = 0;
  double min_access_rate = 0.0;   // min over covered MSs of µ_i^A (Lemma 9)
  double mean_access_rate = 0.0;
  double max_backbone_edge_load = 0.0;  // per wired edge, at λ = 1
  double wired_edge_capacity = 0.0;     // c(n)
  std::size_t unreachable_ms = 0;  // MSs with no BS in wireless contact
};

class SchemeB {
 public:
  /// An MS without any BS in wireless contact is excluded from the scheme
  /// and only counted (unreachable_ms) — in the strong regime the hybrid
  /// operation hands its flows to scheme A, and the fraction of such MSs
  /// vanishes as n grows (k/f² → ∞).
  explicit SchemeB(BsGrouping grouping = BsGrouping::kSquarelet);

  /// Fluid per-node capacity of scheme B for permutation traffic `dest`.
  /// Requires net.num_bs() ≥ 1. `include_flow` (optional, size n)
  /// restricts to a flow subset; `bandwidth_share` scales the *wireless*
  /// access capacities when the channel is split with a coexisting scheme
  /// (wires are unaffected).
  /// `rates` (optional) receives the per-flow constraint incidence for the
  /// flow-level engine.
  SchemeBResult evaluate(const net::Network& net,
                         const std::vector<std::uint32_t>& dest,
                         const std::vector<bool>* include_flow = nullptr,
                         double bandwidth_share = 1.0,
                         RateStructure* rates = nullptr) const;

 private:
  BsGrouping grouping_;
};

}  // namespace manetcap::routing
