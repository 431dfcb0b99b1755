// Design-rule helpers derived from the capacity laws — the quantitative
// version of Section IV's "optimal communication schemes and system
// parameters" discussion, extended with the generalized model's
// cost/capacity frontier (arXiv:1402.2042): how many antennas and how much
// backhaul to buy per BS-dollar. Used by examples/infrastructure_planning
// and bench/ext_cost_frontier.
#pragma once

#include "net/params.h"

namespace manetcap::capacity {

/// The smallest ϕ at which the backbone stops binding, ϕ* = min(L, 1 − K):
/// more backhaul than the antenna branch (K+L) or the saturation cap (1)
/// can use is pure waste. At L = 0 (K ≤ 1) this is the paper's order-optimal
/// µ_c = k·c = Θ(1), ϕ = 0: less starves the backbone (Remark 10
/// discussion; the paper's prose says 1, its own formula says 0 — see
/// DESIGN.md).
double recommended_phi(double L, double K);

/// The smallest L at which the antenna branch stops binding,
/// L* = max(0, min(ϕ, 1 − K)): extra antennas are useless once the
/// backbone (K+ϕ) or the saturation cap (1) binds, and at ϕ ≤ 0 a single
/// antenna already outruns the starved backbone.
double recommended_L(double phi, double K);

/// Smallest K such that the infrastructure term reaches a target capacity
/// exponent e (per λ = Θ(n^e)) at given ϕ and L: K = e + 1 − min(L, ϕ),
/// the paper's e + 1 − min(ϕ, 0) at L = 0. Returns a value > 1 when the
/// target is unreachable with k ≤ n. The smallest K at which infrastructure
/// starts to dominate mobility (the Figure 3 boundary) is
/// dominance_boundary_K in capacity/phase_diagram.h.
double required_K(double target_exponent, double phi, double L);

/// True when adding the proposed infrastructure (K, ϕ) with l = n^L
/// antennas per BS would improve the order of capacity over pure ad hoc
/// operation at network exponent α.
bool infrastructure_improves(double alpha, double K, double phi, double L);

/// Per-BS wired bandwidth c(n) realizing ϕ for a concrete instance.
/// CHECKs that n^ϕ/k neither overflows to ±inf/NaN nor underflows to a
/// denormal — a silently non-finite or precision-starved value must not
/// propagate into EngineOptions wired credits.
double wired_bandwidth_for_phi(const net::ScalingParams& p, double phi);

// --- the cost/capacity frontier ----------------------------------------

/// Per-BS dollar cost model: dollars = fixed + per_antenna·l + per_backhaul·µ_c
/// with l = n^L antennas and µ_c = n^ϕ aggregate backhaul per BS. In
/// exponents of n the per-BS cost is Θ(n^max(0, L, ϕ)).
struct BsCostModel {
  double fixed = 1.0;         // site + radio head
  double per_antenna = 1.0;   // per antenna element
  double per_backhaul = 1.0;  // per unit of aggregate wired bandwidth
};

/// Concrete total BS dollars for an instance: k·(fixed + per_antenna·l +
/// per_backhaul·µ_c).
double bs_dollars(const net::ScalingParams& p, const BsCostModel& cost);

/// Exponent of total BS dollars: K + max(0, L, ϕ).
double bs_cost_exponent(double K, double phi, double L);

/// Capacity per BS-dollar in exponents of n: capacity exponent at the
/// point (α, K, ϕ, L) minus the cost exponent. The frontier sweeps this
/// over (ϕ, L) — bench/ext_cost_frontier measures it on the fluid engine.
double capacity_per_dollar_exponent(double alpha, double K, double phi,
                                    double L);

}  // namespace manetcap::capacity
