// Closed-form capacity laws — the theory side of Table I, generalized to
// multi-antenna / backhaul-limited base stations.
//
// Per-node capacity in exponents of n (log factors suppressed):
//   mobility term        Θ(1/f)                     → −α
//   infrastructure term  Θ(min(k·l/n, k²c/n, 1))·Θ(1/n)… see below
//   clustered no-BS      Θ(√(m/(n²·log m)))         → M/2 − 1
//
// With l = n^L antennas per BS (Jeong & Shin, arXiv:1402.2042) the
// infrastructure term is Θ(min(k·l, k²c, n)/n):
//   k·l  = n^(K+L)  — the access phase: each BS serves ≤ l simultaneous
//                     uplink/downlink streams;
//   k²c  = n^(K+ϕ)  — the wired backbone: k BSs × per-edge bandwidth
//                     c = n^ϕ/k, so k²c = k·µ_c = n^(K+ϕ);
//   n               — saturation: per-node capacity is at most Θ(1).
// Exponent: min(K+L, K+ϕ, 1) − 1. At L = 0 (the paper's single-antenna
// BS) this reduces to the paper's K + min(ϕ, 0) − 1 since K ≤ 1.
//
// The single-antenna bottleneck (infrastructure_bottleneck at L = 0) sits
// in the wired backbone when ϕ < 0 and in the wireless access phase when
// ϕ ≥ 0, where µ_c = k·c(n) = n^ϕ is the aggregate wired bandwidth per
// BS. (The paper's prose says the switch is at ϕ = 1; its own capacity
// expression and Figure 3 put it at ϕ = 0 — see DESIGN.md. We implement
// ϕ = 0, and bench/ablation_phi measures it.)
#pragma once

#include <string>

#include "capacity/regimes.h"
#include "net/params.h"

namespace manetcap::capacity {

/// One Table I row: a capacity law with its optimal transmission range.
struct CapacityLaw {
  MobilityRegime regime = MobilityRegime::kStrong;
  bool with_bs = false;
  double exponent = 0.0;      // λ = Θ(n^exponent · polylog)
  double rt_exponent = 0.0;   // optimal R_T = Θ(n^rt_exponent · polylog)
  std::string expression;     // e.g. "Θ(1/f) + Θ(min(k²c/n, k/n))"
  std::string rt_expression;  // e.g. "Θ(1/√n)"
};

/// Which branch of min(k·l, k²c, n) binds the infrastructure term.
enum class InfraBottleneck {
  kBackbone,   // k²c smallest: wired edges are the constraint (K+ϕ binds)
  kAntenna,    // k·l smallest: BS access streams are the constraint (K+L)
  kSaturated,  // n smallest: per-node Θ(1) cap — infrastructure is "free"
};

std::string to_string(InfraBottleneck b);

/// Exponent of the mobility term Θ(1/f(n)).
double mobility_exponent(double alpha);

/// Exponent of the generalized infrastructure term Θ(min(k·l, k²c, n)/n)
/// = min(K+L, K+ϕ, 1) − 1. The paper's single-antenna term
/// Θ(min(k²c/n, k/n)) is L = 0: K + min(ϕ, 0) − 1 for K ≤ 1.
double infrastructure_exponent(double K, double phi, double L);

/// The binding branch of the generalized infrastructure term. Ties prefer
/// kAntenna over kBackbone (matching ϕ ≥ 0 ⇒ access-limited at L = 0) and
/// kAntenna/kBackbone over kSaturated.
InfraBottleneck infrastructure_bottleneck(double K, double phi, double L);

/// Exponent of the clustered no-BS capacity Θ(√(m/(n² log m))).
double clustered_no_bs_exponent(double M);

/// The full Table I law for a parameter point (regime classified from the
/// exponents; set p.with_bs accordingly). In the weak/trivial regimes the
/// with-BS law is max(infrastructure, clustered no-BS): base stations can
/// always be ignored, so they never make the order capacity worse.
CapacityLaw capacity_law(const net::ScalingParams& p);

/// Theoretical per-node capacity exponent — the single number the scaling
/// sweeps regress against.
double capacity_exponent(const net::ScalingParams& p);

/// Whether mobility or infrastructure dominates (Remark 10) for a
/// strong-mobility point; meaningless in weak/trivial regimes where only
/// infrastructure carries inter-cluster traffic. Antennas shift the access
/// branch to K + L; the paper's single-antenna BS is L = 0.
bool mobility_dominant(double alpha, double K, double phi, double L);

}  // namespace manetcap::capacity
