// Figure 3: the capacity phase diagram over (α, K) — plus the generalized
// antenna/backhaul panel over (ϕ, L).
//
// The paper plots per-node capacity as a function of f(n) = n^α and
// k = n^K with µ_c = n^ϕ as a parameter: one panel for ϕ ≥ 0 (access phase
// is the infrastructure bottleneck) and one for ϕ = −½ (wired backbone is
// the bottleneck). Each (α, K) point is either mobility-dominant
// (λ = Θ(1/f)) or infrastructure-dominant (λ = Θ(min(k·l, k²c, n)/n)); the
// boundary is the line where the two exponents cross.
//
// The generalized model (arXiv:1402.2042) adds l = n^L antennas per BS, so
// a second panel type sweeps (ϕ, L) at fixed (α, K) and colors each point
// by the binding bottleneck: Mobility, Antenna-limited, Wired-backbone, or
// Saturated (per-node Θ(1) cap).
#pragma once

#include <string>
#include <vector>

#include "capacity/formulas.h"

namespace manetcap::capacity {

struct PhasePoint {
  double alpha = 0.0;
  double K = 0.0;
  double exponent = 0.0;        // capacity exponent at this point
  bool mobility_dominant = false;
};

/// One panel of Figure 3 for a fixed (ϕ, L).
///
/// Layout contract (pinned by CapacityPhaseDiagramTest.LayoutIsRowMajor):
/// `grid[ki * alpha_steps + ai]` holds the point for the ai-th α and the
/// ki-th K — α is the fast axis, K the slow one. Use `at(ai, ki)`; it
/// CHECKs bounds.
struct PhaseDiagram {
  double phi = 0.0;
  double L = 0.0;                // antennas-per-BS exponent (0 = paper model)
  std::vector<PhasePoint> grid;  // row-major over (alpha, K); see above
  std::size_t alpha_steps = 0;
  std::size_t k_steps = 0;

  const PhasePoint& at(std::size_t ai, std::size_t ki) const;
};

/// Computes the diagram for l = n^L antennas per BS (L = 0 is the paper's
/// single-antenna figure) on a uniform grid α ∈ [0, ½], K ∈ [0, 1]
/// (strong-mobility regime assumed, as in the figure).
PhaseDiagram compute_phase_diagram(double phi, double L,
                                   std::size_t alpha_steps,
                                   std::size_t k_steps);

/// The dominance boundary: for each α, the smallest K at which
/// infrastructure overtakes mobility, min(K+L, K+ϕ, 1) − 1 ≥ −α
/// ⇔ K ≥ 1 − α − min(L, ϕ) (the saturation branch never decides the
/// boundary since −α ≤ 0 with equality only at α = 0). At L = 0 this is the
/// paper's K ≥ 1 − α − min(ϕ, 0). Values above 1 mean mobility dominates
/// for every admissible K.
double dominance_boundary_K(double alpha, double phi, double L);

/// One point of the antenna/backhaul panel at fixed (α, K).
struct FrontierPoint {
  double phi = 0.0;
  double L = 0.0;
  double exponent = 0.0;           // capacity exponent at this point
  bool mobility_dominant = false;  // Θ(1/f) beats the infrastructure term
  InfraBottleneck bottleneck = InfraBottleneck::kBackbone;
};

/// The generalized panel: capacity over (ϕ, L) at fixed (α, K).
///
/// Layout contract: `grid[li * phi_steps + pi]` — ϕ is the fast axis, L the
/// slow one. Use `at(pi, li)`; it CHECKs bounds.
struct FrontierDiagram {
  double alpha = 0.0;
  double K = 0.0;
  double phi_lo = -1.0, phi_hi = 1.0;  // ϕ grid range
  double l_lo = 0.0, l_hi = 1.0;       // L grid range
  std::vector<FrontierPoint> grid;
  std::size_t phi_steps = 0;
  std::size_t l_steps = 0;

  const FrontierPoint& at(std::size_t pi, std::size_t li) const;
};

/// Computes the antenna/backhaul panel on a uniform grid ϕ ∈ [−1, 1],
/// L ∈ [0, 1] at fixed (α, K).
FrontierDiagram compute_frontier_diagram(double alpha, double K,
                                         std::size_t phi_steps = 11,
                                         std::size_t l_steps = 11);

/// ASCII rendering of a Figure-3 panel (rows = K descending, cols = α
/// ascending; 'M' mobility-dominant, 'I' infrastructure-dominant).
std::string render_ascii(const PhaseDiagram& d);

/// ASCII rendering of an antenna/backhaul panel (rows = L descending,
/// cols = ϕ ascending; 'M' mobility-dominant, 'A' antenna-limited,
/// 'W' wired-backbone-limited, 'S' saturated).
std::string render_ascii(const FrontierDiagram& d);

}  // namespace manetcap::capacity
