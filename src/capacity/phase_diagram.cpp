#include "capacity/phase_diagram.h"

#include <algorithm>
#include <sstream>

#include "capacity/formulas.h"
#include "util/check.h"

namespace manetcap::capacity {

const PhasePoint& PhaseDiagram::at(std::size_t ai, std::size_t ki) const {
  MANETCAP_CHECK_MSG(ai < alpha_steps && ki < k_steps,
                     "PhaseDiagram::at(" << ai << ", " << ki
                         << ") out of bounds (alpha_steps=" << alpha_steps
                         << ", k_steps=" << k_steps << ")");
  return grid[ki * alpha_steps + ai];
}

PhaseDiagram compute_phase_diagram(double phi, double L,
                                   std::size_t alpha_steps,
                                   std::size_t k_steps) {
  MANETCAP_CHECK(alpha_steps >= 2 && k_steps >= 2);
  PhaseDiagram d;
  d.phi = phi;
  d.L = L;
  d.alpha_steps = alpha_steps;
  d.k_steps = k_steps;
  d.grid.reserve(alpha_steps * k_steps);
  for (std::size_t ki = 0; ki < k_steps; ++ki) {
    const double K =
        static_cast<double>(ki) / static_cast<double>(k_steps - 1);
    for (std::size_t ai = 0; ai < alpha_steps; ++ai) {
      const double alpha = 0.5 * static_cast<double>(ai) /
                           static_cast<double>(alpha_steps - 1);
      PhasePoint p;
      p.alpha = alpha;
      p.K = K;
      const double mob = mobility_exponent(alpha);
      const double infra = infrastructure_exponent(K, phi, L);
      p.mobility_dominant = mob > infra;
      p.exponent = std::max(mob, infra);
      d.grid.push_back(p);
    }
  }
  return d;
}

double dominance_boundary_K(double alpha, double phi, double L) {
  // min(K+L, K+ϕ, 1) − 1 ≥ −α. The saturation branch gives 0 ≥ −α, i.e. it
  // can only decide at α = 0 where every K already satisfies the K-branches;
  // the binding condition is K ≥ 1 − α − min(L, ϕ).
  return 1.0 - alpha - std::min(L, phi);
}

const FrontierPoint& FrontierDiagram::at(std::size_t pi,
                                         std::size_t li) const {
  MANETCAP_CHECK_MSG(pi < phi_steps && li < l_steps,
                     "FrontierDiagram::at(" << pi << ", " << li
                         << ") out of bounds (phi_steps=" << phi_steps
                         << ", l_steps=" << l_steps << ")");
  return grid[li * phi_steps + pi];
}

FrontierDiagram compute_frontier_diagram(double alpha, double K,
                                         std::size_t phi_steps,
                                         std::size_t l_steps) {
  MANETCAP_CHECK(phi_steps >= 2 && l_steps >= 2);
  FrontierDiagram d;
  d.alpha = alpha;
  d.K = K;
  d.phi_steps = phi_steps;
  d.l_steps = l_steps;
  d.grid.reserve(phi_steps * l_steps);
  for (std::size_t li = 0; li < l_steps; ++li) {
    const double L =
        d.l_lo + (d.l_hi - d.l_lo) * static_cast<double>(li) /
                     static_cast<double>(l_steps - 1);
    for (std::size_t pi = 0; pi < phi_steps; ++pi) {
      const double phi =
          d.phi_lo + (d.phi_hi - d.phi_lo) * static_cast<double>(pi) /
                         static_cast<double>(phi_steps - 1);
      FrontierPoint p;
      p.phi = phi;
      p.L = L;
      const double mob = mobility_exponent(alpha);
      const double infra = infrastructure_exponent(K, phi, L);
      p.mobility_dominant = mob > infra;
      p.exponent = std::max(mob, infra);
      p.bottleneck = infrastructure_bottleneck(K, phi, L);
      d.grid.push_back(p);
    }
  }
  return d;
}

std::string render_ascii(const PhaseDiagram& d) {
  std::ostringstream os;
  os << "K \\ alpha  (phi = " << d.phi;
  if (d.L != 0.0) os << ", L = " << d.L;
  os << ")\n";
  for (std::size_t ki = d.k_steps; ki-- > 0;) {
    const double K = static_cast<double>(ki) /
                     static_cast<double>(d.k_steps - 1);
    os.width(5);
    os.precision(2);
    os << std::fixed << K << "  ";
    for (std::size_t ai = 0; ai < d.alpha_steps; ++ai)
      os << (d.at(ai, ki).mobility_dominant ? 'M' : 'I');
    os << '\n';
  }
  os << "       ";
  for (std::size_t ai = 0; ai < d.alpha_steps; ++ai)
    os << (ai % 5 == 0 ? '|' : '-');
  os << "  alpha: 0 .. 0.5 ('M' mobility-, 'I' infrastructure-dominant)\n";
  return os.str();
}

std::string render_ascii(const FrontierDiagram& d) {
  std::ostringstream os;
  os << "L \\ phi  (alpha = " << d.alpha << ", K = " << d.K << ")\n";
  for (std::size_t li = d.l_steps; li-- > 0;) {
    const double L = d.l_lo + (d.l_hi - d.l_lo) * static_cast<double>(li) /
                                  static_cast<double>(d.l_steps - 1);
    os.width(5);
    os.precision(2);
    os << std::fixed << L << "  ";
    for (std::size_t pi = 0; pi < d.phi_steps; ++pi) {
      const FrontierPoint& p = d.at(pi, li);
      char c = '?';
      if (p.mobility_dominant) {
        c = 'M';
      } else {
        switch (p.bottleneck) {
          case InfraBottleneck::kBackbone: c = 'W'; break;
          case InfraBottleneck::kAntenna: c = 'A'; break;
          case InfraBottleneck::kSaturated: c = 'S'; break;
        }
      }
      os << c;
    }
    os << '\n';
  }
  os << "       ";
  for (std::size_t pi = 0; pi < d.phi_steps; ++pi)
    os << (pi % 5 == 0 ? '|' : '-');
  os << "  phi: " << d.phi_lo << " .. " << d.phi_hi
     << " ('M' mobility, 'A' antenna-, 'W' backbone-limited, 'S' saturated)\n";
  return os.str();
}

}  // namespace manetcap::capacity
