#include "capacity/formulas.h"

#include <algorithm>

#include "util/check.h"

namespace manetcap::capacity {

double mobility_exponent(double alpha) { return -alpha; }

double infrastructure_exponent(double K, double phi, double L) {
  // min(k·l, k²c, n)/n = n^(min(K+L, K+ϕ, 1) − 1). At L = 0 the antenna
  // branch K+L = K ≤ 1 absorbs the saturation cap, and with k²c = k·µ_c =
  // n^(K+ϕ) the min switches at ϕ = 0.
  return std::min({K + L, K + phi, 1.0}) - 1.0;
}

InfraBottleneck infrastructure_bottleneck(double K, double phi, double L) {
  const double antenna = K + L;
  const double backbone = K + phi;
  if (backbone < std::min(antenna, 1.0)) return InfraBottleneck::kBackbone;
  if (antenna <= 1.0) return InfraBottleneck::kAntenna;
  return InfraBottleneck::kSaturated;
}

std::string to_string(InfraBottleneck b) {
  switch (b) {
    case InfraBottleneck::kBackbone:
      return "backbone";
    case InfraBottleneck::kAntenna:
      return "antenna";
    case InfraBottleneck::kSaturated:
      return "saturated";
  }
  return "?";
}

double clustered_no_bs_exponent(double M) { return M / 2.0 - 1.0; }

bool mobility_dominant(double alpha, double K, double phi, double L) {
  return mobility_exponent(alpha) > infrastructure_exponent(K, phi, L);
}

namespace {

std::string infra_expression(double L) {
  return L > 0.0 ? "Th(min(k l/n, k^2 c/n, 1))" : "Th(min(k^2 c/n, k/n))";
}

/// Fill the no-BS clustered row (shared by the !with_bs cases and the
/// with-BS fallback when ignoring the BSs is order-better).
void fill_clustered_no_bs(CapacityLaw& law, double M) {
  law.exponent = clustered_no_bs_exponent(M);
  law.expression = "Th(sqrt(m/(n^2 log m)))";
  law.rt_exponent = -M / 2.0;
  law.rt_expression = "Th(sqrt(log m / m))";
}

}  // namespace

CapacityLaw capacity_law(const net::ScalingParams& p) {
  const double M = p.cluster_free() ? 1.0 : p.M;
  const double R = p.cluster_free() ? 0.0 : p.R;
  CapacityLaw law;
  law.regime = classify_exponents(p.alpha, M, R);
  law.with_bs = p.with_bs;

  const double mob = mobility_exponent(p.alpha);
  const double infra =
      p.with_bs ? infrastructure_exponent(p.K, p.phi, p.L) : -2.0;

  switch (law.regime) {
    case MobilityRegime::kStrong:
      if (p.with_bs) {
        law.exponent = std::max(mob, infra);
        law.expression = "Th(1/f) + " + infra_expression(p.L);
      } else {
        law.exponent = mob;
        law.expression = "Th(1/f)";
      }
      law.rt_exponent = -0.5;
      law.rt_expression = "Th(1/sqrt(n))";
      break;
    case MobilityRegime::kWeak:
      if (p.with_bs) {
        // BSs can always be ignored: the achievable law is the max of the
        // infrastructure term and the clustered no-BS scheme. (Pre-fix this
        // returned `infra` alone, so a tiny-K network reported *worse*
        // order capacity with BSs than without.)
        if (clustered_no_bs_exponent(M) > infra) {
          fill_clustered_no_bs(law, M);
        } else {
          law.exponent = infra;
          law.expression = infra_expression(p.L);
          // R_T = r·√(m/n): within-cluster S* range (Table I).
          law.rt_exponent = -R + (M - 1.0) / 2.0;
          law.rt_expression = "Th(r sqrt(m/n))";
        }
      } else {
        fill_clustered_no_bs(law, M);
      }
      break;
    case MobilityRegime::kTrivial:
      if (p.with_bs) {
        if (clustered_no_bs_exponent(M) > infra) {
          fill_clustered_no_bs(law, M);
        } else {
          law.exponent = infra;
          law.expression = infra_expression(p.L);
          // R_T = r·√(m/k): the hexagon cell side (Table I).
          law.rt_exponent = -R + (M - p.K) / 2.0;
          law.rt_expression = "Th(r sqrt(m/k))";
        }
      } else {
        fill_clustered_no_bs(law, M);
      }
      break;
  }
  return law;
}

double capacity_exponent(const net::ScalingParams& p) {
  return capacity_law(p).exponent;
}

}  // namespace manetcap::capacity
