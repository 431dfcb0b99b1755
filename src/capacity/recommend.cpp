#include "capacity/recommend.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "capacity/formulas.h"
#include "util/check.h"

namespace manetcap::capacity {

double recommended_phi(double L, double K) {
  return std::min(L, 1.0 - K);
}

double recommended_L(double phi, double K) {
  return std::max(0.0, std::min(phi, 1.0 - K));
}

double required_K(double target_exponent, double phi, double L) {
  MANETCAP_CHECK_MSG(target_exponent <= 0.0,
                     "per-node capacity exponent cannot be positive");
  return target_exponent + 1.0 - std::min(L, phi);
}

bool infrastructure_improves(double alpha, double K, double phi, double L) {
  return infrastructure_exponent(K, phi, L) > mobility_exponent(alpha);
}

double wired_bandwidth_for_phi(const net::ScalingParams& p, double phi) {
  const double k = static_cast<double>(p.k());
  MANETCAP_CHECK_MSG(k >= 1.0, "no base stations configured");
  const double mu_c = std::pow(static_cast<double>(p.n), phi);
  MANETCAP_CHECK_MSG(std::isfinite(mu_c),
                     "wired_bandwidth_for_phi: n^phi overflows double (n="
                         << p.n << ", phi=" << phi
                         << ") — not a usable wired credit");
  const double c = mu_c / k;
  MANETCAP_CHECK_MSG(
      c == 0.0 || c >= std::numeric_limits<double>::min(),
      "wired_bandwidth_for_phi: n^phi/k underflows to denormal (n="
          << p.n << ", phi=" << phi << ", k=" << p.k()
          << ") — wired credits would silently lose precision");
  return c;
}

double bs_dollars(const net::ScalingParams& p, const BsCostModel& cost) {
  MANETCAP_CHECK_MSG(p.with_bs, "no base stations configured");
  const double k = static_cast<double>(p.k());
  const double l = static_cast<double>(p.l());
  const double mu_c = std::pow(static_cast<double>(p.n), p.phi);
  MANETCAP_CHECK_MSG(std::isfinite(mu_c),
                     "bs_dollars: n^phi overflows double (n=" << p.n
                         << ", phi=" << p.phi << ")");
  const double dollars =
      k * (cost.fixed + cost.per_antenna * l + cost.per_backhaul * mu_c);
  MANETCAP_CHECK_MSG(std::isfinite(dollars),
                     "bs_dollars overflows double (k=" << k << ", l=" << l
                         << ", mu_c=" << mu_c << ")");
  return dollars;
}

double bs_cost_exponent(double K, double phi, double L) {
  // dollars = k·(fixed + per_antenna·n^L + per_backhaul·n^ϕ): the dominant
  // per-BS term is n^max(0, L, ϕ) for any positive coefficients.
  return K + std::max({0.0, L, phi});
}

double capacity_per_dollar_exponent(double alpha, double K, double phi,
                                    double L) {
  const double cap = std::max(mobility_exponent(alpha),
                              infrastructure_exponent(K, phi, L));
  return cap - bs_cost_exponent(K, phi, L);
}

}  // namespace manetcap::capacity
