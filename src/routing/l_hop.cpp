#include "routing/l_hop.h"

#include <algorithm>
#include <limits>

#include "geom/tessellation.h"
#include "util/check.h"

namespace manetcap::routing {

LMaxHop::LMaxHop(int max_hops, double adhoc_share)
    : max_hops_(max_hops), adhoc_share_(adhoc_share) {
  MANETCAP_CHECK(max_hops >= 0);
  MANETCAP_CHECK(adhoc_share > 0.0 && adhoc_share < 1.0);
}

LMaxHopResult LMaxHop::evaluate(const net::Network& net,
                                const std::vector<std::uint32_t>& dest) const {
  const std::size_t n = net.num_ms();
  MANETCAP_CHECK(dest.size() == n);
  MANETCAP_CHECK_MSG(net.num_bs() >= 1, "L-max-hop needs base stations");

  LMaxHopResult res;

  // Classify flows by squarelet hop distance on the scheme A tessellation.
  const double side = SchemeA::kCellSideFactor * net.mobility_radius();
  geom::SquareTessellation tess =
      geom::SquareTessellation::with_cell_side(std::min(side, 1.0));
  std::vector<bool> short_flow(n, false), long_flow(n, false);
  if (tess.cells_per_side() < SchemeA::kMinGrid) {
    // No multihop fabric: everything rides the infrastructure.
    res.adhoc_degenerate = true;
    long_flow.assign(n, true);
    res.long_flows = n;
  } else {
    for (std::uint32_t s = 0; s < n; ++s) {
      const int hops =
          tess.hop_distance(tess.cell_of(net.ms_home()[s]),
                            tess.cell_of(net.ms_home()[dest[s]]));
      if (hops <= max_hops_) {
        short_flow[s] = true;
        ++res.short_flows;
      } else {
        long_flow[s] = true;
        ++res.long_flows;
      }
    }
  }

  // Evaluate each subsystem on its flow class with its bandwidth share.
  double lam_a = std::numeric_limits<double>::infinity();
  double lam_a_sym = std::numeric_limits<double>::infinity();
  if (res.short_flows > 0) {
    SchemeA a;
    const auto ra = a.evaluate(net, dest, &short_flow, adhoc_share_);
    lam_a = ra.degenerate ? 0.0 : ra.throughput.lambda;
    lam_a_sym = ra.degenerate ? 0.0 : ra.lambda_symmetric;
  }
  double lam_b = std::numeric_limits<double>::infinity();
  double lam_b_sym = std::numeric_limits<double>::infinity();
  if (res.long_flows > 0) {
    SchemeB b;
    const auto rb = b.evaluate(net, dest, &long_flow, 1.0 - adhoc_share_);
    lam_b = rb.throughput.lambda;
    lam_b_sym = rb.lambda_symmetric;
  }

  res.lambda_adhoc_class = std::isfinite(lam_a_sym) ? lam_a_sym : 0.0;
  res.lambda_infra_class = std::isfinite(lam_b_sym) ? lam_b_sym : 0.0;
  res.lambda = std::min(lam_a, lam_b);
  res.lambda_symmetric = std::min(lam_a_sym, lam_b_sym);
  if (!std::isfinite(res.lambda)) res.lambda = 0.0;  // no flows at all
  if (!std::isfinite(res.lambda_symmetric)) res.lambda_symmetric = 0.0;
  return res;
}

}  // namespace manetcap::routing
