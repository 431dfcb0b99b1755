#include "routing/two_hop.h"

#include <algorithm>

#include "geom/spatial_hash.h"
#include "linkcap/link_capacity.h"
#include "util/check.h"

namespace manetcap::routing {

TwoHopResult TwoHopRelay::evaluate(const net::Network& net,
                                   const std::vector<std::uint32_t>& dest,
                                   RateStructure* rates) const {
  const auto& home = net.ms_home();
  const std::size_t n = home.size();
  MANETCAP_CHECK(dest.size() == n);
  if (rates != nullptr) rates->reset(n);

  TwoHopResult res;
  linkcap::LinkCapacityModel mu(net.shape(), net.params().f(),
                                n + net.num_bs());
  const double contact = mu.max_contact_dist_ms_ms();
  geom::SpatialHash hash(std::max(contact, 1e-4), n);
  hash.build(home);

  // Per-node total contact airtime Σ_j μ(i,j): under S* a node is in at
  // most one pair at a time, so this caps both injection and drain rates.
  std::vector<double> airtime(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    hash.visit_disk(home[i], contact, [&](std::uint32_t j) {
      if (j == i) return;
      airtime[i] += mu.mu_ms_ms(geom::torus_dist(home[i], home[j]));
    });
  }

  // Per-flow capacity: relays in wireless contact with BOTH endpoints each
  // contribute min(μ_sj, μ_jd)/2 (every bit is transmitted twice). Relay
  // airtime is asymptotically non-binding for permutation traffic — each
  // relay carries Θ(λ) transit traffic against a Θ(1) airtime budget — so
  // the binding constraints are the flow pools and the endpoint airtimes.
  flow::ConstraintSet cs;
  double pool_sum = 0.0;
  double cap_sum = 0.0;
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t d = dest[s];
    double pool_cap = 0.0;
    std::size_t pool = 0;
    // Direct source→destination contact also counts (one-hop delivery).
    pool_cap += mu.mu_ms_ms(geom::torus_dist(home[s], home[d]));
    hash.visit_disk(home[s], contact, [&](std::uint32_t j) {
      if (j == s || j == d) return;
      const double m_sj = mu.mu_ms_ms(geom::torus_dist(home[s], home[j]));
      if (m_sj <= 0.0) return;
      const double m_jd = mu.mu_ms_ms(geom::torus_dist(home[j], home[d]));
      if (m_jd <= 0.0) return;
      pool_cap += std::min(m_sj, m_jd) / 2.0;
      ++pool;
    });
    pool_sum += static_cast<double>(pool);
    if (pool_cap <= 0.0) ++res.disconnected_flows;
    const double cap =
        std::min({pool_cap, airtime[s] / 2.0, airtime[d] / 2.0});
    cap_sum += cap;
    if (rates != nullptr) {
      // One private row per flow: the flow's own pool/endpoint bound.
      rates->note(s, static_cast<std::uint32_t>(cs.size()), 1.0);
      rates->flow_served[s] = 1;
      rates->flow_hops[s] = 2.0;  // source → relay → destination
    }
    cs.add(flow::Resource::kWirelessRelay, cap, 1.0);
  }
  res.throughput = cs.solve();
  if (rates != nullptr) {
    rates->constraints = std::move(cs).constraints();
    rates->finalize();
  }

  res.mean_relay_pool = pool_sum / static_cast<double>(n);
  res.lambda_symmetric = cap_sum / static_cast<double>(n);
  return res;
}

}  // namespace manetcap::routing
