#include "routing/scheme_a.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "geom/tessellation.h"
#include "linkcap/link_capacity.h"
#include "routing/routed_contacts.h"
#include "util/check.h"

namespace manetcap::routing {

SchemeAResult SchemeA::evaluate(const net::Network& net,
                                const std::vector<std::uint32_t>& dest,
                                const std::vector<bool>* include_flow,
                                double bandwidth_share,
                                RateStructure* rates) const {
  const auto& home = net.ms_home();
  const std::size_t n = home.size();
  MANETCAP_CHECK(dest.size() == n);
  MANETCAP_CHECK(bandwidth_share > 0.0 && bandwidth_share <= 1.0);
  MANETCAP_CHECK(!include_flow || include_flow->size() == n);
  auto included = [include_flow](std::uint32_t s) {
    return !include_flow || (*include_flow)[s];
  };
  if (rates != nullptr) rates->reset(n);

  SchemeAResult res;
  const double side = kCellSideFactor * net.mobility_radius();
  geom::SquareTessellation tess = geom::SquareTessellation::with_cell_side(
      std::min(side, 1.0));
  res.grid_side = tess.cells_per_side();
  if (res.grid_side < kMinGrid) {
    res.degenerate = true;
    return res;
  }

  linkcap::LinkCapacityModel mu(net.shape(), net.params().f(),
                                n + net.num_bs());

  std::vector<geom::Cell> cell_of(n);
  std::vector<int> occupancy(tess.num_cells(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    cell_of[i] = tess.cell_of(home[i]);
    ++occupancy[tess.index_of(cell_of[i])];
  }

  // --- loads from H-V routing of the permutation flows -------------------
  // Empty cells on a path are skipped: the flow hops from the last
  // occupied cell directly to the next occupied one (still within contact
  // for a single empty cell, which is the w.h.p. worst case). The map's
  // iteration order is the pair rows' order.
  std::unordered_map<std::uint64_t, double> load;
  std::size_t total_hops = 0;
  std::size_t included_flows = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!included(s)) continue;
    ++included_flows;
    for_each_routed_hop(tess, occupancy, cell_of[s], cell_of[dest[s]],
                        [&](geom::Cell a, geom::Cell b) {
                          load[cell_pair_key(tess.index_of(a),
                                             tess.index_of(b))] += 1.0;
                          ++total_hops;
                        });
  }
  res.mean_hops = included_flows ? static_cast<double>(total_hops) /
                                       static_cast<double>(included_flows)
                                 : 0.0;

  // --- wireless capacity of the routed squarelet pairs --------------------
  // cap[slot] = Σ μ(i,j) over home-point pairs i∈A, j∈B within contact, for
  // every routed pair {A,B} — detours make that more than adjacencies.
  // Total contact airtime per node: Σ_j μ(i,j). Sources inject their flow
  // directly into relays around them (Definition 11 forwards between
  // contiguous squarelets) and destinations drain the same way.
  const RoutedCellPairs pairs(tess, mu.max_contact_dist_ms_ms(), load);
  const RoutedContacts contacts =
      routed_contact_pass(home, cell_of, pairs, mu, bandwidth_share);
  const std::vector<double>& cap = contacts.cap;
  const std::vector<double>& airtime = contacts.airtime;

  // --- assemble constraints ----------------------------------------------
  // Pair rows first, slot s as row s; then endpoint constraints: node i
  // must inject its flow (as source) and drain its inbound flow (as
  // destination) within its own contact airtime; excluded flows impose no
  // endpoint demand here.
  std::vector<double> endpoint_load(n, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!included(s)) continue;
    endpoint_load[s] += 1.0;
    endpoint_load[dest[s]] += 1.0;
  }
  flow::ConstraintSet cs;
  cs.reserve(pairs.size() +
             static_cast<std::size_t>(std::count_if(
                 endpoint_load.begin(), endpoint_load.end(),
                 [](double l) { return l > 0.0; })));
  double min_cap = std::numeric_limits<double>::infinity();
  double max_load = 0.0;
  for (std::uint32_t slot = 0; slot < pairs.size(); ++slot) {
    cs.add(flow::Resource::kWirelessRelay, cap[slot], pairs.load(slot));
    min_cap = std::min(min_cap, cap[slot]);
    max_load = std::max(max_load, pairs.load(slot));
  }
  constexpr std::uint32_t kNoCid = ~std::uint32_t{0};
  std::vector<std::uint32_t> endpoint_cid;
  if (rates != nullptr) endpoint_cid.assign(n, kNoCid);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (endpoint_load[i] > 0.0) {
      if (rates != nullptr)
        endpoint_cid[i] = static_cast<std::uint32_t>(cs.size());
      cs.add(flow::Resource::kWirelessRelay, airtime[i], endpoint_load[i]);
    }
  }
  res.throughput = cs.solve();

  // Per-flow incidence: re-walk each included flow's H-V path with the
  // same empty-cell detours the load pass took, tying the flow to its
  // cell-pair rows (row = slot) and both endpoint rows.
  if (rates != nullptr) {
    rates->constraints = std::move(cs).constraints();
    rates->reserve_notes(total_hops + 2 * included_flows);
    for (std::uint32_t s = 0; s < n; ++s) {
      if (!included(s)) continue;
      rates->flow_served[s] = 1;
      double hops = 0.0;
      for_each_routed_hop(tess, occupancy, cell_of[s], cell_of[dest[s]],
                          [&](geom::Cell a, geom::Cell b) {
                            rates->note(s, pairs.slot(a, b), 1.0);
                            hops += 1.0;
                          });
      rates->flow_hops[s] = std::max(hops, 1.0);
      if (endpoint_cid[s] != kNoCid) rates->note(s, endpoint_cid[s], 1.0);
      if (endpoint_cid[dest[s]] != kNoCid)
        rates->note(s, endpoint_cid[dest[s]], 1.0);
    }
    rates->finalize();
  }

  res.min_intercell_capacity = std::isfinite(min_cap) ? min_cap : 0.0;
  res.max_intercell_load = max_load;

  // Typical-resource (symmetric) estimate.
  {
    double cap_sum = 0.0, load_sum = 0.0;
    for (std::uint32_t slot = 0; slot < pairs.size(); ++slot) {
      cap_sum += cap[slot];
      load_sum += pairs.load(slot);
    }
    std::vector<double> at = airtime;
    std::nth_element(at.begin(), at.begin() + at.size() / 2, at.end());
    const double median_airtime = at[at.size() / 2];
    flow::ConstraintSet sym;
    if (load_sum > 0.0)
      sym.add(flow::Resource::kWirelessRelay, cap_sum, load_sum);
    sym.add(flow::Resource::kWirelessRelay, median_airtime, 2.0);
    res.lambda_symmetric = sym.solve().lambda;
  }
  return res;
}

}  // namespace manetcap::routing
