#include "routing/multicast.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "backbone/backbone.h"
#include "geom/spatial_hash.h"
#include "geom/tessellation.h"
#include "linkcap/link_capacity.h"
#include "routing/routed_contacts.h"
#include "routing/scheme_a.h"
#include "util/check.h"

namespace manetcap::routing {

MulticastTraffic multicast_traffic(std::size_t n, std::size_t g,
                                   rng::Xoshiro256& rng) {
  MANETCAP_CHECK(n >= 2);
  MANETCAP_CHECK_MSG(g >= 1 && g < n, "need 1 <= g < n destinations");
  MulticastTraffic traffic;
  traffic.dests.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    std::unordered_set<std::uint32_t> chosen;
    while (chosen.size() < g) {
      const auto d = static_cast<std::uint32_t>(rng::uniform_index(rng, n));
      if (d != s) chosen.insert(d);
    }
    traffic.dests[s].assign(chosen.begin(), chosen.end());
  }
  return traffic;
}

MulticastSchemeA::MulticastSchemeA(bool share_tree)
    : share_tree_(share_tree) {}

MulticastResult MulticastSchemeA::evaluate(
    const net::Network& net, const MulticastTraffic& traffic) const {
  const auto& home = net.ms_home();
  const std::size_t n = home.size();
  MANETCAP_CHECK(traffic.dests.size() == n);

  MulticastResult res;
  const double side = SchemeA::kCellSideFactor * net.mobility_radius();
  geom::SquareTessellation tess =
      geom::SquareTessellation::with_cell_side(std::min(side, 1.0));
  if (tess.cells_per_side() < SchemeA::kMinGrid) {
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

  // Loads: per flow, the union (tree) or multiset (unicast) of the H-V
  // path edges to every destination, with empty-cell detours as in
  // unicast scheme A.
  std::unordered_map<std::uint64_t, double> load;
  std::vector<double> endpoint_load(n, 0.0);
  double tree_edges = 0.0, unicast_edges = 0.0;
  std::unordered_set<std::uint64_t> flow_edges;
  for (std::uint32_t s = 0; s < n; ++s) {
    flow_edges.clear();
    endpoint_load[s] += 1.0;
    for (const std::uint32_t d : traffic.dests[s]) {
      endpoint_load[d] += 1.0;
      for_each_routed_hop(
          tess, occupancy, cell_of[s], cell_of[d],
          [&](geom::Cell a, geom::Cell b) {
            const std::uint64_t key =
                cell_pair_key(tess.index_of(a), tess.index_of(b));
            unicast_edges += 1.0;
            if (share_tree_) {
              if (flow_edges.insert(key).second) {
                load[key] += 1.0;
                tree_edges += 1.0;
              }
            } else {
              load[key] += 1.0;
              tree_edges += 1.0;
            }
          });
    }
  }
  res.mean_tree_edges = tree_edges / static_cast<double>(n);
  res.mean_unicast_edges = unicast_edges / static_cast<double>(n);

  // Wireless capacity of the routed squarelet pairs + per-node airtime —
  // the same routed contact pass as unicast scheme A.
  const RoutedCellPairs pairs(tess, mu.max_contact_dist_ms_ms(), load);
  const RoutedContacts contacts =
      routed_contact_pass(home, cell_of, pairs, mu, 1.0);
  const std::vector<double>& airtime = contacts.airtime;

  flow::ConstraintSet cs;
  double cap_sum = 0.0, load_sum = 0.0;
  for (std::uint32_t slot = 0; slot < pairs.size(); ++slot) {
    cs.add(flow::Resource::kWirelessRelay, contacts.cap[slot],
           pairs.load(slot));
    cap_sum += contacts.cap[slot];
    load_sum += pairs.load(slot);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (endpoint_load[i] > 0.0)
      cs.add(flow::Resource::kWirelessRelay, airtime[i], endpoint_load[i]);
  }
  res.throughput = cs.solve();

  std::vector<double> at = airtime;
  std::nth_element(at.begin(), at.begin() + at.size() / 2, at.end());
  flow::ConstraintSet sym;
  if (load_sum > 0.0)
    sym.add(flow::Resource::kWirelessRelay, cap_sum, load_sum);
  sym.add(flow::Resource::kWirelessRelay, at[at.size() / 2],
          1.0 + static_cast<double>(traffic.group_size()));
  res.lambda_symmetric = sym.solve().lambda;
  return res;
}

MulticastResult MulticastSchemeB::evaluate(
    const net::Network& net, const MulticastTraffic& traffic) const {
  const auto& home = net.ms_home();
  const auto& bs = net.bs_pos();
  const std::size_t n = home.size();
  const std::size_t k = bs.size();
  MANETCAP_CHECK(traffic.dests.size() == n);
  MANETCAP_CHECK_MSG(k >= 1, "multicast scheme B needs base stations");
  const std::size_t g = traffic.group_size();

  MulticastResult res;
  linkcap::LinkCapacityModel mu(net.shape(), net.params().f(), n + k);
  const double contact = mu.max_contact_dist_ms_bs();
  geom::SpatialHash bs_hash(std::max(contact, 1e-4), k);
  bs_hash.build(bs);

  // Access rates µ_i^A (Lemma 9 substrate).
  std::vector<double> access(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    bs_hash.visit_disk(home[i], contact, [&](std::uint32_t l) {
      access[i] += mu.mu_ms_bs(geom::torus_dist(home[i], bs[l]));
    });
  }

  // Wireless demand: one uplink per source, one downlink per destination
  // membership; wired demand: the flow crosses to every *distinct*
  // destination squarelet group once (multicast fan-out on the wires).
  geom::SquareTessellation tess(k >= 48 ? 4 : (k >= 8 ? 2 : 1));
  std::vector<std::size_t> group_sizes(tess.num_cells(), 0);
  std::vector<std::uint32_t> bs_group(k);
  for (std::uint32_t l = 0; l < k; ++l) {
    bs_group[l] =
        static_cast<std::uint32_t>(tess.index_of(tess.cell_of(bs[l])));
    ++group_sizes[bs_group[l]];
  }
  backbone::GroupedBackbone wired(group_sizes, net.params().c());

  flow::ConstraintSet cs;
  std::vector<double> demand(n, 0.0);
  std::size_t uncovered = 0;
  std::unordered_set<std::uint32_t> flow_groups;
  double sum_access = 0.0;
  std::size_t covered = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    demand[s] += 1.0;  // uplink
    flow_groups.clear();
    const auto gs = static_cast<std::uint32_t>(
        tess.index_of(tess.cell_of(home[s])));
    for (const std::uint32_t d : traffic.dests[s]) {
      demand[d] += 1.0;  // downlink
      const auto gd = static_cast<std::uint32_t>(
          tess.index_of(tess.cell_of(home[d])));
      if (gd != gs) flow_groups.insert(gd);
    }
    if (access[s] <= 0.0) {
      ++uncovered;
      continue;
    }
    for (const std::uint32_t gd : flow_groups) wired.add_load(gs, gd, 1.0);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (access[i] <= 0.0) {
      if (demand[i] > 0.0) ++uncovered;
      continue;
    }
    sum_access += access[i];
    ++covered;
    cs.add(flow::Resource::kAccess, access[i], demand[i]);
  }
  if (wired.max_edge_load() > 0.0) {
    if (wired.max_feasible_scale() == 0.0)
      cs.add(flow::Resource::kBackbone, 0.0, 1.0, "empty BS group");
    else
      cs.add(flow::Resource::kBackbone, net.params().c(),
             wired.max_edge_load());
  }
  res.throughput = cs.solve();

  flow::ConstraintSet sym;
  if (covered > 0)
    sym.add(flow::Resource::kAccess,
            sum_access / static_cast<double>(covered),
            1.0 + static_cast<double>(g));
  else
    sym.add(flow::Resource::kAccess, 0.0, 1.0);
  if (wired.max_edge_load() > 0.0 && wired.max_feasible_scale() > 0.0)
    sym.add(flow::Resource::kBackbone, net.params().c(),
            wired.max_edge_load());
  res.lambda_symmetric = sym.solve().lambda;
  return res;
}

}  // namespace manetcap::routing
