#include "routing/scheme_c.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/spatial_hash.h"
#include "util/check.h"

namespace manetcap::routing {

SchemeC::SchemeC(double delta) : delta_(delta) {
  MANETCAP_CHECK(delta >= 0.0);
}

SchemeCResult SchemeC::evaluate(const net::Network& net,
                                const std::vector<std::uint32_t>& dest,
                                RateStructure* rates) const {
  const auto& home = net.ms_home();
  const auto& bs = net.bs_pos();
  const std::size_t n = home.size();
  const std::size_t k = bs.size();
  MANETCAP_CHECK(dest.size() == n);
  MANETCAP_CHECK_MSG(k >= 1, "scheme C needs base stations");
  if (rates != nullptr) rates->reset(n);

  SchemeCResult res;

  // --- cell association: nearest BS within the MS's cluster ---------------
  // (cluster-free layouts fall back to the globally nearest BS).
  const auto& layout = net.ms_layout();
  const bool cluster_free = net.params().cluster_free();
  std::vector<std::vector<std::uint32_t>> cluster_bs(
      cluster_free ? 0 : layout.num_clusters());
  if (!cluster_free) {
    for (std::uint32_t l = 0; l < k; ++l)
      cluster_bs[net.bs_cluster()[l]].push_back(l);
  }
  geom::SpatialHash assoc_hash(
      std::max(1.0 / std::sqrt(static_cast<double>(k)), 1e-4), k);
  assoc_hash.build(bs);

  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> serving(n, kNone);
  std::vector<double> cell_radius(k, 0.0);  // farthest associated MS
  std::vector<double> cell_pop(k, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    if (cluster_free) {
      const std::uint32_t l = assoc_hash.nearest(home[i], kNone);
      if (l < k) {
        serving[i] = l;
        best = geom::torus_dist2(home[i], bs[l]);
      }
    } else {
      for (std::uint32_t l : cluster_bs[layout.cluster_of[i]]) {
        const double d = geom::torus_dist2(home[i], bs[l]);
        if (d < best) {
          best = d;
          serving[i] = l;
        }
      }
    }
    if (serving[i] == kNone) {
      ++res.ms_without_bs;
      continue;
    }
    cell_radius[serving[i]] =
        std::max(cell_radius[serving[i]], std::sqrt(best));
    cell_pop[serving[i]] += 1.0;
  }

  // Static nodes still wobble within the mobility disk; the TDMA range must
  // cover the worst excursion (Theorem 8's R_T − 4D/f(n) margin argument).
  const double wobble = 2.0 * net.mobility_radius();
  for (std::uint32_t l = 0; l < k; ++l) cell_radius[l] += wobble;

  // --- TDMA duty cycles from the cell interference graph ------------------
  // Cells a, b conflict when a transmission in a can reach into b's guard
  // zone: d(bs_a, bs_b) < r_a + (1+Δ)·r_b (either direction). Each cell can
  // then be active a 1/(degree+1) fraction of time (list scheduling on a
  // bounded-degree graph; Theorem 9's coloring argument).
  double max_reach = 0.0;
  for (std::uint32_t l = 0; l < k; ++l)
    max_reach = std::max(max_reach, cell_radius[l]);
  geom::SpatialHash bs_hash(std::max((2.0 + delta_) * max_reach, 1e-4), k);
  bs_hash.build(bs);

  std::vector<double> duty(k, 1.0);
  double duty_sum = 0.0;
  double duty_min = std::numeric_limits<double>::infinity();
  for (std::uint32_t a = 0; a < k; ++a) {
    if (cell_pop[a] == 0.0) continue;
    std::size_t degree = 0;
    const double scan = cell_radius[a] + (1.0 + delta_) * max_reach;
    bs_hash.visit_disk(bs[a], scan, [&](std::uint32_t b) {
      if (b == a || cell_pop[b] == 0.0) return;
      const double d = geom::torus_dist(bs[a], bs[b]);
      if (d < cell_radius[a] + (1.0 + delta_) * cell_radius[b] ||
          d < cell_radius[b] + (1.0 + delta_) * cell_radius[a])
        ++degree;
    });
    duty[a] = 1.0 / static_cast<double>(degree + 1);
    duty_sum += duty[a];
    duty_min = std::min(duty_min, duty[a]);
  }

  // --- constraints ---------------------------------------------------------
  flow::ConstraintSet cs;
  constexpr std::uint32_t kNoCid = ~std::uint32_t{0};
  if (res.ms_without_bs > 0)
    cs.add(flow::Resource::kAccess, 0.0, 1.0, "cluster without BS");

  std::vector<std::uint32_t> cell_cid;
  if (rates != nullptr) cell_cid.assign(k, kNoCid);
  // With l = n^L antennas the BS serves up to that many MSs concurrently in
  // its active slots, bounded by the cell population itself — at the
  // paper's single antenna min(1, pop) = 1 and the row is unchanged.
  const double antennas = static_cast<double>(net.params().l());
  double pop_sum = 0.0, pop_max = 0.0;
  std::size_t active_cells = 0;
  for (std::uint32_t l = 0; l < k; ++l) {
    if (cell_pop[l] == 0.0) continue;
    ++active_cells;
    pop_sum += cell_pop[l];
    pop_max = std::max(pop_max, cell_pop[l]);
    // Active cell carries W = min(l, pop) concurrent streams split into
    // symmetric up/down channels; each associated MS needs uplink λ and
    // downlink λ.
    if (rates != nullptr)
      cell_cid[l] = static_cast<std::uint32_t>(cs.size());
    cs.add(flow::Resource::kAccess,
           duty[l] * std::min(antennas, cell_pop[l]), 2.0 * cell_pop[l]);
  }
  res.mean_cell_population =
      active_cells ? pop_sum / static_cast<double>(active_cells) : 0.0;
  res.max_cell_population = pop_max;
  res.mean_duty_cycle =
      active_cells ? duty_sum / static_cast<double>(active_cells) : 0.0;
  res.min_duty_cycle = std::isfinite(duty_min) ? duty_min : 0.0;

  // --- wired backbone between serving BSs ---------------------------------
  // Each flow enters the backbone at the source's serving BS and leaves at
  // the destination's. Routing it over the single direct wire would pin a
  // whole flow to one c(n)-edge; instead the backbone relays through a
  // uniformly random intermediate BS (Valiant load balancing over the
  // complete graph), so every flow costs 2 edge traversals spread evenly
  // over all k(k−1)/2 wires — this is what realizes the aggregate
  // Θ(k²c/n) bound of Theorem 9's phase II.
  double wired_flows = 0.0;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (serving[s] == kNone || serving[dest[s]] == kNone) continue;
    if (serving[s] == serving[dest[s]]) continue;
    wired_flows += 1.0;
  }
  std::uint32_t backbone_cid = kNoCid;
  double backbone_coeff = 0.0;
  if (wired_flows > 0.0 && k >= 2) {
    const double edges = static_cast<double>(k) *
                         (static_cast<double>(k) - 1.0) / 2.0;
    backbone_cid = static_cast<std::uint32_t>(cs.size());
    backbone_coeff = 2.0 / edges;  // Valiant: 2 traversals spread evenly
    cs.add(flow::Resource::kBackbone, net.params().c(),
           2.0 * wired_flows / edges);
  } else if (wired_flows > 0.0) {
    backbone_cid = static_cast<std::uint32_t>(cs.size());
    backbone_coeff = 1.0;  // zero-capacity sentinel: pins wired flows to 0
    cs.add(flow::Resource::kBackbone, 0.0, 1.0, "single BS, no wires");
  }

  // Per-flow incidence: uplink into the source's cell, downlink out of the
  // destination's, plus the Valiant backbone share when the cells differ.
  res.throughput = cs.solve();
  if (rates != nullptr) {
    rates->constraints = std::move(cs).constraints();
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::uint32_t d = dest[s];
      if (serving[s] == kNone || serving[d] == kNone) continue;  // unserved
      rates->flow_served[s] = 1;
      rates->note(s, cell_cid[serving[s]], 1.0);
      rates->note(s, cell_cid[serving[d]], 1.0);
      const bool crosses = serving[s] != serving[d];
      rates->flow_hops[s] = crosses ? 3.0 : 2.0;
      if (crosses && backbone_cid != kNoCid)
        rates->note(s, backbone_cid, backbone_coeff);
    }
    rates->finalize();
  }

  // Typical-resource (symmetric) estimate: replaces the strict min over
  // cells by the mean cell — converges to the Θ law without the
  // extreme-value bias of finite-n minima. Within a constant of a feasible
  // rate w.h.p. (cell populations concentrate, Lemma 11).
  {
    flow::ConstraintSet sym;
    if (res.ms_without_bs > 0)
      sym.add(flow::Resource::kAccess, 0.0, 1.0, "cluster without BS");
    if (active_cells > 0)
      sym.add(flow::Resource::kAccess,
              res.mean_duty_cycle *
                  std::min(antennas, res.mean_cell_population),
              2.0 * res.mean_cell_population);
    if (wired_flows > 0.0 && k >= 2) {
      const double edges = static_cast<double>(k) *
                           (static_cast<double>(k) - 1.0) / 2.0;
      sym.add(flow::Resource::kBackbone, net.params().c(),
              2.0 * wired_flows / edges);
    }
    res.lambda_symmetric = sym.solve().lambda;
  }
  return res;
}

}  // namespace manetcap::routing
