#include "routing/scheme_b.h"

#include <algorithm>
#include <cmath>

#include "backbone/backbone.h"
#include "geom/spatial_hash.h"
#include "geom/tessellation.h"
#include "linkcap/link_capacity.h"
#include "util/check.h"

namespace manetcap::routing {

namespace {
/// Squarelet grid for phase II grouping: constant cell count, shrunk when
/// there are too few BSs to populate 16 cells w.h.p.
int squarelet_grid_side(std::size_t k) {
  if (k >= 48) return 4;
  if (k >= 8) return 2;
  return 1;
}
}  // namespace

SchemeB::SchemeB(BsGrouping grouping) : grouping_(grouping) {}

SchemeBResult SchemeB::evaluate(const net::Network& net,
                                const std::vector<std::uint32_t>& dest,
                                const std::vector<bool>* include_flow,
                                double bandwidth_share,
                                RateStructure* rates) const {
  const auto& home = net.ms_home();
  const auto& bs = net.bs_pos();
  const std::size_t n = home.size();
  const std::size_t k = bs.size();
  MANETCAP_CHECK(dest.size() == n);
  MANETCAP_CHECK_MSG(k >= 1, "scheme B needs base stations");
  MANETCAP_CHECK(bandwidth_share > 0.0 && bandwidth_share <= 1.0);
  MANETCAP_CHECK(!include_flow || include_flow->size() == n);
  auto included = [include_flow](std::uint32_t s) {
    return !include_flow || (*include_flow)[s];
  };
  if (rates != nullptr) rates->reset(n);
  // Per-MS access demand: 1 unit as source of an included flow, 1 as its
  // destination.
  std::vector<double> ms_demand(n, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!included(s)) continue;
    ms_demand[s] += 1.0;
    ms_demand[dest[s]] += 1.0;
  }

  SchemeBResult res;
  // The S* range: global Θ(1/√(n+k)) in the uniformly dense regime, but
  // subnet-renormalized Θ(r√(m/n)) when clusters act as subnets (Table I,
  // weak-mobility row) — inside a cluster the node density is m/(πr²)
  // higher, so the critical spacing shrinks accordingly.
  const net::ScalingParams& params = net.params();
  linkcap::LinkCapacityModel mu =
      (grouping_ == BsGrouping::kCluster && !params.cluster_free())
          ? linkcap::LinkCapacityModel::with_range(
                net.shape(), params.f(),
                linkcap::LinkCapacityModel::kDefaultCt * params.r() *
                    std::sqrt(static_cast<double>(params.m()) /
                              static_cast<double>(params.n)))
          : linkcap::LinkCapacityModel(net.shape(), params.f(), n + k);
  const double contact = mu.max_contact_dist_ms_bs();

  // --- phase I & III: wireless access -------------------------------------
  geom::SpatialHash bs_hash(std::max(contact, 1e-4), k);
  bs_hash.build(bs);

  std::vector<double> access(n, 0.0);       // µ_i^A
  std::vector<double> bs_capacity(k, 0.0);  // Σ_i μ(i, l)
  std::vector<double> bs_unit_load(k, 0.0); // Σ_i 2·μ_il/µ_i^A at λ = 1
  constexpr std::uint32_t kNoBs = ~std::uint32_t{0};
  std::vector<std::uint32_t> anchor_bs(n, kNoBs);  // strongest-μ BS
  // Two passes: µ_i^A first, then proportional spreading.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> reach(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    double best = 0.0;
    bs_hash.visit_disk(home[i], contact, [&](std::uint32_t l) {
      const double m = bandwidth_share *
                       mu.mu_ms_bs(geom::torus_dist(home[i], bs[l]));
      if (m <= 0.0) return;
      access[i] += m;
      reach[i].push_back({l, m});
      if (m > best) {
        best = m;
        anchor_bs[i] = l;
      }
    });
  }
  flow::ConstraintSet cs;
  constexpr std::uint32_t kNoCid = ~std::uint32_t{0};
  std::vector<std::uint32_t> ms_row_cid;  // per-MS access row
  std::vector<std::uint32_t> bs_row_cid;  // per-BS aggregate access row
  if (rates != nullptr) {
    ms_row_cid.assign(n, kNoCid);
    bs_row_cid.assign(k, kNoCid);
  }
  double min_access = std::numeric_limits<double>::infinity();
  double sum_access = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (access[i] <= 0.0) {
      if (ms_demand[i] > 0.0) ++res.unreachable_ms;
      continue;
    }
    min_access = std::min(min_access, access[i]);
    sum_access += access[i];
    // Uplink λ per included flow sourced here, downlink λ per included
    // flow terminating here (both 1 under full traffic).
    if (ms_demand[i] > 0.0) {
      if (rates != nullptr)
        ms_row_cid[i] = static_cast<std::uint32_t>(cs.size());
      cs.add(flow::Resource::kAccess, access[i], ms_demand[i]);
    }
    for (const auto& [l, m] : reach[i]) {
      bs_capacity[l] += m;
      bs_unit_load[l] += ms_demand[i] * m / access[i];
    }
  }
  // A BS with l = n^L antennas serves up to l concurrent streams, so its
  // aggregate access row caps at l·W_A instead of W_A (still bounded by the
  // sum of its per-link rates). At the paper's l = 1 this is unchanged.
  const double antennas = static_cast<double>(params.l());
  for (std::uint32_t l = 0; l < k; ++l) {
    if (bs_unit_load[l] > 0.0) {
      if (rates != nullptr)
        bs_row_cid[l] = static_cast<std::uint32_t>(cs.size());
      cs.add(flow::Resource::kAccess,
             std::min(antennas * bandwidth_share, bs_capacity[l]),
             bs_unit_load[l]);
    }
  }
  res.min_access_rate = std::isfinite(min_access) ? min_access : 0.0;
  const std::size_t covered = n - res.unreachable_ms;
  res.mean_access_rate =
      covered ? sum_access / static_cast<double>(covered) : 0.0;

  // --- phase II: wired backbone -------------------------------------------
  std::vector<std::uint32_t> ms_group(n), bs_group(k);
  std::size_t num_groups = 0;
  if (grouping_ == BsGrouping::kSquarelet) {
    geom::SquareTessellation tess(squarelet_grid_side(k));
    num_groups = static_cast<std::size_t>(tess.num_cells());
    for (std::uint32_t l = 0; l < k; ++l)
      bs_group[l] = static_cast<std::uint32_t>(
          tess.index_of(tess.cell_of(bs[l])));
    // A MS belongs to the squarelet of its strongest reachable BS — with
    // a full deployment that is its home squarelet (Definition 12); under
    // partial coverage it is the honest serving group.
    for (std::uint32_t i = 0; i < n; ++i) {
      ms_group[i] = anchor_bs[i] != kNoBs
                        ? bs_group[anchor_bs[i]]
                        : static_cast<std::uint32_t>(
                              tess.index_of(tess.cell_of(home[i])));
    }
  } else {
    num_groups = net.ms_layout().num_clusters();
    for (std::uint32_t i = 0; i < n; ++i)
      ms_group[i] = net.ms_layout().cluster_of[i];
    for (std::uint32_t l = 0; l < k; ++l) bs_group[l] = net.bs_cluster()[l];
  }
  res.num_groups = num_groups;

  std::vector<std::size_t> group_sizes(num_groups, 0);
  for (std::uint32_t l = 0; l < k; ++l) ++group_sizes[bs_group[l]];

  const double c = net.params().c();
  res.wired_edge_capacity = c;
  backbone::GroupedBackbone wired(group_sizes, c);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!included(s)) continue;
    // Flows with an uncovered endpoint are not served by scheme B.
    if (access[s] <= 0.0 || access[dest[s]] <= 0.0) continue;
    const std::uint32_t gs = ms_group[s], gd = ms_group[dest[s]];
    if (gs == gd) continue;  // data already at the serving BSs
    wired.add_load(gs, gd, 1.0);
  }
  const double edge_load = wired.max_edge_load();
  res.max_backbone_edge_load = edge_load;
  std::uint32_t backbone_cid = kNoCid;
  double backbone_row_load = 0.0;
  if (wired.max_feasible_scale() == 0.0) {
    backbone_cid = static_cast<std::uint32_t>(cs.size());
    backbone_row_load = 1.0;
    cs.add(flow::Resource::kBackbone, 0.0, 1.0, "empty BS group");
  } else if (edge_load > 0.0) {
    backbone_cid = static_cast<std::uint32_t>(cs.size());
    backbone_row_load = edge_load;
    cs.add(flow::Resource::kBackbone, c, edge_load);
  }

  // Per-flow incidence: each flow loads its two endpoints' access rows,
  // the reached BS rows in proportion to the access split (the same
  // m/µ_i^A weights the aggregate pass used), and — when it crosses
  // groups — an even share of the worst backbone edge's load.
  res.throughput = cs.solve();
  if (rates != nullptr) {
    rates->constraints = std::move(cs).constraints();
    double wired_flows = 0.0;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (!included(s)) continue;
      if (access[s] <= 0.0 || access[dest[s]] <= 0.0) continue;
      if (ms_group[s] != ms_group[dest[s]]) wired_flows += 1.0;
    }
    for (std::uint32_t s = 0; s < n; ++s) {
      if (!included(s)) continue;
      const std::uint32_t d = dest[s];
      const bool covered = access[s] > 0.0 && access[d] > 0.0;
      rates->flow_served[s] = covered ? 1 : 0;
      const bool crosses = ms_group[s] != ms_group[d];
      // MS→BS, (wire), BS→MS: 2 wireless hops, +1 store-and-forward stage
      // when the flow crosses the backbone.
      rates->flow_hops[s] = covered && crosses ? 3.0 : 2.0;
      for (const std::uint32_t i : {s, d}) {
        if (ms_row_cid[i] != kNoCid) rates->note(s, ms_row_cid[i], 1.0);
        if (access[i] <= 0.0) continue;
        for (const auto& [l, m] : reach[i]) {
          if (bs_row_cid[l] != kNoCid)
            rates->note(s, bs_row_cid[l], m / access[i]);
        }
      }
      if (covered && crosses && backbone_cid != kNoCid &&
          wired_flows > 0.0)
        rates->note(s, backbone_cid, backbone_row_load / wired_flows);
    }
    rates->finalize();
  }

  // Typical-resource (symmetric) estimate: mean access + fluid backbone.
  {
    flow::ConstraintSet sym;
    if (res.mean_access_rate > 0.0)
      sym.add(flow::Resource::kAccess, res.mean_access_rate, 2.0);
    else
      sym.add(flow::Resource::kAccess, 0.0, 2.0);
    if (wired.max_feasible_scale() == 0.0)
      sym.add(flow::Resource::kBackbone, 0.0, 1.0);
    else if (edge_load > 0.0)
      sym.add(flow::Resource::kBackbone, c, edge_load);
    res.lambda_symmetric = sym.solve().lambda;
  }
  return res;
}

}  // namespace manetcap::routing
