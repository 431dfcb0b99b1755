#include "routing/static_multihop.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "geom/spatial_hash.h"
#include "geom/tessellation.h"
#include "util/check.h"

namespace manetcap::routing {

StaticMultihop::StaticMultihop(double range_factor, double delta)
    : range_factor_(range_factor), delta_(delta) {
  MANETCAP_CHECK(range_factor >= 1.0);
  MANETCAP_CHECK(delta >= 0.0);
}

StaticMultihopResult StaticMultihop::evaluate(
    const net::Network& net, const std::vector<std::uint32_t>& dest,
    RateStructure* rates) const {
  return net.params().cluster_free()
             ? evaluate_uniform(net, dest, rates)
             : evaluate_clustered(net, dest, rates);
}

StaticMultihopResult StaticMultihop::evaluate_uniform(
    const net::Network& net, const std::vector<std::uint32_t>& dest,
    RateStructure* rates) const {
  const auto& home = net.ms_home();
  const std::size_t n = home.size();
  MANETCAP_CHECK(dest.size() == n);
  if (rates != nullptr) rates->reset(n);
  StaticMultihopResult res;

  // Gupta–Kumar connectivity range over n uniform nodes.
  const double rt = range_factor_ *
                    std::sqrt(std::log(static_cast<double>(n)) /
                              (M_PI * static_cast<double>(n)));
  res.transmission_range = rt;
  geom::SquareTessellation tess =
      geom::SquareTessellation::with_cell_side(std::min(rt, 0.5));
  if (tess.cells_per_side() < 2) {
    // Range spans the torus: one shared channel, pure TDMA.
    flow::ConstraintSet cs;
    cs.add(flow::Resource::kWirelessRelay, 1.0,
           static_cast<double>(n));
    res.throughput = cs.solve();
    if (rates != nullptr) {
      rates->constraints = std::move(cs).constraints();
      for (std::uint32_t s = 0; s < n; ++s) {
        rates->note(s, 0, 1.0);
        rates->flow_served[s] = 1;
        rates->flow_hops[s] = 1.0;
      }
      rates->finalize();
    }
    res.mean_duty_cycle = 1.0;
    return res;
  }

  // Every visited cell must host at least one node to relay.
  std::vector<std::size_t> occupancy(tess.num_cells(), 0);
  for (const auto& p : home) ++occupancy[tess.index_of(tess.cell_of(p))];

  std::vector<double> load(tess.num_cells(), 0.0);
  double hops = 0.0;
  bool broken = false;
  for (std::uint32_t s = 0; s < n; ++s) {
    const auto path =
        tess.hv_path(tess.cell_of(home[s]), tess.cell_of(home[dest[s]]));
    hops += static_cast<double>(path.size()) - 1.0;
    for (const auto& cell : path) {
      const int idx = tess.index_of(cell);
      load[idx] += 1.0;
      if (occupancy[idx] == 0) broken = true;
    }
  }
  res.mean_hops = hops / static_cast<double>(n);
  res.connected = !broken;

  // TDMA duty: same-color cells must be ≥ (2+Δ)·R_T apart.
  const int period =
      static_cast<int>(std::ceil((2.0 + delta_) * rt / tess.cell_side())) + 1;
  const double duty = 1.0 / static_cast<double>(period * period);
  res.mean_duty_cycle = duty;

  flow::ConstraintSet cs;
  constexpr std::uint32_t kNoCid = ~std::uint32_t{0};
  std::uint32_t broken_cid = kNoCid;
  if (broken) {
    broken_cid = static_cast<std::uint32_t>(cs.size());
    cs.add(flow::Resource::kWirelessRelay, 0.0, 1.0, "empty cell");
  }
  std::vector<std::uint32_t> cell_cid;
  if (rates != nullptr) cell_cid.assign(tess.num_cells(), kNoCid);
  double load_sum = 0.0, load_max = 0.0;
  std::size_t loaded_cells = 0;
  for (int idx = 0; idx < tess.num_cells(); ++idx) {
    if (load[idx] > 0.0) {
      if (rates != nullptr)
        cell_cid[idx] = static_cast<std::uint32_t>(cs.size());
      cs.add(flow::Resource::kWirelessRelay, duty, load[idx]);
      load_sum += load[idx];
      load_max = std::max(load_max, load[idx]);
      ++loaded_cells;
    }
  }
  // Per-flow incidence: every visited cell (endpoints included), plus the
  // zero-capacity sentinel for flows whose path crosses an empty cell.
  res.throughput = cs.solve();
  if (rates != nullptr) {
    rates->constraints = std::move(cs).constraints();
    for (std::uint32_t s = 0; s < n; ++s) {
      const auto path =
          tess.hv_path(tess.cell_of(home[s]), tess.cell_of(home[dest[s]]));
      bool flow_broken = false;
      for (const auto& cell : path) {
        const int idx = tess.index_of(cell);
        rates->note(s, cell_cid[idx], 1.0);
        if (occupancy[idx] == 0) flow_broken = true;
      }
      if (flow_broken && broken_cid != kNoCid)
        rates->note(s, broken_cid, 1.0);
      rates->flow_served[s] = 1;
      rates->flow_hops[s] =
          std::max(static_cast<double>(path.size()) - 1.0, 1.0);
    }
    rates->finalize();
  }
  res.lambda_symmetric =
      broken || loaded_cells == 0
          ? 0.0
          : duty * static_cast<double>(loaded_cells) / load_sum;
  return res;
}

StaticMultihopResult StaticMultihop::evaluate_clustered(
    const net::Network& net, const std::vector<std::uint32_t>& dest,
    RateStructure* rates) const {
  const auto& layout = net.ms_layout();
  const std::size_t n = net.num_ms();
  const std::size_t m = layout.num_clusters();
  MANETCAP_CHECK(dest.size() == n);
  if (rates != nullptr) rates->reset(n);
  StaticMultihopResult res;
  MANETCAP_CHECK(m >= 2);

  // Lemma 10: R_T = Ω(√γ) with γ = log m / m is necessary for
  // inter-cluster connectivity.
  const double rt =
      range_factor_ * std::sqrt(std::log(static_cast<double>(m)) /
                                (M_PI * static_cast<double>(m)));
  res.transmission_range = rt;
  // A hop connects clusters when members can be within R_T of each other.
  const double link_dist =
      rt + 2.0 * layout.cluster_radius + 2.0 * net.mobility_radius();

  // Cluster adjacency graph.
  std::vector<std::vector<std::uint32_t>> adj(m);
  for (std::uint32_t a = 0; a < m; ++a) {
    for (std::uint32_t b = a + 1; b < m; ++b) {
      if (geom::torus_dist(layout.cluster_centers[a],
                           layout.cluster_centers[b]) <= link_dist) {
        adj[a].push_back(b);
        adj[b].push_back(a);
      }
    }
  }

  // All-pairs BFS parents (m is small: m = n^M with M < 1/2 in practice).
  constexpr std::uint32_t kUnset = ~std::uint32_t{0};
  std::vector<std::vector<std::uint32_t>> parent(
      m, std::vector<std::uint32_t>(m, kUnset));
  for (std::uint32_t src = 0; src < m; ++src) {
    auto& par = parent[src];
    std::queue<std::uint32_t> q;
    q.push(src);
    par[src] = src;
    while (!q.empty()) {
      const std::uint32_t u = q.front();
      q.pop();
      for (std::uint32_t v : adj[u]) {
        if (par[v] == kUnset) {
          par[v] = u;
          q.push(v);
        }
      }
    }
  }

  // Route each flow over the cluster graph; load = visits per cluster.
  std::vector<double> load(m, 0.0);
  double hops = 0.0;
  bool disconnected = false;
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t cs_ = layout.cluster_of[s];
    const std::uint32_t cd = layout.cluster_of[dest[s]];
    if (parent[cs_][cd] == kUnset) {
      disconnected = true;
      continue;
    }
    // Walk back from destination cluster to source cluster.
    std::uint32_t cur = cd;
    load[cur] += 1.0;
    while (cur != cs_) {
      cur = parent[cs_][cur];
      load[cur] += 1.0;
      hops += 1.0;
    }
  }
  res.connected = !disconnected;
  res.mean_hops = hops / static_cast<double>(n);

  // Interference: a long-range hop of R_T silences every cluster within the
  // (1+Δ) guard reach; the duty cycle of a cluster is 1/(1 + #conflicting
  // clusters), which is Θ(1/log m) since m·R_T² = Θ(log m) clusters overlap.
  const double guard = (1.0 + delta_) * link_dist;
  flow::ConstraintSet cs;
  constexpr std::uint32_t kNoCid = ~std::uint32_t{0};
  if (disconnected)
    cs.add(flow::Resource::kWirelessRelay, 0.0, 1.0, "disconnected cluster");
  std::vector<std::uint32_t> cluster_cid;
  if (rates != nullptr) cluster_cid.assign(m, kNoCid);
  double duty_sum = 0.0, load_sum = 0.0;
  std::size_t loaded = 0;
  for (std::uint32_t a = 0; a < m; ++a) {
    if (load[a] <= 0.0) continue;
    std::size_t degree = 0;
    for (std::uint32_t b = 0; b < m; ++b) {
      if (b != a && geom::torus_dist(layout.cluster_centers[a],
                                     layout.cluster_centers[b]) <= guard)
        ++degree;
    }
    const double duty = 1.0 / static_cast<double>(degree + 1);
    duty_sum += duty;
    load_sum += load[a];
    ++loaded;
    if (rates != nullptr)
      cluster_cid[a] = static_cast<std::uint32_t>(cs.size());
    cs.add(flow::Resource::kWirelessRelay, duty, load[a]);
  }
  res.mean_duty_cycle =
      loaded ? duty_sum / static_cast<double>(loaded) : 0.0;
  // Per-flow incidence: re-walk each connected flow's cluster chain;
  // disconnected flows carry nothing (flow_served stays 0).
  res.throughput = cs.solve();
  if (rates != nullptr) {
    rates->constraints = std::move(cs).constraints();
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::uint32_t cs_ = layout.cluster_of[s];
      const std::uint32_t cd = layout.cluster_of[dest[s]];
      if (parent[cs_][cd] == kUnset) continue;
      rates->flow_served[s] = 1;
      std::uint32_t cur = cd;
      rates->note(s, cluster_cid[cur], 1.0);
      double hops = 0.0;
      while (cur != cs_) {
        cur = parent[cs_][cur];
        rates->note(s, cluster_cid[cur], 1.0);
        hops += 1.0;
      }
      rates->flow_hops[s] = std::max(hops, 1.0);
    }
    rates->finalize();
  }
  // mean duty / mean load over loaded clusters = duty_sum / load_sum.
  res.lambda_symmetric =
      disconnected || loaded == 0 ? 0.0 : duty_sum / load_sum;
  return res;
}

}  // namespace manetcap::routing
