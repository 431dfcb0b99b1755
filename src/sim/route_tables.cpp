#include "sim/route_tables.h"

#include <algorithm>
#include <cmath>

#include "geom/spatial_hash.h"
#include "linkcap/link_capacity.h"
#include "routing/scheme_a.h"
#include "util/check.h"

namespace manetcap::sim {

SchemeARouteTables build_scheme_a_tables(
    const net::Network& net, const std::vector<std::uint32_t>& dest) {
  SchemeARouteTables t;
  const std::size_t n = net.num_ms();
  const double side =
      routing::SchemeA::kCellSideFactor * net.mobility_radius();
  t.tess = geom::SquareTessellation::with_cell_side(std::min(side, 1.0));
  t.home_cell.resize(n);
  for (std::uint32_t i = 0; i < n; ++i)
    t.home_cell[i] = static_cast<std::uint32_t>(
        t.tess.index_of(t.tess.cell_of(net.ms_home()[i])));
  t.path_start.assign(n + 1, 0);
  for (std::uint32_t s = 0; s < n; ++s) {
    const auto cells = t.tess.hv_path(
        t.tess.cell_at(static_cast<int>(t.home_cell[s])),
        t.tess.cell_at(static_cast<int>(t.home_cell[dest[s]])));
    t.path_start[s + 1] =
        t.path_start[s] + static_cast<std::uint32_t>(cells.size());
    for (const auto& c : cells)
      t.path_cells.push_back(static_cast<std::uint32_t>(t.tess.index_of(c)));
  }
  return t;
}

ServingTables build_scheme_b_serving(const net::Network& net, double ct,
                                     double delta) {
  const std::size_t n = net.num_ms();
  const std::size_t k = net.num_bs();
  MANETCAP_CHECK_MSG(k >= 1, "scheme B slot sim needs base stations");
  linkcap::LinkCapacityModel mu(net.shape(), net.params().f(), n + k, ct,
                                delta);
  ServingTables t;
  const double contact = mu.max_contact_dist_ms_bs();
  t.contact = contact;  // re-homing under faults reuses the same rule
  geom::SpatialHash bs_hash(std::max(contact, 1e-4), k);
  bs_hash.build(net.bs_pos());
  t.serving_start.assign(n + 1, 0);
  t.serving_is_fallback.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t before = t.serving_ids.size();
    bs_hash.visit_disk(
        net.ms_home()[i], contact,
        [&t](std::uint32_t l) { t.serving_ids.push_back(l); });
    if (t.serving_ids.size() == before) {
      // Sparse-BS fallback: an MS whose home point sees no BS within the
      // contact distance must still have a serving BS — packets addressed
      // to it would otherwise sit at hop 0 in BS queues forever
      // (wired_step has nowhere to forward them), permanently pinning
      // max_queue slots and throttling every other flow through that BS.
      const std::uint32_t l = bs_hash.nearest(net.ms_home()[i]);
      MANETCAP_CHECK_MSG(l != geom::SpatialHash::kNone,
                         "scheme B: nearest-BS fallback found no BS");
      t.serving_ids.push_back(l);
      t.serving_is_fallback[i] = 1;
    }
    t.serving_start[i + 1] = static_cast<std::uint32_t>(t.serving_ids.size());
  }
  return t;
}

ServingTables build_scheme_c_association(const net::Network& net) {
  const std::size_t n = net.num_ms();
  const std::size_t k = net.num_bs();
  MANETCAP_CHECK_MSG(k >= 1, "scheme C slot sim needs base stations");
  geom::SpatialHash bs_hash(
      std::max(1.0 / std::sqrt(static_cast<double>(k)), 1e-4), k);
  bs_hash.build(net.bs_pos());
  ServingTables t;
  t.serving_start.assign(n + 1, 0);
  t.serving_ids.resize(n);
  t.serving_is_fallback.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t l = bs_hash.nearest(net.ms_home()[i]);
    MANETCAP_CHECK_MSG(l != geom::SpatialHash::kNone,
                       "scheme C: BS association found no BS");
    t.serving_ids[i] = l;
    t.serving_start[i + 1] = i + 1;
  }
  return t;
}

CellTables build_cells_and_colors(
    const net::Network& net, const std::vector<std::uint32_t>& serving_start,
    const std::vector<std::uint32_t>& serving_ids, double delta,
    const std::vector<std::uint8_t>* bs_alive) {
  const std::size_t n = net.num_ms();
  const std::size_t k = net.num_bs();
  const auto is_live = [&](std::uint32_t l) {
    return bs_alive == nullptr || bs_alive->empty() || (*bs_alive)[l] != 0;
  };
  std::vector<double> cell_radius(k, 0.0);
  std::vector<std::uint32_t> member_count(k, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t l = serving_ids[serving_start[i]];
    ++member_count[l];
    cell_radius[l] = std::max(
        cell_radius[l],
        geom::torus_dist(net.ms_home()[i], net.bs_pos()[l]));
  }
  // Members per cell, CSR, in ascending MS order (the order the legacy
  // push_back construction produced).
  CellTables t;
  t.members_start.assign(k + 1, 0);
  for (std::uint32_t l = 0; l < k; ++l)
    t.members_start[l + 1] = t.members_start[l] + member_count[l];
  t.members_ids.resize(n);
  std::vector<std::uint32_t> cursor(t.members_start.begin(),
                                    t.members_start.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i)
    t.members_ids[cursor[serving_ids[serving_start[i]]]++] = i;

  const double wobble = 2.0 * net.mobility_radius();
  for (auto& r : cell_radius) r += wobble;

  // Greedy coloring of the cell interference graph (Theorem 9's
  // bounded-degree coloring), restricted to live cells.
  t.cell_color.assign(k, -1);
  t.num_colors = 1;
  for (std::uint32_t a = 0; a < k; ++a) {
    if (!is_live(a)) continue;
    std::vector<bool> used(t.num_colors + 1, false);
    for (std::uint32_t b = 0; b < a; ++b) {
      if (!is_live(b)) continue;
      const double d = geom::torus_dist(net.bs_pos()[a], net.bs_pos()[b]);
      if (d < cell_radius[a] + (1.0 + delta) * cell_radius[b] ||
          d < cell_radius[b] + (1.0 + delta) * cell_radius[a]) {
        if (t.cell_color[b] < static_cast<int>(used.size()))
          used[t.cell_color[b]] = true;
      }
    }
    int c = 0;
    while (c < static_cast<int>(used.size()) && used[c]) ++c;
    t.cell_color[a] = c;
    t.num_colors = std::max(t.num_colors, static_cast<std::size_t>(c) + 1);
  }
  return t;
}

}  // namespace manetcap::sim
