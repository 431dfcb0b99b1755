#include "routing/routed_contacts.h"

#include <algorithm>
#include <cmath>

#include "geom/spatial_hash.h"
#include "util/check.h"

namespace manetcap::routing {

RoutedCellPairs::RoutedCellPairs(
    const geom::SquareTessellation& tess, double contact,
    const std::unordered_map<std::uint64_t, double>& load)
    : g_(tess.cells_per_side()) {
  MANETCAP_CHECK(contact >= 0.0);
  // Two home points within `contact` lie at most ceil(contact·g) cells
  // apart per axis; one more absorbs cell_of's rounding at cell borders.
  const double span = contact * static_cast<double>(g_);
  const int reach = span >= static_cast<double>(g_)
                        ? g_
                        : static_cast<int>(std::ceil(span)) + 1;
  w_ = std::min(g_, 2 * reach + 1);
  w2_ = static_cast<std::size_t>(w_) * static_cast<std::size_t>(w_);
  // Residues 0..reach and g−reach..g−1 map onto 0..w−1; with w = g every
  // residue is its own index.
  window_.assign(static_cast<std::size_t>(g_), -1);
  for (int d = 0; d < g_; ++d) {
    if (w_ == g_ || d <= reach)
      window_[static_cast<std::size_t>(d)] = d;
    else if (d >= g_ - reach)
      window_[static_cast<std::size_t>(d)] = d - (g_ - w_);
  }
  block_.assign(static_cast<std::size_t>(tess.num_cells()), 0);
  table_.assign(w2_, kNone);

  load_.reserve(load.size());
  for (const auto& [key, demanded] : load) {
    const auto s = static_cast<std::uint32_t>(load_.size());
    load_.push_back(demanded);
    const geom::Cell a =
        tess.cell_at(static_cast<int>(key & 0xffffffffu));
    const geom::Cell b = tess.cell_at(static_cast<int>(key >> 32));
    std::uint32_t* ab = entry(a, b);
    if (ab == nullptr) {
      overflow_.emplace(key, s);
      continue;
    }
    *ab = s;
    *entry(b, a) = s;  // the window is symmetric: −d is in it when d is
  }
}

std::uint32_t* RoutedCellPairs::entry(geom::Cell a, geom::Cell b) {
  int dr = b.row - a.row;
  int dc = b.col - a.col;
  if (dr < 0) dr += g_;
  if (dc < 0) dc += g_;
  const int wr = window_[static_cast<std::size_t>(dr)];
  const int wc = window_[static_cast<std::size_t>(dc)];
  if (wr < 0 || wc < 0) return nullptr;
  std::uint32_t& blk =
      block_[static_cast<std::size_t>(a.row) * static_cast<std::size_t>(g_) +
             static_cast<std::size_t>(a.col)];
  if (blk == 0) {
    blk = static_cast<std::uint32_t>(table_.size() / w2_);
    table_.resize(table_.size() + w2_, kNone);
  }
  return &table_[static_cast<std::size_t>(blk) * w2_ +
                 static_cast<std::size_t>(wr * w_ + wc)];
}

std::uint32_t RoutedCellPairs::overflow_slot(geom::Cell a,
                                             geom::Cell b) const {
  const auto it = overflow_.find(
      cell_pair_key(a.row * g_ + a.col, b.row * g_ + b.col));
  return it == overflow_.end() ? kNone : it->second;
}

RoutedContacts routed_contact_pass(const std::vector<geom::Point>& home,
                                   const std::vector<geom::Cell>& cell,
                                   const RoutedCellPairs& pairs,
                                   const linkcap::LinkCapacityModel& mu,
                                   double share) {
  const std::size_t n = home.size();
  MANETCAP_CHECK(cell.size() == n);
  const double contact = mu.max_contact_dist_ms_ms();
  RoutedContacts out;
  // One spare slot past the routed ones takes every pair that is not
  // routed (same cell, or no route between the cells), so the hot loop
  // adds without a branch; it is dropped at the end.
  const auto spare = static_cast<std::uint32_t>(pairs.size());
  std::vector<double>& cap = out.cap;
  cap.assign(pairs.size() + 1, 0.0);
  out.airtime.assign(n, 0.0);
  std::vector<double>& airtime = out.airtime;

  geom::SpatialHash hash(std::max(contact, 1e-4), n);
  hash.build(home);
  for (std::uint32_t i = 0; i < n; ++i) {
    const geom::Cell ci = cell[i];
    // airtime[i] already holds its terms from every i' < i; its own terms
    // follow in visit order, so a local sum adds them in the same order.
    double air = airtime[i];
    hash.visit_disk_above(
        home[i], i, contact, [&](std::uint32_t j, double d2) {
          // sqrt(torus_dist2) is torus_dist bit for bit.
          const double m = share * mu.mu_ms_ms(std::sqrt(d2));
          if (m <= 0.0) return;
          air += m;
          airtime[j] += m;
          // A cell is never routed to itself: same-cell pairs read kNone.
          cap[std::min(pairs.slot(ci, cell[j]), spare)] += m;
        });
    airtime[i] = air;
  }
  cap.pop_back();
  return out;
}

}  // namespace manetcap::routing
