// Scheme A's routed contact pass, shared by unicast and multicast scheme A
// (Definition 11 over the S* link capacities of Definition 9 / Corollary 1).
//
// Scheme A's rows read the wireless capacity of a squarelet pair only where
// an H-V route hops. The evaluators therefore route first: their load map
// (cell-pair key → unit load) decides which pairs exist and, through its
// iteration order, the row order. RoutedCellPairs numbers those pairs by
// slot in that order, and routed_contact_pass adds each home-point pair's μ
// only into its routed slot, in the order the one-map pass used to add it,
// so every sum keeps its bits.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/point.h"
#include "geom/tessellation.h"
#include "linkcap/link_capacity.h"

namespace manetcap::routing {

/// Key of the unordered squarelet pair {a, b} (row-major cell indices).
inline std::uint64_t cell_pair_key(int a, int b) {
  const std::uint64_t lo = static_cast<std::uint32_t>(a < b ? a : b);
  const std::uint64_t hi = static_cast<std::uint32_t>(a < b ? b : a);
  return (hi << 32) | lo;
}

/// Calls hop(a, b) for each routed hop of the H-V path from `src` to `dst`:
/// consecutive path cells that hold a home point (`occupancy` by cell
/// index), the destination always kept. An empty cell on the way is
/// skipped and the flow hops over it (Definition 11's detour).
template <class Fn>
void for_each_routed_hop(const geom::SquareTessellation& tess,
                         const std::vector<int>& occupancy, geom::Cell src,
                         geom::Cell dst, Fn&& hop) {
  geom::Cell prev = src;
  tess.visit_hv_path(src, dst, [&](geom::Cell cur) {
    if (cur != dst && occupancy[tess.index_of(cur)] == 0) return;
    hop(prev, cur);
    prev = cur;
  });
}

/// The routed squarelet pairs of one evaluation, numbered by slot in the
/// load map's iteration order, so slot s is the evaluator's s-th pair row.
///
/// A pair is found through a dense per-cell table: each cell that ends a
/// routed pair owns a w×w block indexed by the offset to the other end
/// (every other cell shares one block of kNone).
/// Offsets are residues mod g per axis, (b − a) mod g, never signed steps:
/// on an even grid a detour can span exactly g/2 cells, and a signed
/// shortest step reads +g/2 from both ends of such a pair. The window
/// holds every offset that two home points within contact can span, so
/// the contact pass never leaves it; a routed pair outside it (a long
/// detour over empty cells) is kept in a small overflow map.
class RoutedCellPairs {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Numbers the keys of `load` (cell_pair_key → unit load) by slot.
  /// `contact` is the home-distance beyond which μ is zero; it sizes the
  /// window.
  RoutedCellPairs(const geom::SquareTessellation& tess, double contact,
                  const std::unordered_map<std::uint64_t, double>& load);

  std::size_t size() const { return load_.size(); }

  /// Unit load of the pair in slot `s`.
  double load(std::uint32_t s) const { return load_[s]; }

  /// Slot of the pair {a, b}, or kNone when no route hops between them.
  std::uint32_t slot(geom::Cell a, geom::Cell b) const {
    int dr = b.row - a.row;
    int dc = b.col - a.col;
    if (dr < 0) dr += g_;
    if (dc < 0) dc += g_;
    const int wr = window_[static_cast<std::size_t>(dr)];
    const int wc = window_[static_cast<std::size_t>(dc)];
    if (wr < 0 || wc < 0) return overflow_slot(a, b);
    const std::uint32_t blk =
        block_[static_cast<std::size_t>(a.row) * static_cast<std::size_t>(g_) +
               static_cast<std::size_t>(a.col)];
    return table_[static_cast<std::size_t>(blk) * w2_ +
                  static_cast<std::size_t>(wr * w_ + wc)];
  }

 private:
  /// Table entry of the offset from `a` to `b`, allocating a's block on
  /// first use; nullptr when the offset lies outside the window.
  std::uint32_t* entry(geom::Cell a, geom::Cell b);
  std::uint32_t overflow_slot(geom::Cell a, geom::Cell b) const;

  int g_;           // cells per side
  int w_;           // window offsets per axis, ≤ g_
  std::size_t w2_;  // w_ · w_
  std::vector<int> window_;           // residue mod g → window index or −1
  std::vector<std::uint32_t> block_;  // per cell: its block (0: no pair)
  std::vector<std::uint32_t> table_;  // w2_ slots per block; block 0 empty
  std::unordered_map<std::uint64_t, std::uint32_t> overflow_;
  std::vector<double> load_;  // per slot
};

/// Wireless substrate of scheme A's rows.
struct RoutedContacts {
  /// cap[s] = Σ share·μ(i, j) over home-point pairs i < j within contact
  /// whose squarelets form routed pair s.
  std::vector<double> cap;
  /// airtime[i] = Σ_j share·μ(i, j) over every j ≠ i within contact.
  std::vector<double> airtime;
};

/// The contact pass: for i ascending, every j > i within contact in the
/// spatial hash's visit order — the order every sum had when the pass
/// visited whole disks. `cell[i]` is home[i]'s squarelet.
RoutedContacts routed_contact_pass(const std::vector<geom::Point>& home,
                                   const std::vector<geom::Cell>& cell,
                                   const RoutedCellPairs& pairs,
                                   const linkcap::LinkCapacityModel& mu,
                                   double share);

}  // namespace manetcap::routing
