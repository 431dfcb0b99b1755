// Scheme A's routed contact pass against the one-map pass it replaced, and
// the note-order contract of RateStructure.
//
// reference_scheme_a() below is the map-based evaluation: μ summed over
// whole disks into an unordered_map keyed by every in-contact cell pair,
// loads routed after it, cids through a pair → cid map. SchemeA must
// reproduce it bit for bit: every row's capacity and unit load, the
// incidence CSR, λ_strict, λ_symmetric and the mean hop count. The small
// instances have even grids with empty cells, so some detours span exactly
// g/2 cells — the case a signed-offset pair table gets wrong.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "geom/spatial_hash.h"
#include "geom/tessellation.h"
#include "linkcap/link_capacity.h"
#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "routing/rate_structure.h"
#include "routing/routed_contacts.h"
#include "routing/scheme_a.h"
#include "util/check.h"

namespace manetcap::routing {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Reference {
  SchemeAResult res;
  RateStructure rates;
};

/// The map-based scheme A evaluation (default cell side factor 0.8).
Reference reference_scheme_a(const net::Network& net,
                             const std::vector<std::uint32_t>& dest,
                             const std::vector<bool>* include_flow,
                             double bandwidth_share) {
  Reference ref;
  SchemeAResult& res = ref.res;
  RateStructure* rates = &ref.rates;
  const auto& home = net.ms_home();
  const std::size_t n = home.size();
  auto included = [include_flow](std::uint32_t s) {
    return !include_flow || (*include_flow)[s];
  };
  rates->reset(n);
  geom::SquareTessellation tess = geom::SquareTessellation::with_cell_side(
      std::min(0.8 * net.mobility_radius(), 1.0));
  res.grid_side = tess.cells_per_side();
  if (res.grid_side < SchemeA::kMinGrid) {
    res.degenerate = true;
    return ref;
  }
  linkcap::LinkCapacityModel mu(net.shape(), net.params().f(),
                                n + net.num_bs());
  const double contact = mu.max_contact_dist_ms_ms();

  std::unordered_map<std::uint64_t, double> cap;
  std::vector<double> airtime(n, 0.0);
  std::vector<int> occupancy(tess.num_cells(), 0);
  std::vector<geom::Cell> cell_of(n);
  std::vector<int> cell_idx(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell_of[i] = tess.cell_of(home[i]);
    cell_idx[i] = tess.index_of(cell_of[i]);
    ++occupancy[cell_idx[i]];
  }
  geom::SpatialHash hash(std::max(contact, 1e-4), n);
  hash.build(home);
  for (std::uint32_t i = 0; i < n; ++i) {
    hash.visit_disk(home[i], contact, [&](std::uint32_t j) {
      if (j <= i) return;
      const double m =
          bandwidth_share * mu.mu_ms_ms(geom::torus_dist(home[i], home[j]));
      if (m <= 0.0) return;
      airtime[i] += m;
      airtime[j] += m;
      if (cell_idx[i] != cell_idx[j])
        cap[cell_pair_key(cell_idx[i], cell_idx[j])] += m;
    });
  }

  std::unordered_map<std::uint64_t, double> load;
  double total_hops = 0.0;
  std::size_t included_flows = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!included(s)) continue;
    ++included_flows;
    const auto path = tess.hv_path(cell_of[s], cell_of[dest[s]]);
    int prev = tess.index_of(path.front());
    for (std::size_t h = 1; h < path.size(); ++h) {
      const int cur = tess.index_of(path[h]);
      const bool last = h + 1 == path.size();
      if (!last && occupancy[cur] == 0) continue;
      load[cell_pair_key(prev, cur)] += 1.0;
      total_hops += 1.0;
      prev = cur;
    }
  }
  res.mean_hops =
      included_flows ? total_hops / static_cast<double>(included_flows) : 0.0;

  flow::ConstraintSet cs;
  std::unordered_map<std::uint64_t, std::uint32_t> pair_cid;
  double min_cap = std::numeric_limits<double>::infinity();
  double max_load = 0.0;
  for (const auto& [key, demanded] : load) {
    auto it = cap.find(key);
    const double capacity = it == cap.end() ? 0.0 : it->second;
    pair_cid[key] = static_cast<std::uint32_t>(cs.size());
    cs.add(flow::Resource::kWirelessRelay, capacity, demanded);
    min_cap = std::min(min_cap, capacity);
    max_load = std::max(max_load, demanded);
  }
  std::vector<double> endpoint_load(n, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!included(s)) continue;
    endpoint_load[s] += 1.0;
    endpoint_load[dest[s]] += 1.0;
  }
  constexpr std::uint32_t kNoCid = ~std::uint32_t{0};
  std::vector<std::uint32_t> endpoint_cid(n, kNoCid);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (endpoint_load[i] > 0.0) {
      endpoint_cid[i] = static_cast<std::uint32_t>(cs.size());
      cs.add(flow::Resource::kWirelessRelay, airtime[i], endpoint_load[i]);
    }
  }
  rates->constraints = cs.constraints();
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!included(s)) continue;
    rates->flow_served[s] = 1;
    const auto path = tess.hv_path(cell_of[s], cell_of[dest[s]]);
    int prev = tess.index_of(path.front());
    double hops = 0.0;
    for (std::size_t h = 1; h < path.size(); ++h) {
      const int cur = tess.index_of(path[h]);
      const bool last = h + 1 == path.size();
      if (!last && occupancy[cur] == 0) continue;
      rates->note(s, pair_cid.at(cell_pair_key(prev, cur)), 1.0);
      hops += 1.0;
      prev = cur;
    }
    rates->flow_hops[s] = std::max(hops, 1.0);
    if (endpoint_cid[s] != kNoCid) rates->note(s, endpoint_cid[s], 1.0);
    if (endpoint_cid[dest[s]] != kNoCid)
      rates->note(s, endpoint_cid[dest[s]], 1.0);
  }
  rates->finalize();
  res.throughput = cs.solve();
  res.min_intercell_capacity = std::isfinite(min_cap) ? min_cap : 0.0;
  res.max_intercell_load = max_load;

  double cap_sum = 0.0, load_sum = 0.0;
  for (const auto& [key, demanded] : load) {
    auto it = cap.find(key);
    cap_sum += it == cap.end() ? 0.0 : it->second;
    load_sum += demanded;
  }
  std::vector<double> at = airtime;
  std::nth_element(at.begin(), at.begin() + at.size() / 2, at.end());
  flow::ConstraintSet sym;
  if (load_sum > 0.0)
    sym.add(flow::Resource::kWirelessRelay, cap_sum, load_sum);
  sym.add(flow::Resource::kWirelessRelay, at[at.size() / 2], 2.0);
  res.lambda_symmetric = sym.solve().lambda;
  return ref;
}

/// Every field the oracle pins, bit for bit.
void expect_same_bits(const Reference& want, const SchemeAResult& got,
                      const RateStructure& rs, const std::string& what) {
  ASSERT_EQ(got.degenerate, want.res.degenerate) << what;
  ASSERT_EQ(got.grid_side, want.res.grid_side) << what;
  if (got.degenerate) return;
  EXPECT_EQ(bits(got.throughput.lambda), bits(want.res.throughput.lambda))
      << what;
  EXPECT_EQ(bits(got.lambda_symmetric), bits(want.res.lambda_symmetric))
      << what;
  EXPECT_EQ(bits(got.mean_hops), bits(want.res.mean_hops)) << what;
  EXPECT_EQ(bits(got.min_intercell_capacity),
            bits(want.res.min_intercell_capacity))
      << what;
  EXPECT_EQ(bits(got.max_intercell_load), bits(want.res.max_intercell_load))
      << what;
  const auto& rows = want.rates.constraints;
  ASSERT_EQ(rs.constraints.size(), rows.size()) << what;
  std::size_t row_mismatches = 0;
  for (std::size_t c = 0; c < rows.size(); ++c) {
    if (bits(rs.constraints[c].capacity) != bits(rows[c].capacity) ||
        bits(rs.constraints[c].unit_load) != bits(rows[c].unit_load))
      ++row_mismatches;
  }
  EXPECT_EQ(row_mismatches, 0u) << what;
  EXPECT_EQ(rs.flow_start, want.rates.flow_start) << what;
  EXPECT_EQ(rs.incid_cid, want.rates.incid_cid) << what;
  ASSERT_EQ(rs.incid_coeff.size(), want.rates.incid_coeff.size()) << what;
  for (std::size_t j = 0; j < rs.incid_coeff.size(); ++j)
    ASSERT_EQ(bits(rs.incid_coeff[j]), bits(want.rates.incid_coeff[j]))
        << what << " entry " << j;
  EXPECT_EQ(rs.flow_hops, want.rates.flow_hops) << what;
  EXPECT_EQ(rs.flow_served, want.rates.flow_served) << what;
}

struct OracleCase {
  net::ScalingParams params;
  net::BsPlacement placement;
  std::uint64_t seed;
};

net::ScalingParams no_bs(std::size_t n, double alpha) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = alpha;
  p.with_bs = false;
  p.M = 1.0;
  return p;
}

/// Runs the evaluator and the reference on one instance under every
/// variant: all flows or a third left out, full or half bandwidth.
void check_instance(const OracleCase& c) {
  const net::Network net = net::Network::build(
      c.params, mobility::ShapeKind::kUniformDisk, c.placement, c.seed);
  rng::Xoshiro256 g(c.seed * 31 + 7);
  const auto dest = net::permutation_traffic(c.params.n, g);
  std::vector<bool> mask(c.params.n);
  for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = i % 3 != 1;
  const std::vector<bool>* includes[] = {nullptr, &mask};
  for (const std::vector<bool>* include : includes) {
    for (const double share : {1.0, 0.5}) {
      const std::string what =
          "n=" + std::to_string(c.params.n) +
          " alpha=" + std::to_string(c.params.alpha) +
          " seed=" + std::to_string(c.seed) +
          (include ? " masked" : "") + " share=" + std::to_string(share);
      const Reference want = reference_scheme_a(net, dest, include, share);
      RateStructure rs;
      const SchemeAResult got =
          SchemeA().evaluate(net, dest, include, share, &rs);
      expect_same_bits(want, got, rs, what);
      const SchemeAResult bare = SchemeA().evaluate(net, dest, include, share);
      EXPECT_EQ(bits(bare.throughput.lambda), bits(got.throughput.lambda))
          << what;
      EXPECT_EQ(bits(bare.lambda_symmetric), bits(got.lambda_symmetric))
          << what;
    }
  }
}

/// Routed hops of `dest` spanning exactly g/2 cells on some axis of an
/// even grid, and hops spanning more than `far` cells on some axis.
struct HopSpans {
  std::size_t half_grid = 0;
  std::size_t beyond = 0;
};

HopSpans routed_hop_spans(const net::Network& net,
                          const std::vector<std::uint32_t>& dest, int far) {
  HopSpans spans;
  geom::SquareTessellation tess = geom::SquareTessellation::with_cell_side(
      std::min(0.8 * net.mobility_radius(), 1.0));
  const int g = tess.cells_per_side();
  std::vector<geom::Cell> cell(net.num_ms());
  std::vector<int> occupancy(tess.num_cells(), 0);
  for (std::size_t i = 0; i < cell.size(); ++i) {
    cell[i] = tess.cell_of(net.ms_home()[i]);
    ++occupancy[tess.index_of(cell[i])];
  }
  auto ring = [g](int a, int b) {
    const int d = ((b - a) % g + g) % g;
    return std::min(d, g - d);
  };
  for (std::uint32_t s = 0; s < cell.size(); ++s) {
    for_each_routed_hop(tess, occupancy, cell[s], cell[dest[s]],
                        [&](geom::Cell a, geom::Cell b) {
                          const int dr = ring(a.row, b.row);
                          const int dc = ring(a.col, b.col);
                          if (g % 2 == 0 && (2 * dr == g || 2 * dc == g))
                            ++spans.half_grid;
                          if (dr > far || dc > far) ++spans.beyond;
                        });
  }
  return spans;
}

// Small even and odd grids (g ∈ {4, 5, 6, 8, 10}) with empty cells.
TEST(SchemeAOracle, SmallGridsMatchMapPassBitForBit) {
  std::size_t half_grid_hops = 0;
  std::size_t evaluated = 0;
  for (const std::size_t n : {12, 16, 24, 64}) {
    for (const double alpha : {0.35, 0.4, 0.45, 0.5}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const OracleCase c{no_bs(n, alpha), net::BsPlacement::kUniform, seed};
        check_instance(c);
        if (HasFatalFailure()) return;
        const net::Network net = net::Network::build(
            c.params, mobility::ShapeKind::kUniformDisk, c.placement, seed);
        rng::Xoshiro256 g(seed * 31 + 7);
        half_grid_hops +=
            routed_hop_spans(net, net::permutation_traffic(n, g), n).half_grid;
        ++evaluated;
      }
    }
  }
  EXPECT_EQ(evaluated, 96u);
  // The even-grid wrap case must actually occur, or this test proves
  // nothing about it.
  EXPECT_GT(half_grid_hops, 0u);
}

// Dense instances at several seeds, with and without base stations in the
// S* population.
TEST(SchemeAOracle, DenseInstancesMatchMapPassBitForBit) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    check_instance({no_bs(4096, 0.35), net::BsPlacement::kUniform, seed});
    net::ScalingParams p = no_bs(3000, 0.4);
    p.with_bs = true;
    p.K = 0.75;
    check_instance({p, net::BsPlacement::kClusteredMatched, seed});
  }
}

// Clustered homes on a large grid: long detours over empty cells, so some
// routed pairs lie outside the contact window and resolve through the
// overflow map.
TEST(SchemeAOracle, SparseClusteredGridMatchesMapPassBitForBit) {
  net::ScalingParams p;
  p.n = 1024;
  p.alpha = 0.75;
  p.with_bs = true;
  p.K = 0.6;
  p.M = 0.2;
  p.R = 0.3;
  const OracleCase c{p, net::BsPlacement::kClusterGrid, 3};
  check_instance(c);
  const net::Network net = net::Network::build(
      p, mobility::ShapeKind::kUniformDisk, c.placement, c.seed);
  rng::Xoshiro256 g(c.seed * 31 + 7);
  EXPECT_GT(routed_hop_spans(net, net::permutation_traffic(p.n, g), 8).beyond,
            0u);
}

// ------------------------------------------------------ RoutedCellPairs --

// Slots follow the load map's iteration order and resolve from either end,
// including pairs exactly g/2 apart on an even grid and pairs beyond the
// contact window; unrouted pairs read kNone.
TEST(RoutedCellPairs, FindsEveryRoutedPairFromBothEnds) {
  for (const int g : {4, 5, 6, 8, 70}) {
    const geom::SquareTessellation tess(g);
    const double contact = 2.5 / g;  // scheme A's contact ≈ 2.5 cells
    std::unordered_map<std::uint64_t, double> load;
    auto add = [&](geom::Cell a, geom::Cell b) {
      load[cell_pair_key(tess.index_of(a), tess.index_of(b))] += 1.0;
    };
    add({0, 0}, {0, 1});
    add({1, 1}, {1, 1 + g / 2});          // g/2 along a row
    add({2, 0}, tess.wrap(2 + g / 2, 0));  // g/2 along a column
    add({g - 1, g - 1}, {0, 0});           // across both seams
    add({0, 0}, tess.wrap(g / 2, g / 2));  // diagonal, g/2 on both axes
    const RoutedCellPairs pairs(tess, contact, load);
    ASSERT_EQ(pairs.size(), load.size());
    std::uint32_t slot = 0;
    for (const auto& [key, demanded] : load) {
      const geom::Cell a = tess.cell_at(static_cast<int>(key & 0xffffffffu));
      const geom::Cell b = tess.cell_at(static_cast<int>(key >> 32));
      EXPECT_EQ(pairs.slot(a, b), slot) << "g=" << g;
      EXPECT_EQ(pairs.slot(b, a), slot) << "g=" << g;
      EXPECT_EQ(pairs.load(slot), demanded);
      ++slot;
    }
    EXPECT_EQ(pairs.slot({0, 0}, {1, 0}), RoutedCellPairs::kNone);
    EXPECT_EQ(pairs.slot({0, 0}, {0, 0}), RoutedCellPairs::kNone);
    EXPECT_EQ(pairs.slot({3, 3}, {3, 2}), RoutedCellPairs::kNone);
  }
}

// ------------------------------------------------- RateStructure notes --

TEST(RateStructureNotes, FlowsWithoutNotesGetEmptyRuns) {
  RateStructure rs;
  rs.reset(5);
  rs.note(1, 3, 1.0);
  rs.note(1, 0, 2.0);
  rs.note(3, 2, 1.0);
  rs.finalize();
  EXPECT_EQ(rs.flow_start, (std::vector<std::uint32_t>{0, 0, 2, 2, 3, 3}));
  EXPECT_EQ(rs.incid_cid, (std::vector<std::uint32_t>{0, 3, 2}));
  EXPECT_EQ(rs.incid_coeff, (std::vector<double>{2.0, 1.0, 1.0}));

  RateStructure none;
  none.reset(3);
  none.finalize();
  EXPECT_EQ(none.flow_start, (std::vector<std::uint32_t>{0, 0, 0, 0}));
  EXPECT_TRUE(none.incid_cid.empty());
}

TEST(RateStructureNotes, DuplicateCidsMergeInSortedOrder) {
  RateStructure rs;
  rs.reset(2);
  rs.note(0, 4, 0.5);
  rs.note(0, 1, 1.0);
  rs.note(0, 4, 0.25);
  rs.note(1, 7, 0.125);
  rs.note(1, 7, 0.125);
  rs.finalize();
  EXPECT_EQ(rs.flow_start, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(rs.incid_cid, (std::vector<std::uint32_t>{1, 4, 7}));
  EXPECT_EQ(rs.incid_coeff, (std::vector<double>{1.0, 0.75, 0.25}));
}

TEST(RateStructureNotes, OutOfOrderOrOutOfRangeNoteIsRejected) {
  RateStructure rs;
  rs.reset(4);
  rs.note(2, 0, 1.0);
  EXPECT_THROW(rs.note(1, 0, 1.0), CheckError);
  EXPECT_THROW(rs.note(4, 0, 1.0), CheckError);
  RateStructure empty;
  empty.reset(0);
  EXPECT_THROW(empty.note(0, 0, 1.0), CheckError);
}

TEST(RateStructureNotes, FinalizeLeavesNoSpareCapacity) {
  RateStructure rs;
  rs.reset(300);
  rs.constraints.resize(3);
  rs.constraints.reserve(64);
  for (std::uint32_t f = 0; f < 300; ++f) {
    rs.note(f, f % 3, 1.0);
    rs.note(f, (f + 1) % 3, 1.0);
  }
  rs.finalize();
  EXPECT_EQ(rs.incid_cid.size(), 600u);
  EXPECT_EQ(rs.incid_cid.capacity(), rs.incid_cid.size());
  EXPECT_EQ(rs.incid_coeff.capacity(), rs.incid_coeff.size());
  EXPECT_EQ(rs.constraints.capacity(), rs.constraints.size());
}

}  // namespace
}  // namespace manetcap::routing
