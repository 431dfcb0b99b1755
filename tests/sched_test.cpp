#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "geom/spatial_hash.h"
#include "mobility/home_points.h"
#include "phy/protocol_model.h"
#include "rng/rng.h"
#include "sched/greedy.h"
#include "sched/sstar.h"
#include "sched/tdma_cell.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace manetcap::sched {
namespace {

// ---------------------------------------------------------------- S* ----

TEST(SStar, RangeScalesWithPopulation) {
  SStarScheduler s(2.0, 1.0);
  EXPECT_DOUBLE_EQ(s.range_for(4), 1.0);
  EXPECT_DOUBLE_EQ(s.range_for(100), 0.2);
}

TEST(SStar, IsolatedClosePairIsScheduled) {
  SStarScheduler s(1.0, 1.0);
  // Population 4 → R_T = 0.5, guard = 1.0 — but torus max distance ≈ 0.707,
  // so keep it tighter: population drives the range; use far-apart pairs.
  SStarScheduler tight(0.2, 1.0);  // R_T = 0.1, guard = 0.2 at pop 4
  std::vector<geom::Point> pos = {
      {0.10, 0.10}, {0.15, 0.10}, {0.60, 0.60}, {0.65, 0.60}};
  auto pairs = tight.feasible_pairs(pos);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].tx, 0u);
  EXPECT_EQ(pairs[0].rx, 1u);
  EXPECT_EQ(pairs[1].tx, 2u);
  EXPECT_EQ(pairs[1].rx, 3u);
}

TEST(SStar, ThirdNodeInGuardZoneBlocksPair) {
  SStarScheduler s(0.2, 1.0);  // pop 3 → R_T ≈ 0.115, guard ≈ 0.23
  std::vector<geom::Point> pos = {
      {0.10, 0.10}, {0.15, 0.10}, {0.25, 0.10}};  // 2 inside 1's guard
  EXPECT_TRUE(s.feasible_pairs(pos).empty());
}

TEST(SStar, InactiveNodesStillBlock) {
  // Definition 10 counts ALL other nodes, active or not.
  SStarScheduler s(0.2, 1.0);
  std::vector<geom::Point> pos = {
      {0.10, 0.10}, {0.12, 0.10},  // candidate pair
      {0.14, 0.10},                // bystander within guard
      {0.70, 0.70}};               // far away
  auto pairs = s.feasible_pairs(pos);
  for (const auto& p : pairs) {
    EXPECT_NE(p.tx, 0u);
    EXPECT_NE(p.rx, 1u);
  }
}

TEST(SStar, PairsOutsideRangeNotScheduled) {
  SStarScheduler s(0.1, 1.0);  // pop 2 → R_T ≈ 0.0707
  std::vector<geom::Point> pos = {{0.1, 0.1}, {0.3, 0.1}};
  EXPECT_TRUE(s.feasible_pairs(pos).empty());
}

TEST(SStar, OutputIsProtocolModelFeasible) {
  // S* is strictly stricter than the protocol model (Theorem 2's setup):
  // whatever S* schedules must pass the Definition 4 checks. c_T = 0.3
  // keeps guard-zone occupancy Θ(1) so pairs actually get scheduled.
  rng::Xoshiro256 g(7);
  std::vector<geom::Point> pos(500);
  for (auto& p : pos) p = rng::uniform_point(g);
  SStarScheduler s(0.3, 1.0);
  auto pairs = s.feasible_pairs(pos);
  ASSERT_GT(pairs.size(), 0u);  // some pairs should exist at this density
  phy::ProtocolModel pm(s.range_for(pos.size()), 1.0);
  EXPECT_TRUE(pm.feasible(pos, pairs));
}

TEST(SStar, EachNodeInAtMostOnePair) {
  rng::Xoshiro256 g(11);
  std::vector<geom::Point> pos(800);
  for (auto& p : pos) p = rng::uniform_point(g);
  SStarScheduler s(0.4, 0.5);
  auto pairs = s.feasible_pairs(pos);
  std::vector<int> uses(pos.size(), 0);
  for (const auto& p : pairs) {
    ++uses[p.tx];
    ++uses[p.rx];
  }
  for (int u : uses) EXPECT_LE(u, 1);
}

TEST(SStar, PrebuiltHashGivesSameResult) {
  rng::Xoshiro256 g(13);
  std::vector<geom::Point> pos(300);
  for (auto& p : pos) p = rng::uniform_point(g);
  SStarScheduler s(0.3, 1.0);
  geom::SpatialHash hash((1.0 + 1.0) * s.range_for(pos.size()), pos.size());
  hash.build(pos);
  auto a = s.feasible_pairs(pos);
  auto b = s.feasible_pairs(pos, hash);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tx, b[i].tx);
    EXPECT_EQ(a[i].rx, b[i].rx);
  }
}

// --------------------------------------------------------------- TDMA ----

TEST(Tdma, ColorValidation) {
  EXPECT_THROW(TdmaSchedule({0, 1, 5}, 4), manetcap::CheckError);
  EXPECT_NO_THROW(TdmaSchedule({0, 1, 3}, 4));
}

TEST(Tdma, RoundRobinActivation) {
  TdmaSchedule t({0, 1, 2, 0}, 3);
  EXPECT_TRUE(t.is_active(0, 0));
  EXPECT_FALSE(t.is_active(1, 0));
  EXPECT_TRUE(t.is_active(1, 1));
  EXPECT_TRUE(t.is_active(3, 3));  // cell 3 has color 0, slot 3 → color 0
  EXPECT_DOUBLE_EQ(t.duty_cycle(), 1.0 / 3.0);
}

TEST(Tdma, EveryCellActiveOncePerPeriod) {
  TdmaSchedule t({0, 1, 2, 3}, 4);
  for (std::size_t cell = 0; cell < 4; ++cell) {
    int active = 0;
    for (std::uint64_t slot = 0; slot < 4; ++slot)
      if (t.is_active(cell, slot)) ++active;
    EXPECT_EQ(active, 1);
  }
}

TEST(Tdma, SquareColoringPeriodCoversGuard) {
  const double side = 0.1, range = 0.12, delta = 1.0;
  const int p = square_coloring_period(side, range, delta);
  // Same-color cells are (p-1)·side ≥ (2+Δ)·range apart.
  EXPECT_GE((p - 1) * side, (2.0 + delta) * range);
}

TEST(Tdma, SquareColoringAssignsPeriodSquaredColors) {
  geom::SquareTessellation tess(8);
  auto colors = color_square_tessellation(tess, 2);
  for (int c : colors) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 4);
  }
  // Adjacent cells never share a color for period ≥ 2.
  for (int idx = 0; idx < tess.num_cells(); ++idx) {
    for (auto nb : tess.neighbors4(tess.cell_at(idx)))
      EXPECT_NE(colors[idx], colors[tess.index_of(nb)]);
  }
}

TEST(Tdma, HexPeriodPositive) {
  EXPECT_GE(hex_coloring_period(0.01, 1.0), 2);
  EXPECT_GT(hex_coloring_period(0.01, 3.0), hex_coloring_period(0.01, 0.0));
}

// -------------------------------------------------------------- greedy ----

TEST(Greedy, SelectionIsProtocolFeasible) {
  rng::Xoshiro256 g(17);
  std::vector<geom::Point> pos(400);
  for (auto& p : pos) p = rng::uniform_point(g);
  GreedyScheduler sched(0.06, 1.0);
  auto cands = sched.nearest_neighbor_candidates(pos);
  auto chosen = sched.schedule(pos, cands);
  phy::ProtocolModel pm(0.06, 1.0);
  EXPECT_TRUE(pm.feasible(pos, chosen));
  EXPECT_GT(chosen.size(), 0u);
}

TEST(Greedy, RespectsRange) {
  GreedyScheduler sched(0.05, 1.0);
  std::vector<geom::Point> pos = {{0.1, 0.1}, {0.4, 0.4}};
  auto chosen = sched.schedule(pos, {{0, 1}});
  EXPECT_TRUE(chosen.empty());
}

TEST(Greedy, PrefersShortLinks) {
  GreedyScheduler sched(0.2, 1.0);
  // Two candidate links sharing airspace; the shorter must win.
  std::vector<geom::Point> pos = {
      {0.10, 0.10}, {0.12, 0.10},   // short pair
      {0.20, 0.10}, {0.35, 0.10}};  // long pair, receiver inside guard
  auto chosen = sched.schedule(pos, {{2, 3}, {0, 1}});
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].tx, 0u);
}

TEST(Greedy, NodesUsedAtMostOnce) {
  GreedyScheduler sched(0.3, 0.0);
  std::vector<geom::Point> pos = {{0.1, 0.1}, {0.15, 0.1}, {0.2, 0.1}};
  auto chosen = sched.schedule(pos, {{0, 1}, {1, 2}});
  EXPECT_EQ(chosen.size(), 1u);
}

TEST(Greedy, NearestNeighborCandidatesCoverNodes) {
  rng::Xoshiro256 g(23);
  std::vector<geom::Point> pos(100);
  for (auto& p : pos) p = rng::uniform_point(g);
  GreedyScheduler sched(0.3, 1.0);
  auto cands = sched.nearest_neighbor_candidates(pos);
  EXPECT_GE(cands.size(), 50u);  // at least one per mutual pair
  for (const auto& c : cands) EXPECT_NE(c.tx, c.rx);
}

// ------------------------------------- S* / protocol-model consistency ----

// Regression for a boundary mismatch: S* is strict on both thresholds
// (d < R_T, interferer d > guard), while the protocol model historically
// used non-strict comparisons — so a pair sitting exactly on a threshold
// was rejected by the scheduler yet declared feasible by the model. The
// geometries below put distances EXACTLY on the thresholds (0.25 and 0.5
// are FP-exact; ct = 0.5 at population 4 gives R_T = 0.25, guard = 0.5).
TEST(SStar, ProtocolModelAgreesAtExactRangeBoundary) {
  SStarScheduler s(0.5, 1.0);
  const double rt = s.range_for(4);
  ASSERT_DOUBLE_EQ(rt, 0.25);
  std::vector<geom::Point> pos = {
      {0.25, 0.25}, {0.5, 0.25},        // d == R_T exactly
      {0.8125, 0.8125}, {0.875, 0.8125}};  // isolated pair, d = 0.0625
  const auto pairs = s.feasible_pairs(pos);
  ASSERT_EQ(pairs.size(), 1u);  // S* range-rejects the boundary pair
  EXPECT_EQ(pairs[0].tx, 2u);
  phy::ProtocolModel pm(rt, s.delta());
  EXPECT_FALSE(pm.in_range(pos[0], pos[1]));  // model must agree
  EXPECT_TRUE(pm.feasible(pos, {{pairs[0].tx, pairs[0].rx}}));
}

TEST(SStar, ProtocolModelAgreesAtExactGuardBoundary) {
  SStarScheduler s(0.5, 1.0);
  const double rt = s.range_for(4);  // 0.25; guard = 0.5
  // Node 2 sits exactly guard away from receiver 1 (torus Δy = 0.5): S*
  // counts it inside the guard disk, so nothing is scheduled — and the
  // protocol model must call the same geometry infeasible.
  std::vector<geom::Point> pos = {
      {0.125, 0.5}, {0.25, 0.5}, {0.25, 0.0}, {0.3125, 0.0}};
  EXPECT_TRUE(s.feasible_pairs(pos).empty());
  phy::ProtocolModel pm(rt, s.delta());
  EXPECT_FALSE(pm.guard_ok(pos[2], pos[1]));
  EXPECT_FALSE(pm.feasible(pos, {{0, 1}, {2, 3}}));
  // Control: nudge the blocker outward past the guard; both pairs schedule
  // and the model agrees they are feasible.
  std::vector<geom::Point> clear = {
      {0.125, 0.5}, {0.25, 0.5}, {0.2, 0.0}, {0.2625, 0.0}};
  const auto pairs = s.feasible_pairs(clear);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_TRUE(pm.feasible(clear, {{0, 1}, {2, 3}}));
}

// ------------------------------------------------- S* vs Def. 10 oracle ----

// The lone-scan kernel (cell-list walk, own bucket first, stop at the
// second neighbour) against an O(n²) brute force that applies Definition
// 10 directly: lone[i] = j iff j is the only other node within the guard
// distance (inclusive) of i, and {i, j} is scheduled iff the guard is
// mutual and d_ij < R_T. Each layout runs through feasible_pairs_into and
// through the striped scan with its stripes on the shared thread pool.

enum class Layout {
  kUniform,       // i.i.d. uniform points
  kClustered,     // tight clusters, dozens per bucket, over a sparse field
  kCoincident,    // sites holding 1, 2 or 3 nodes at the same position
  kGuardExact,    // dyadic lattice: distances exactly at the guard, FP-exact
  kGuardExact4,   // ProtocolModelAgreesAtExactGuardBoundary's geometry
  kGrid1,         // grid side 1: the covering wraps onto the own bucket
  kGrid2,         // grid side 2
  kGrid3,         // grid side 3
};

const char* layout_name(Layout l) {
  switch (l) {
    case Layout::kUniform: return "uniform";
    case Layout::kClustered: return "clustered";
    case Layout::kCoincident: return "coincident";
    case Layout::kGuardExact: return "guard_exact";
    case Layout::kGuardExact4: return "guard_exact4";
    case Layout::kGrid1: return "grid1";
    case Layout::kGrid2: return "grid2";
    case Layout::kGrid3: return "grid3";
  }
  return "?";
}

struct LoneCase {
  Layout layout;
  int stripes;  // 0 = feasible_pairs_into, else the striped scan
  bool moved;   // scan a hash that move() converted to incremental mode
};

void PrintTo(const LoneCase& c, std::ostream* os) {
  *os << "{" << layout_name(c.layout) << (c.moved ? ", moved" : "") << ", ";
  if (c.stripes == 0)
    *os << "into}";
  else
    *os << c.stripes << (c.stripes == 1 ? " stripe}" : " stripes}");
}

struct Instance {
  std::vector<geom::Point> pos;
  double ct = 0.5;
  double delta = 1.0;
  std::int64_t grid_side = 0;  // expected hash grid side; 0 = any
};

Instance make_instance(Layout layout, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  Instance in;
  auto uniform = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) in.pos.push_back(rng::uniform_point(g));
  };
  switch (layout) {
    case Layout::kUniform:
      uniform(2000);
      break;
    case Layout::kClustered:  // guard ≈ 0.026, bucket side ≈ 0.026
      for (int c = 0; c < 30; ++c) {
        const geom::Point center = rng::uniform_point(g);
        for (int m = 0; m < 40; ++m)
          in.pos.push_back(rng::uniform_in_disk(g, center, 0.004));
      }
      uniform(300);
      break;
    case Layout::kCoincident:
      in.ct = 0.3;
      for (int site = 0; site < 300; ++site) {
        const geom::Point p = rng::uniform_point(g);
        for (int m = 0; m <= site % 3; ++m) in.pos.push_back(p);
      }
      break;
    case Layout::kGuardExact: {
      // n = 64 → guard = 2·0.5/8 = 0.125 exactly = 4 lattice steps of
      // 1/32; every squared lattice distance is an exact dyadic.
      std::vector<std::uint32_t> sites(32 * 32);
      for (std::uint32_t k = 0; k < sites.size(); ++k) sites[k] = k;
      rng::shuffle(g, sites);
      for (int i = 0; i < 64; ++i)
        in.pos.push_back({(sites[i] % 32) / 32.0, (sites[i] / 32) / 32.0});
      break;
    }
    case Layout::kGuardExact4:  // guard = 0.5; node 2 sits exactly on it
      in.pos = {{0.125, 0.5}, {0.25, 0.5}, {0.25, 0.0}, {0.3125, 0.0}};
      in.grid_side = 2;
      break;
    case Layout::kGrid1:  // guard ≈ 0.55
      in.ct = 0.476;
      in.grid_side = 1;
      uniform(3);
      break;
    case Layout::kGrid2:  // guard = 0.5
      in.grid_side = 2;
      uniform(4);
      break;
    case Layout::kGrid3:  // guard ≈ 0.3
      in.ct = 0.367;
      in.grid_side = 3;
      uniform(6);
      break;
  }
  return in;
}

struct Oracle {
  std::vector<std::uint32_t> lone;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::uint64_t candidates = 0;
};

Oracle definition10(const std::vector<geom::Point>& pos, double ct,
                    double delta) {
  const std::size_t n = pos.size();
  const double rt = ct / std::sqrt(static_cast<double>(n));
  const double guard = (1.0 + delta) * rt;
  Oracle o;
  o.lone.assign(n, geom::SpatialHash::kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::size_t inside = 0;
    std::uint32_t other = geom::SpatialHash::kNone;
    for (std::uint32_t l = 0; l < n; ++l)
      if (l != i && geom::torus_dist2(pos[i], pos[l]) <= guard * guard) {
        ++inside;
        other = l;
      }
    if (inside == 1) o.lone[i] = other;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t j = o.lone[i];
    if (j == geom::SpatialHash::kNone || j <= i || o.lone[j] != i) continue;
    ++o.candidates;
    if (geom::torus_dist2(pos[i], pos[j]) < rt * rt) o.pairs.push_back({i, j});
  }
  return o;
}

class SStarOracle : public ::testing::TestWithParam<LoneCase> {};

TEST_P(SStarOracle, LoneTableAndPairsMatchDefinition10) {
  const LoneCase c = GetParam();
  const bool small = c.layout == Layout::kGrid1 ||
                     c.layout == Layout::kGrid2 ||
                     c.layout == Layout::kGrid3 ||
                     c.layout == Layout::kGuardExact;
  std::uint64_t lone_seen = 0, pairs_seen = 0;
  for (std::uint64_t seed = 1; seed <= (small ? 60u : 2u); ++seed) {
    const Instance in = make_instance(c.layout, seed);
    const std::size_t n = in.pos.size();
    const SStarScheduler s(in.ct, in.delta);
    geom::SpatialHash hash((1.0 + in.delta) * s.range_for(n), n);
    if (in.grid_side != 0) {
      ASSERT_EQ(hash.grid_side(), in.grid_side);
    }
    if (c.moved) {
      // Index unrelated positions first, then move every node home.
      rng::Xoshiro256 g(seed + 1000);
      std::vector<geom::Point> start(n);
      for (auto& p : start) p = rng::uniform_point(g);
      hash.build(start);
      for (std::uint32_t i = 0; i < n; ++i) hash.move(i, start[i], in.pos[i]);
    } else {
      hash.build(in.pos);
    }

    SStarScheduler::Workspace ws;
    ScheduleStats st;
    if (c.stripes == 0) {
      s.feasible_pairs_into(in.pos, hash, ws, &st);
    } else {
      s.begin_scan(n, ws);
      const std::int64_t g = hash.grid_side();
      const std::int64_t sn = c.stripes;
      util::ThreadPool::shared().parallel_for(
          static_cast<std::size_t>(sn), [&](std::size_t k) {
            const auto sk = static_cast<std::int64_t>(k);
            s.lone_scan_rows(in.pos, hash, ws, g * sk / sn, g * (sk + 1) / sn);
          });
      s.extract_pairs(in.pos, ws, &st);
    }

    const Oracle want = definition10(in.pos, in.ct, in.delta);
    EXPECT_EQ(ws.lone, want.lone) << "seed " << seed;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
    for (const auto& t : ws.pairs) got.push_back({t.tx, t.rx});
    EXPECT_EQ(got, want.pairs) << "seed " << seed;
    EXPECT_EQ(st.candidate_pairs, want.candidates) << "seed " << seed;
    EXPECT_EQ(st.feasible_pairs, want.pairs.size()) << "seed " << seed;
    for (std::uint32_t l : want.lone)
      lone_seen += l != geom::SpatialHash::kNone;
    pairs_seen += want.pairs.size();
  }
  // Every layout but the all-blocked 4-node one must exercise both the
  // lone and the scheduled branch.
  if (c.layout != Layout::kGuardExact4) {
    EXPECT_GT(lone_seen, 0u);
    EXPECT_GT(pairs_seen, 0u);
  }
}

// Serial/ runs feasible_pairs_into, Striped/ the striped scan (the TSan
// job runs Striped/).
std::vector<LoneCase> lone_cases(bool striped) {
  const std::vector<int> scans =
      striped ? std::vector<int>{1, 2, 3, 8} : std::vector<int>{0};
  std::vector<LoneCase> out;
  for (Layout l : {Layout::kUniform, Layout::kClustered, Layout::kCoincident,
                   Layout::kGuardExact, Layout::kGuardExact4, Layout::kGrid1,
                   Layout::kGrid2, Layout::kGrid3})
    for (int stripes : scans) out.push_back({l, stripes, false});
  for (Layout l : {Layout::kUniform, Layout::kClustered, Layout::kGrid2})
    for (int stripes : scans) out.push_back({l, stripes, true});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Serial, SStarOracle,
                         ::testing::ValuesIn(lone_cases(false)));
INSTANTIATE_TEST_SUITE_P(Striped, SStarOracle,
                         ::testing::ValuesIn(lone_cases(true)));

}  // namespace
}  // namespace manetcap::sched
