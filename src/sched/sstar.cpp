#include "sched/sstar.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace manetcap::sched {

SStarScheduler::SStarScheduler(double ct, double delta)
    : ct_(ct), delta_(delta) {
  MANETCAP_CHECK(ct > 0.0);
  MANETCAP_CHECK(delta >= 0.0);
}

double SStarScheduler::range_for(std::size_t population) const {
  MANETCAP_CHECK(population >= 1);
  return ct_ / std::sqrt(static_cast<double>(population));
}

std::vector<phy::Transmission> SStarScheduler::feasible_pairs(
    const std::vector<geom::Point>& pos, ScheduleStats* stats,
    const phy::InterferenceModel* model) const {
  const double guard = (1.0 + delta_) * range_for(pos.size());
  geom::SpatialHash hash(guard, pos.size());
  hash.build(pos);
  return feasible_pairs(pos, hash, stats, model);
}

std::vector<phy::Transmission> SStarScheduler::feasible_pairs(
    const std::vector<geom::Point>& pos, const geom::SpatialHash& hash,
    ScheduleStats* stats, const phy::InterferenceModel* model) const {
  Workspace ws;
  feasible_pairs_into(pos, hash, ws, stats, model);
  return std::move(ws.pairs);
}

namespace {
constexpr std::uint32_t kNoneId = ~std::uint32_t{0};
}  // namespace

const std::vector<phy::Transmission>& SStarScheduler::feasible_pairs_into(
    const std::vector<geom::Point>& pos, const geom::SpatialHash& hash,
    Workspace& ws, ScheduleStats* stats,
    const phy::InterferenceModel* model) const {
  begin_scan(pos.size(), ws);
  lone_scan_rows(pos, hash, ws, 0, hash.grid_side());
  return extract_pairs(pos, ws, stats, model);
}

void SStarScheduler::begin_scan(std::size_t n, Workspace& ws) const {
  ws.lone.assign(n, kNoneId);
}

void SStarScheduler::lone_scan_rows(const std::vector<geom::Point>& pos,
                                    const geom::SpatialHash& hash,
                                    Workspace& ws, std::int64_t row_begin,
                                    std::int64_t row_end) const {
  MANETCAP_CHECK_MSG(hash.size() == pos.size() && ws.lone.size() == pos.size(),
                     "S* lone scan: hash, positions and lone table must "
                     "cover the same population");
  const double guard = (1.0 + delta_) * range_for(pos.size());
  const double guard2 = guard * guard;
  const std::int64_t g = hash.grid_side();
  const geom::SpatialHash::Cover cov = hash.cover(guard);
  std::uint32_t* lone = ws.lone.data();

  // lone[i] = j when the guard disk around i holds exactly one other node
  // j, and stays kNone when it holds none or ≥ 2. A second neighbour
  // settles the ≥ 2 case, so each census stops there; the node's own
  // bucket goes first because it is the likeliest to hold both. The entry
  // is a pure function of the positions, so any bucket order and any row
  // partition give the same table.
  for (std::int64_t by = row_begin; by < row_end; ++by) {
    for (std::int64_t bx = 0; bx < g; ++bx) {
      const std::size_t own = static_cast<std::size_t>(by * g + bx);
      hash.visit_bucket(own, [&](std::uint32_t i, const geom::Point& p) {
        std::uint32_t found = kNoneId;
        int count = 0;
        auto census = [&](std::uint32_t j, const geom::Point& q) {
          if (j != i && geom::torus_dist2(p, q) <= guard2) {
            found = j;
            if (++count == 2) return false;
          }
          return true;
        };
        if (hash.visit_bucket(own, census)) {
          for (std::int64_t dy = cov.lo; dy <= cov.hi && count < 2; ++dy) {
            const std::int64_t row = hash.wrap(by + dy) * g;
            for (std::int64_t dx = cov.lo; dx <= cov.hi; ++dx) {
              const auto b = static_cast<std::size_t>(row + hash.wrap(bx + dx));
              if (b != own && !hash.visit_bucket(b, census)) break;
            }
          }
        }
        if (count == 1) lone[i] = found;
        return true;
      });
    }
  }
}

const std::vector<phy::Transmission>& SStarScheduler::extract_pairs(
    const std::vector<geom::Point>& pos, Workspace& ws, ScheduleStats* stats,
    const phy::InterferenceModel* model) const {
  const std::size_t n = pos.size();
  const double rt = range_for(n);
  const double rt2 = rt * rt;
  const std::uint32_t* lone = ws.lone.data();

  ws.pairs.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t j = lone[i];
    if (j == kNoneId || j <= i) continue;  // report each pair once (i < j)
    if (lone[j] != i) continue;            // guard must be mutual
    if (stats) ++stats->candidate_pairs;
    if (geom::torus_dist2(pos[i], pos[j]) >= rt2) {  // d_ij < R_T
      if (stats) ++stats->range_rejected;
      continue;
    }
    ws.pairs.push_back({i, j});
  }
  // Non-default PHY backends re-evaluate the S* set; the protocol backend
  // (and a null model) leaves it untouched — the branch below is the only
  // cost on the default path.
  if (model != nullptr && model->kind() != phy::PhyKind::kProtocol) {
    phy::PhyStats ps;
    model->filter_pairs(pos, rt, ws.pairs, ws.phy, &ps);
    if (stats) {
      stats->phy_sinr_rejected += ps.sinr_rejected;
      stats->phy_csma_suppressed += ps.csma_suppressed;
    }
  }
  if (stats) stats->feasible_pairs += ws.pairs.size();
  return ws.pairs;
}

}  // namespace manetcap::sched
