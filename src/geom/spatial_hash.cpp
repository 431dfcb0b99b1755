#include "geom/spatial_hash.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace manetcap::geom {

SpatialHash::SpatialHash(double radius_hint, std::size_t expected_points) {
  MANETCAP_CHECK_MSG(radius_hint > 0.0, "radius hint must be positive");
  // Bucket side ≈ radius_hint, capped so the bucket table stays O(points).
  // The clamp happens in the double domain: 1/hint can exceed INT64_MAX
  // for a denormal hint, so casting before clamping would be UB (and on
  // common ABIs produced a negative g, i.e. a garbage grid).
  const double inv = std::floor(1.0 / radius_hint);
  std::int64_t g = inv >= static_cast<double>(kMaxGridSide)
                       ? kMaxGridSide
                       : static_cast<std::int64_t>(inv);
  g = std::max<std::int64_t>(1, g);
  if (expected_points > 0) {
    // √points·2 ≤ 2^33 for any size_t input — int64 holds it exactly.
    const std::int64_t cap =
        2 * static_cast<std::int64_t>(
                std::ceil(std::sqrt(static_cast<double>(expected_points))));
    g = std::min(g, std::max<std::int64_t>(1, cap));
  }
  g_ = g;
  MANETCAP_CHECK_MSG(g_ >= 1 && g_ <= kMaxGridSide,
                     "SpatialHash: grid side " << g_ << " outside [1, "
                                               << kMaxGridSide << "]");
}

void SpatialHash::build(const std::vector<Point>& points) {
  MANETCAP_CHECK_MSG(points.size() < kNone,
                     "SpatialHash: point count must stay below the id "
                     "sentinel (2^32-1)");
  incremental_ = false;
  const std::size_t n = points.size();
  n_ = n;
  const std::size_t nb = static_cast<std::size_t>(g_ * g_);
  bucket_start_.assign(nb + 1, 0);
  ids_.resize(n);
  cells_.resize(n);

  // Counting sort into buckets (CSR). Inclusive prefix sums leave
  // bucket_start_[b] at the end of bucket b; filling each run back to
  // front with descending ids leaves it at the start again, with ids
  // ascending within a bucket — the iteration order to_incremental() and
  // every query preserves — and needs no cursor array.
  for (const Point& p : points) ++bucket_start_[bucket_of(p)];
  for (std::size_t b = 1; b < nb; ++b) bucket_start_[b] += bucket_start_[b - 1];
  bucket_start_[nb] = static_cast<std::uint32_t>(n);
  for (std::size_t id = n; id-- > 0;) {
    const std::uint32_t k = --bucket_start_[bucket_of(points[id])];
    ids_[k] = static_cast<std::uint32_t>(id);
    cells_[k] = points[id];
  }
}

void SpatialHash::to_incremental() {
  const std::size_t nb = static_cast<std::size_t>(g_ * g_);
  points_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) points_[ids_[k]] = cells_[k];
  head_.assign(nb, kNone);
  next_.assign(n_, kNone);
  prev_.assign(n_, kNone);
  // Walk each CSR run back-to-front, pushing to the bucket head: the chain
  // then iterates in exactly the CSR (ascending-id) order.
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::uint32_t k = bucket_start_[b + 1]; k-- > bucket_start_[b];) {
      const std::uint32_t id = ids_[k];
      next_[id] = head_[b];
      prev_[id] = kNone;
      if (head_[b] != kNone) prev_[head_[b]] = id;
      head_[b] = id;
    }
  }
  incremental_ = true;
}

void SpatialHash::move(std::uint32_t id, Point old_pos, Point new_pos) {
  MANETCAP_DCHECK(id < n_);
  if (!incremental_) to_incremental();
  const std::size_t ob = bucket_of(old_pos);
  MANETCAP_DCHECK(ob == bucket_of(points_[id]));
  points_[id] = new_pos;
  const std::size_t nb = bucket_of(new_pos);
  if (ob == nb) return;  // same bucket: position update only

  // Unlink from the old bucket's chain…
  if (prev_[id] != kNone)
    next_[prev_[id]] = next_[id];
  else
    head_[ob] = next_[id];
  if (next_[id] != kNone) prev_[next_[id]] = prev_[id];
  // …and push-front into the new bucket's.
  next_[id] = head_[nb];
  prev_[id] = kNone;
  if (head_[nb] != kNone) prev_[head_[nb]] = id;
  head_[nb] = id;
}

void SpatialHash::for_each_in_disk(
    Point center, double r,
    const std::function<void(std::uint32_t)>& fn) const {
  visit_disk(center, r, fn);
}

std::vector<std::uint32_t> SpatialHash::query_disk(Point center,
                                                   double r) const {
  std::vector<std::uint32_t> out;
  visit_disk(center, r, [&out](std::uint32_t id) { out.push_back(id); });
  return out;
}

std::size_t SpatialHash::count_in_disk(Point center, double r) const {
  std::size_t n = 0;
  visit_disk(center, r, [&n](std::uint32_t) { ++n; });
  return n;
}

std::uint32_t SpatialHash::nearest(Point center, std::uint32_t exclude) const {
  if (n_ == 0) return kNone;
  double best2 = std::numeric_limits<double>::infinity();
  std::uint32_t best = kNone;
  const std::int64_t cx = bucket_coord(center.x);
  const std::int64_t cy = bucket_coord(center.y);
  const double side = 1.0 / static_cast<double>(g_);

  auto visit = [&](std::int64_t bx, std::int64_t by) {
    const std::size_t b = static_cast<std::size_t>(wrap(by) * g_ + wrap(bx));
    visit_bucket(b, [&](std::uint32_t id, const Point& p) {
      if (id == exclude) return true;
      const double d2 = torus_dist2(center, p);
      if (d2 < best2) {
        best2 = d2;
        best = id;
      }
      return true;
    });
  };

  // Expanding square rings of buckets, each bucket visited exactly once
  // (the old radius-doubling search re-scanned every inner bucket on each
  // doubling). Every point in a ring-d bucket is ≥ (d−1)·side away, so
  // once a candidate is closer than that lower bound no further ring can
  // improve on it. Ring g_/2+1 wraps the whole torus (duplicate wrapped
  // buckets in the last rings only cost redundant min() updates).
  const std::int64_t max_ring = g_ / 2 + 1;
  for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
    if (best != kNone) {
      const double lower = static_cast<double>(ring - 1) * side;
      if (lower > 0.0 && lower * lower > best2) break;
    }
    if (ring == 0) {
      visit(cx, cy);
      continue;
    }
    for (std::int64_t dx = -ring; dx <= ring; ++dx) {
      visit(cx + dx, cy - ring);
      visit(cx + dx, cy + ring);
    }
    for (std::int64_t dy = -ring + 1; dy <= ring - 1; ++dy) {
      visit(cx - ring, cy + dy);
      visit(cx + ring, cy + dy);
    }
  }
  return best;
}

}  // namespace manetcap::geom
