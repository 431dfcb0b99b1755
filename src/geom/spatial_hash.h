// Uniform-grid spatial index over the unit torus for O(1)-expected disk
// queries — the workhorse behind protocol-model interference checks and
// the S* scheduler's neighbor scans.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "geom/point.h"
#include "util/check.h"

namespace manetcap::geom {

/// Buckets point ids into a g×g grid (g chosen from a query-radius hint) and
/// answers "all ids within distance r of X" by scanning the covering
/// buckets. Queries never allocate.
///
/// Two maintenance modes share one query path:
///  * snapshot — build() counting-sorts every point into a cell list: a
///    CSR layout of contiguous per-bucket id runs (ids ascending within a
///    bucket) with a bucket-ordered copy of the points beside it, so a
///    bucket scan streams memory instead of gathering points by id. It
///    keeps no by-id copy. The slot simulator rebuilds this snapshot every
///    slot.
///  * incremental (deprecated; see docs/API.md) — the first move()
///    scatters the cell list into a by-id point array and converts the CSR
///    runs into intrusive per-bucket lists; further moves rebucket only
///    ids that crossed a bucket boundary (O(1) each).
/// The conversion reproduces the CSR iteration order exactly; after a
/// move, within-bucket order for moved ids is unspecified (disk queries
/// whose callers are order-insensitive — S* lone-neighbor counting — are
/// unaffected; tie-breaking in nearest() may differ from a fresh build()).
class SpatialHash {
 public:
  /// Sentinel returned by nearest() when no candidate exists (empty index
  /// or everything excluded). Never a valid id — ids are indices into the
  /// built point set, which holds fewer than 2³²−1 points. Callers must
  /// check for it; it is deliberately NOT indexable (the previous contract
  /// returned 0 or size(), both of which a caller could dereference).
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Hard cap on buckets per side. All bucket arithmetic is carried in
  /// std::int64_t and the constructor clamps to this bound *before* any
  /// narrowing cast — a radius_hint of 1e-12 used to push 1/hint through
  /// an int cast (UB) before the old clamp could run.
  static constexpr std::int64_t kMaxGridSide = 4096;

  /// `radius_hint` sizes the buckets (bucket side ≈ radius_hint); queries
  /// with radius near the hint touch a constant number of buckets.
  explicit SpatialHash(double radius_hint, std::size_t expected_points = 0);

  /// Replaces the indexed set with `points`; ids are indices into `points`.
  /// Always (re)enters snapshot mode. Allocates only when the point count
  /// grows, so a per-slot rebuild at fixed n is allocation-free.
  void build(const std::vector<Point>& points);

  /// Re-registers point `id` at `new_pos`. `old_pos` must be the position
  /// the id is currently indexed under (checked in debug builds); the id is
  /// rebucketed only when the two positions fall in different buckets.
  /// The first call converts the index to incremental mode.
  /// Deprecated for one release (docs/API.md): rebuild the snapshot with
  /// build() instead.
  void move(std::uint32_t id, Point old_pos, Point new_pos);

  std::size_t size() const { return n_; }

  /// Invokes `fn(id)` for every indexed point with torus_dist(X, point) ≤ r.
  /// The center itself is reported if indexed (callers filter self-matches).
  /// Template form: the callback inlines, so hot loops (scheme A's μ pass,
  /// the SINR near field) pay no std::function dispatch per candidate.
  template <class Fn>
  void visit_disk(Point center, double r, Fn&& fn) const {
    const double r2 = r * r;
    const Cover cov = cover(r);
    const std::int64_t cx = bucket_coord(center.x);
    const std::int64_t cy = bucket_coord(center.y);
    for (std::int64_t dy = cov.lo; dy <= cov.hi; ++dy) {
      const std::size_t row = static_cast<std::size_t>(wrap(cy + dy) * g_);
      for (std::int64_t dx = cov.lo; dx <= cov.hi; ++dx)
        visit_bucket(row + static_cast<std::size_t>(wrap(cx + dx)),
                     [&](std::uint32_t id, const Point& p) {
                       if (torus_dist2(center, p) <= r2) fn(id);
                       return true;
                     });
    }
  }

  /// Per-axis bucket offsets [lo, hi] around a bucket whose torus-wrapped
  /// union covers every point within distance r of any point in that
  /// bucket, each bucket exactly once. A point in bucket cx has
  /// x < (cx+1)/g, so every point within r lies within ceil(r·g) buckets
  /// per axis — the covering needs no extra ring. When 2·span+1 reaches g
  /// the range shrinks to exactly g offsets, so a wrapped bucket is never
  /// visited twice; an offset plus a bucket coordinate then always lies in
  /// [−g, 2g), the domain wrap() folds with one compare.
  struct Cover {
    std::int64_t lo;
    std::int64_t hi;
  };
  Cover cover(double r) const {
    MANETCAP_CHECK(r >= 0.0);
    // int64 throughout: r·g_ can exceed INT_MAX for a silly radius, and
    // the flat index by·g+bx must never narrow.
    const std::int64_t span =
        r * static_cast<double>(g_) >= static_cast<double>(g_ / 2 + 1)
            ? g_ / 2 + 1
            : static_cast<std::int64_t>(std::ceil(r * static_cast<double>(g_)));
    return {-span, 2 * span + 1 >= g_ ? g_ - 1 - span : span};
  }

  /// Folds a bucket coordinate in [−g, 2g) (a coordinate plus a cover()
  /// offset) onto the torus grid [0, g).
  std::int64_t wrap(std::int64_t v) const {
    return v < 0 ? v + g_ : (v >= g_ ? v - g_ : v);
  }

  /// Cell-list walk of one bucket (flat index row·g + column): invokes
  /// fn(id, point) for every point indexed there, in iteration order,
  /// until fn returns false. Returns false iff fn stopped the walk.
  /// Snapshot mode streams the bucket-ordered point copy; incremental mode
  /// walks the bucket's chain.
  template <class Fn>
  bool visit_bucket(std::size_t b, Fn&& fn) const {
    if (incremental_) {
      for (std::uint32_t id = head_[b]; id != kNone; id = next_[id])
        if (!fn(id, points_[id])) return false;
    } else {
      for (std::uint32_t k = bucket_start_[b]; k < bucket_start_[b + 1]; ++k)
        if (!fn(ids_[k], cells_[k])) return false;
    }
    return true;
  }

  /// Type-erased convenience wrapper over visit_disk.
  void for_each_in_disk(Point center, double r,
                        const std::function<void(std::uint32_t)>& fn) const;

  /// Collects ids within distance r of `center` (convenience wrapper).
  std::vector<std::uint32_t> query_disk(Point center, double r) const;

  /// Number of indexed points within distance r of `center`.
  std::size_t count_in_disk(Point center, double r) const;

  /// Id of the nearest indexed point to `center` excluding `exclude`
  /// (pass kNone to exclude nothing). Returns kNone when the index is
  /// empty or every indexed point is excluded.
  std::uint32_t nearest(Point center, std::uint32_t exclude = kNone) const;

  /// Buckets per side — the stripe-sharded S* scan partitions work by
  /// contiguous ranges of bucket rows (flat indices [row·g, (row+1)·g)),
  /// which partition the indexed set.
  std::int64_t grid_side() const { return g_; }

  /// Resident bytes of the index (point copies + bucket structures) — one
  /// term of the simulator's bytes-per-MS scale metric.
  std::uint64_t memory_bytes() const {
    return (points_.capacity() + cells_.capacity()) * sizeof(Point) +
           (bucket_start_.capacity() + ids_.capacity() + head_.capacity() +
            next_.capacity() + prev_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  std::int64_t bucket_coord(double v) const {
    const std::int64_t c = static_cast<std::int64_t>(v * static_cast<double>(g_));
    return std::min(std::max<std::int64_t>(c, 0), g_ - 1);
  }
  std::size_t bucket_of(Point p) const {
    return static_cast<std::size_t>(bucket_coord(p.y) * g_ +
                                    bucket_coord(p.x));
  }

  /// Scatters the cell list into points_ and converts the CSR runs into
  /// per-bucket intrusive lists, preserving the within-bucket iteration
  /// order at the moment of conversion.
  void to_incremental();

  std::int64_t g_;     // buckets per side, in [1, kMaxGridSide]
  std::size_t n_ = 0;  // indexed points
  // Snapshot (CSR) cell list: bucket_start_[b]..bucket_start_[b+1] indexes
  // into ids_ and cells_, where cells_[k] is the position of id ids_[k].
  // Valid while !incremental_.
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> ids_;
  std::vector<Point> cells_;
  // Incremental layout: positions by id and a doubly-linked id list per
  // bucket. Valid while incremental_.
  bool incremental_ = false;
  std::vector<Point> points_;        // by id
  std::vector<std::uint32_t> head_;  // per bucket, kNone-terminated
  std::vector<std::uint32_t> next_;  // per id
  std::vector<std::uint32_t> prev_;  // per id
};

}  // namespace manetcap::geom
