// Scheduling policy S* (Definition 10) — optimal in order (Theorem 2).
//
// At a time instant, a node pair (i, j) may communicate iff
//   d_ij < R_T = c_T/√n   and
//   every other node l (regardless of activity) satisfies
//   min(d_lj, d_li) > (1+Δ)·R_T.
// Equivalently: the guard disk of radius (1+Δ)R_T around each endpoint
// contains only the other endpoint. The pair set selected this way is
// automatically protocol-model feasible (S* is strictly stricter), and the
// shared bandwidth is split equally between the two directions.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/spatial_hash.h"
#include "phy/interference.h"
#include "phy/protocol_model.h"

namespace manetcap::sched {

/// Per-invocation scheduling statistics, filled when a caller passes a
/// non-null pointer to feasible_pairs_into() or extract_pairs(). The slot
/// simulator folds these into its sim::Metrics audit (this POD keeps sched
/// free of a dependency on the sim layer); the increments are cheap enough
/// to be always-on.
struct ScheduleStats {
  std::uint64_t candidate_pairs = 0;  // mutual-lone pairs before range check
  std::uint64_t feasible_pairs = 0;   // pairs actually scheduled (after the
                                      // PHY backend, when one is active)
  std::uint64_t range_rejected = 0;   // mutual-lone pairs with d_ij ≥ R_T
  // Filled only when a non-protocol phy::InterferenceModel is passed:
  std::uint64_t phy_sinr_rejected = 0;    // S* pairs with a failing direction
  std::uint64_t phy_csma_suppressed = 0;  // S* pairs backed off by CCA
};

/// Computes the S*-feasible pair set for a position snapshot.
class SStarScheduler {
 public:
  /// Per-slot scratch reused across feasible_pairs_into() calls: the
  /// lone-neighbor table and the output pair list keep their capacity, so
  /// a steady-state slot loop allocates nothing.
  struct Workspace {
    std::vector<std::uint32_t> lone;
    std::vector<phy::Transmission> pairs;
    phy::InterferenceModel::Workspace phy;  // scratch for the PHY backend
  };

  /// `ct` is the constant c_T of Definition 10; `delta` the guard factor Δ.
  SStarScheduler(double ct, double delta);

  double ct() const { return ct_; }
  double delta() const { return delta_; }

  /// R_T = c_T / √(population) for this snapshot size.
  double range_for(std::size_t population) const;

  /// All feasible unordered pairs {i, j} at this instant, reported with
  /// i < j, under the protocol model. `pos` holds every node (MSs and BSs
  /// alike — Definition 10 ranges over the whole population). Builds a
  /// spatial hash over `pos` and runs feasible_pairs_into.
  std::vector<phy::Transmission> feasible_pairs(
      const std::vector<geom::Point>& pos) const;

  /// Hot-path form: reuses both an externally maintained spatial hash over
  /// `pos` and the caller's Workspace. Returns ws.pairs by reference; with
  /// no model the pair set and order are identical to feasible_pairs().
  /// `stats`, when non-null, receives the candidate/feasible/rejected pair
  /// counts for this snapshot. `model`, when non-null and non-protocol,
  /// re-evaluates the S* pair set under that interference backend
  /// (docs/PHY.md) — the surviving subset, in the same order, is returned.
  /// Null or the protocol backend takes exactly the protocol code path.
  /// Zero allocations at steady state. It is the three phases below with
  /// one stripe covering every bucket row.
  const std::vector<phy::Transmission>& feasible_pairs_into(
      const std::vector<geom::Point>& pos, const geom::SpatialHash& hash,
      Workspace& ws, ScheduleStats* stats = nullptr,
      const phy::InterferenceModel* model = nullptr) const;

  /// feasible_pairs_into split into phases so the slot simulator can fan
  /// the (dominant) lone-neighbor scan out over disjoint bucket-row
  /// stripes of the spatial hash:
  ///
  ///   begin_scan(pos.size(), ws);
  ///   lone_scan_rows(pos, hash, ws, rb, re);   // per stripe, in parallel
  ///   extract_pairs(pos, ws, stats);           // serial
  ///
  /// lone_scan_rows is the one lone-scan kernel: it walks the hash's cell
  /// list bucket by bucket, scans each node's own bucket first and stops
  /// at the second neighbour inside the guard disk. Each lone entry is a
  /// pure function of `pos` and every indexed id lives in exactly one
  /// bucket row, so covering all rows — in any order, any partition —
  /// produces the identical lone table and therefore bit-identical pairs
  /// and stats. An incremental (moved) hash is scanned through its chains.
  void begin_scan(std::size_t n, Workspace& ws) const;
  void lone_scan_rows(const std::vector<geom::Point>& pos,
                      const geom::SpatialHash& hash, Workspace& ws,
                      std::int64_t row_begin, std::int64_t row_end) const;
  /// The extraction (and the PHY backend filter, when `model` is a
  /// non-protocol backend) runs serially in id order, so the pair list is
  /// bit-identical for any row partition.
  const std::vector<phy::Transmission>& extract_pairs(
      const std::vector<geom::Point>& pos, Workspace& ws,
      ScheduleStats* stats = nullptr,
      const phy::InterferenceModel* model = nullptr) const;

 private:
  double ct_;
  double delta_;
};

}  // namespace manetcap::sched
