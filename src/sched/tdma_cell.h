// Cell-based TDMA activation.
//
// Models the schedule of scheme C (Definition 13): cells are arranged into
// non-interfering groups (a bounded-degree vertex coloring, Theorem 9) and
// the groups are activated round-robin, so each cell is active a constant
// fraction 1/num_colors of the time.
//
// No engine uses it: routing::SchemeC derives duty cycles from cell
// degrees, and the slot-level simulator colours scheme C's cells itself
// (sim::build_cells_and_colors).
#pragma once

#include <cstdint>
#include <vector>

#include "geom/hex.h"
#include "geom/tessellation.h"

namespace manetcap::sched {

/// Round-robin activation over a cell coloring.
class TdmaSchedule {
 public:
  /// `cell_color[c]` ∈ [0, num_colors) for each cell index c.
  TdmaSchedule(std::vector<int> cell_color, int num_colors);

  int num_colors() const { return num_colors_; }
  std::size_t num_cells() const { return color_.size(); }

  int active_color(std::uint64_t slot) const {
    return static_cast<int>(slot % static_cast<std::uint64_t>(num_colors_));
  }
  bool is_active(std::size_t cell, std::uint64_t slot) const;

  /// Fraction of time every cell is active (uniform by construction).
  double duty_cycle() const { return 1.0 / num_colors_; }

  int color_of(std::size_t cell) const { return color_[cell]; }

 private:
  std::vector<int> color_;
  int num_colors_;
};

/// Smallest coloring period p for a square tessellation such that two
/// same-color cells are far enough apart that a transmission of range
/// `range` in one cannot violate the (1+Δ) guard zone of the other:
/// separation (p−1)·side ≥ (2+Δ)·range.
int square_coloring_period(double cell_side, double range, double delta);

/// Colors a g×g square tessellation with period p → p² colors
/// (color = (row mod p)·p + col mod p); returns per-cell-index colors.
std::vector<int> color_square_tessellation(const geom::SquareTessellation& t,
                                           int period);

/// Same separation computation for a hex grid with side `side` where
/// transmissions use range equal to the cell diameter (MSs talk to the
/// cell-center BS, Definition 13).
int hex_coloring_period(double side, double delta);

}  // namespace manetcap::sched
