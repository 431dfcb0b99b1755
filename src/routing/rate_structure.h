// Per-flow rate structure exposed by the routing evaluators for the
// flow-level engine (sim::FlowSim).
//
// Every evaluator reduces a scheme to a flow::ConstraintSet; the solver's
// λ is the symmetric per-node rate. The flow-level engine needs one more
// piece of structure: WHICH constraints each flow loads, and with what
// coefficient — the incidence that turns "the worst resource binds
// everyone" into per-flow TDMA shares and max-min allocation. Evaluators
// fill a RateStructure on demand (pass nullptr to skip; the extra
// bookkeeping is only paid when requested).
//
// Note order: an evaluator notes flow by flow, flows ascending — every
// note of flow f comes before any note of a flow above f (a flow may have
// no notes at all). The CSR is then built as the notes arrive: when a
// flow's first note opens its run, the previous run is sorted by cid,
// merged and appended. A note for a flow below the open one, or for a flow
// ≥ n, is refused with a CheckError.
//
// Invariants after finalize():
//   - constraints mirrors the evaluator's ConstraintSet row-for-row, so
//     ConstraintSet-style min(cap/load) over `constraints` reproduces the
//     evaluator's λ exactly (bit-for-bit — same rows, same order).
//   - for every constraint c: Σ_f coeff(f, c) ≤ unit_load(c) + ε (zero-cap
//     sentinel rows may be oversubscribed; they force λ_f = 0 regardless).
//   - flow f's incidence is incid_cid/incid_coeff[flow_start[f] ..
//     flow_start[f+1]), cids ascending, duplicates merged.
//   - constraints, incid_cid and incid_coeff hold no spare capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/constraints.h"

namespace manetcap::routing {

struct RateStructure {
  /// Mirror of the evaluator's constraint rows, in emission order (cid =
  /// row index).
  std::vector<flow::Constraint> constraints;

  /// Per-flow incidence CSR: flow f loads constraint incid_cid[j] with
  /// coefficient incid_coeff[j] for j in [flow_start[f], flow_start[f+1]).
  std::vector<std::uint32_t> flow_start;
  std::vector<std::uint32_t> incid_cid;
  std::vector<double> incid_coeff;

  /// Pipeline depth (store-and-forward hops to destination, ≥ 1) — the
  /// fluid engine delays the first delivery of flow f by flow_hops[f]
  /// slot-epochs' worth of transit.
  std::vector<double> flow_hops;

  /// 0 when the scheme cannot carry the flow at all (uncovered endpoint,
  /// disconnected cluster, excluded from the allocation) — the flow's rate
  /// is pinned to 0 rather than allocated.
  std::vector<std::uint8_t> flow_served;

  /// Clears everything and sizes the per-flow tables for n flows.
  void reset(std::size_t n);

  /// Sizes the incidence for `notes` notes. An evaluator that knows its
  /// note count (merged duplicates aside) reserves it, so the CSR grows in
  /// place with no reallocation and finalize() has nothing to shrink.
  void reserve_notes(std::size_t notes);

  /// Records "flow f loads constraint cid with coefficient coeff", in the
  /// note order above. Duplicate (flow, cid) notes accumulate.
  void note(std::uint32_t flow, std::uint32_t cid, double coeff);

  /// Closes the last flow's run, completes flow_start for the flows above
  /// it and trims every table to its size.
  void finalize();

 private:
  /// Sorts the open flow's run by cid (std::sort, as the notes arrived),
  /// merges duplicate cids in that order and appends the run to the CSR.
  void close_run();

  struct Note {
    std::uint32_t cid;
    double coeff;
  };
  std::vector<Note> run_;   // the open flow's notes, in arrival order
  std::uint32_t open_ = 0;  // the open flow; every flow below it is closed
};

}  // namespace manetcap::routing
