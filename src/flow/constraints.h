// Fluid capacity computation: a routing scheme reduces to a set of
// (capacity, unit-load) constraints, and the feasible per-node rate is the
// largest λ with λ·load ≤ capacity on every constraint.
//
// This is exactly the quantity the paper's proofs manipulate — cut-set
// numerators are capacities, cut-crossing flow counts are loads — so fluid
// λ measurements inherit the theory's structure one-for-one.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace manetcap::flow {

/// Which resource a constraint models; bottleneck attribution reports the
/// category of the binding constraint (Remark 10's mobility-dominant vs
/// infrastructure-dominant discussion, refined to the three phases).
enum class Resource {
  kWirelessRelay,  // MS↔MS multihop links (scheme A squarelet hops)
  kAccess,         // MS↔BS wireless up/downlink (scheme B phases I & III)
  kBackbone,       // BS↔BS wired edges (scheme B phase II)
};

std::string to_string(Resource r);

/// One fluid constraint: at per-node rate λ the resource carries λ·unit_load
/// and offers `capacity`.
struct Constraint {
  Resource resource = Resource::kWirelessRelay;
  double capacity = 0.0;   // bps available on this resource
  double unit_load = 0.0;  // bps demanded per unit of per-node rate λ
  std::string label;       // optional diagnostics ("squarelet (3,1)→(3,2)")
};

/// Result of maximizing λ over a constraint set.
struct ThroughputResult {
  /// Largest feasible per-node rate; 0 when some loaded constraint has zero
  /// capacity, +inf when nothing is loaded.
  double lambda = 0.0;
  Resource bottleneck = Resource::kWirelessRelay;
  std::string bottleneck_label;

  /// Per-resource λ bound (+inf if the resource is unconstrained).
  double lambda_wireless = std::numeric_limits<double>::infinity();
  double lambda_access = std::numeric_limits<double>::infinity();
  double lambda_backbone = std::numeric_limits<double>::infinity();
};

/// Accumulates constraints and maximizes λ.
class ConstraintSet {
 public:
  /// Adds a constraint; zero-load constraints are ignored (no demand).
  void add(Resource resource, double capacity, double unit_load,
           std::string label = {});

  /// Reserves room for `rows` constraints (a caller that knows its row
  /// count sizes the set exactly).
  void reserve(std::size_t rows) { constraints_.reserve(rows); }

  std::size_t size() const { return constraints_.size(); }
  const std::vector<Constraint>& constraints() const& { return constraints_; }
  /// Hands the rows over instead of copying them; the set is left empty.
  /// Solve first: `rates->constraints = std::move(cs).constraints();`.
  std::vector<Constraint> constraints() && { return std::move(constraints_); }

  ThroughputResult solve() const;

 private:
  std::vector<Constraint> constraints_;
};

}  // namespace manetcap::flow
