// Traffic scenarios: who talks to whom, how much, and when.
//
// The paper's workload (Section II-B) is uniform permutation traffic — n
// source–destination pairs such that every MS is exactly one source and
// one destination and never its own peer, all pairs carrying equal rate λ,
// BSs pure relays that never appear as endpoints. That remains the
// default, via the original permutation_traffic free function.
//
// On top of it sits a pluggable scenario layer (docs/TRAFFIC.md): a
// TrafficModel draws a per-flow demand set — (src, dst, size, start) plus
// an optional on-off arrival process — that BOTH engines consume. The
// spec grammar (TrafficSpec::parse) composes a destination pattern
// (uniform permutation | hotspot) with heavy-tailed Pareto flow sizes,
// exponential on-off bursts and staggered starts, the FaultPlan
// parse/validate/describe discipline applied to traffic. The default spec
// reproduces the historical saturated-CBR behavior byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rng/rng.h"
#include "util/binio.h"

namespace manetcap::net {

/// dest[i] = destination MS of source i; a fixed-point-free permutation
/// of {0, …, n−1}. Deterministic given `g`'s state.
std::vector<std::uint32_t> permutation_traffic(std::size_t n,
                                               rng::Xoshiro256& g);

/// True iff `dest` is a fixed-point-free permutation (test helper / guard).
bool is_valid_permutation_traffic(const std::vector<std::uint32_t>& dest);

/// Validates a destination map against population n with named errors:
/// one entry per MS, every id in range, no self-loops. This is the guard
/// every traffic consumer (both engines, the trace verifier) runs before
/// indexing per-destination state — a dest id ≥ n is an out-of-bounds
/// read in the routing CSR, not a modeling choice. Does NOT require a
/// permutation: hotspot destination maps are legal many-to-one.
/// Throws manetcap::CheckError on the first violation.
void validate_traffic_dest(const std::vector<std::uint32_t>& dest,
                           std::size_t n, const char* who = "traffic");

/// FlowDemand::size sentinel: the flow never runs out of packets (CBR).
inline constexpr std::uint64_t kUnlimitedFlowSize = ~0ull;

/// One flow's demand, as drawn by a TrafficModel. Flow i is sourced at
/// MS i (engines index per-flow state by source id).
struct FlowDemand {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  /// Total packets the source ever offers; kUnlimitedFlowSize = CBR.
  std::uint64_t size = kUnlimitedFlowSize;
  /// First slot the source is active (0 = from the beginning).
  std::uint32_t start = 0;
  /// Exponential on-off arrival process: mean on-burst / off-gap lengths
  /// in slots. Both 0 (the default) = always on.
  double on_mean = 0.0;
  double off_mean = 0.0;

  bool unlimited() const { return size == kUnlimitedFlowSize; }
  bool always_on() const { return on_mean <= 0.0 || off_mean <= 0.0; }
};

/// Destination map of a demand set: dest[i] = demands[i].dst.
std::vector<std::uint32_t> dest_of(const std::vector<FlowDemand>& demands);

/// Validates a demand set against population n with named errors: n
/// flows, flow i sourced at MS i, destinations in range and distinct
/// from their source, sizes ≥ 1, on/off means finite and either both
/// positive or both zero. Throws manetcap::CheckError.
void validate_demands(const std::vector<FlowDemand>& demands, std::size_t n);

enum class TrafficPattern : std::uint8_t {
  kPermutation = 0,  // the paper's uniform permutation
  kHotspot = 1,      // a few hotspot MSs absorb most of the demand
};

const char* to_string(TrafficPattern p);

/// A parsed, validated traffic scenario — the FaultPlan discipline
/// (parse / validate / describe) applied to workloads. The default
/// constructed spec is the historical uniform-permutation CBR.
struct TrafficSpec {
  TrafficPattern pattern = TrafficPattern::kPermutation;
  /// kHotspot: fraction of MSs designated hotspots (≥ 1 after rounding)
  /// and the probability mass a source sends toward the hotspot set.
  double hotspot_frac = 0.1;
  double hotspot_mass = 0.8;
  /// Heavy-tailed flow sizes: Pareto(α, x_m) with x_m chosen so the mean
  /// is `pareto_mean` packets. pareto_mean 0 (default) = unlimited CBR.
  double pareto_alpha = 1.5;
  double pareto_mean = 0.0;
  /// On-off bursty arrivals: exponential on/off period means in slots.
  /// Both 0 (default) = always on.
  double on_mean = 0.0;
  double off_mean = 0.0;
  /// Staggered flow starts, uniform in [0, max_start]. 0 = all at slot 0.
  std::uint32_t max_start = 0;

  /// True iff this spec reproduces the historical behavior exactly
  /// (uniform permutation, unlimited, always-on, start 0) — engines take
  /// the legacy code path byte for byte.
  bool is_default() const;

  /// Named-error validation (manetcap::CheckError on first violation).
  void validate() const;

  /// Parses the docs/TRAFFIC.md grammar: ';'-separated clauses
  ///   perm                 uniform permutation destinations (default)
  ///   hotspot:FRAC,MASS    hotspot destinations
  ///   pareto:ALPHA,MEAN    Pareto flow sizes (α > 1, mean in packets)
  ///   onoff:ON,OFF         exponential on-off bursts (means in slots)
  ///   start:MAX            staggered starts uniform in [0, MAX]
  /// Throws manetcap::CheckError naming the offending token.
  static TrafficSpec parse(const std::string& spec);

  /// One-line human echo, e.g. "hotspot(frac=0.1,mass=0.8) onoff(32,96)".
  std::string describe() const;
};

/// A traffic scenario that can be drawn into a concrete demand set.
/// Stateless after construction; draw() is deterministic given `g`'s
/// state and yields exactly n flows with flow i sourced at MS i.
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  const TrafficSpec& spec() const { return spec_; }
  std::string describe() const { return spec_.describe(); }

  /// Draws the demand set for population n (n ≥ 2). The result passes
  /// validate_demands(·, n).
  virtual std::vector<FlowDemand> draw(std::size_t n,
                                       rng::Xoshiro256& g) const = 0;

 protected:
  explicit TrafficModel(TrafficSpec spec) : spec_(spec) {}

  /// Applies the spec's size / start / on-off decorations to a drawn
  /// destination set (field-ordered loops, so the draw sequence is
  /// well-defined regardless of pattern).
  void decorate(std::vector<FlowDemand>& demands, rng::Xoshiro256& g) const;

  TrafficSpec spec_;
};

/// Builds the model for a validated spec.
std::unique_ptr<TrafficModel> make_traffic_model(const TrafficSpec& spec);

/// Exponential on-off source gate: alternating on-bursts and off-gaps
/// with geometric-ized exponential lengths (≥ 1 slot each), starting in
/// an on-burst. Deterministic given the seed and advanced lazily, so
/// per-flow gates are independent of visit order — a requirement for the
/// simulators' bit-identity across shard counts. Query slots in
/// non-decreasing order.
class OnOffGate {
 public:
  /// Always-on gate (on_at is constant true).
  OnOffGate() = default;

  /// Bursty gate with the given mean on/off lengths (slots, both > 0).
  OnOffGate(double on_mean, double off_mean, std::uint64_t seed);

  /// Whether the source may inject at `slot`.
  bool on_at(std::uint64_t slot);

  /// True when this gate actually gates (non-degenerate on/off means).
  bool active() const { return on_mean_ > 0.0 && off_mean_ > 0.0; }

  /// Checkpoint support: walks the evolving state only (sim/slotsim.cpp).
  void walk_state(util::binio::Walker& w) {
    w.fixed(until_);
    w.flag(on_);
    w.rng(rng_);
  }

 private:
  std::uint64_t draw_len(double mean);

  double on_mean_ = 0.0;
  double off_mean_ = 0.0;
  rng::Xoshiro256 rng_{0};
  bool on_ = true;
  std::uint64_t until_ = ~0ull;  // next toggle slot; ~0 = never (always on)
};

}  // namespace manetcap::net
