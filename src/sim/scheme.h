// The routing schemes of Sections IV–V and every decision keyed on them,
// shared by both engines: the scheme names, the regime → scheme rule,
// scheme B's BS grouping, the strong hybrid and the one dispatch to a
// scheme's routing evaluator.
//
// Table I gives each regime one scheme:
//   strong  → scheme A (mobility multihop); with BSs it time-shares with
//             scheme B over constant-area squarelets, λ = λ_A + λ_B.
//             When f(n) = Θ(1) scheme A's grid degenerates and two-hop
//             relay takes its place.
//   weak    → scheme B with clusters as subnets (Theorem 7).
//   trivial → scheme C cellular TDMA (Theorem 9).
//   no BSs  → static cluster multihop under weak or trivial mobility
//             (Corollary 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/constraints.h"
#include "net/network.h"
#include "routing/rate_structure.h"
#include "routing/scheme_b.h"

namespace manetcap::sim {

/// The enumerators keep this order: traces and MCCKPT1 checkpoints store
/// the scheme as its one-byte index.
enum class Scheme {
  kSchemeA,         // squarelet H-V multihop over mobility (Def. 11)
  kTwoHop,          // Grossglauser–Tse two-hop relay
  kSchemeB,         // uplink → wired backbone → downlink (Def. 12)
  kSchemeC,         // cellular TDMA + Valiant backbone (Def. 13)
  kStaticMultihop,  // static baseline (mobility off); flow engine only
};

/// Deprecated spellings of Scheme, kept for one release (docs/API.md).
using SlotScheme = Scheme;
using FlowScheme = Scheme;

/// "scheme-A", "two-hop", "scheme-B", "scheme-C" or "static-multihop".
std::string to_string(Scheme s);

/// Parses a CLI name (A|B|C|twohop|static) or a to_string() name; throws
/// std::runtime_error("unknown scheme: …") otherwise.
Scheme parse_scheme(const std::string& s);

/// The paper's scheme for the instance's regime (table above): A under
/// strong mobility, B or C under weak or trivial mobility with BSs, and
/// static multihop under weak or trivial mobility without them.
Scheme select_scheme(const net::ScalingParams& params);

/// Section IV's strong hybrid: under strong mobility with BSs the selected
/// scheme A (or its two-hop fallback) time-shares with scheme B, so the
/// capacity is λ_A + λ_B, summed in that order.
bool strong_hybrid(const net::ScalingParams& params);

/// Scheme B's BS grouping: home-point clusters as subnets under weak
/// mobility (Theorem 7), constant-area squarelets otherwise.
routing::BsGrouping bs_grouping(const net::ScalingParams& params);

/// True for the schemes that route through base stations (B and C).
bool uses_bs(Scheme s);

/// Evaluator knobs; the defaults are every evaluator's own defaults.
struct SchemeArgs {
  routing::BsGrouping grouping = routing::BsGrouping::kSquarelet;  // B
  /// Wireless share of schemes A and B when the channel is split (wires
  /// are unaffected).
  double bandwidth_share = 1.0;
  double delta = 1.0;  // scheme C's protocol-model guard factor
};

/// One scheme evaluation: the constraint solver's result and the
/// typical-resource λ (see routing::SchemeAResult::lambda_symmetric).
struct SchemeEval {
  flow::ThroughputResult throughput;
  double lambda_symmetric = 0.0;
  bool degenerate = false;  // scheme A's grid is below its minimum side
};

/// Runs `scheme`'s routing evaluator for permutation traffic `dest`.
/// `rates` (optional) receives the per-flow constraint incidence the flow
/// engine allocates over; nullptr skips it.
SchemeEval evaluate_scheme(const net::Network& net,
                           const std::vector<std::uint32_t>& dest,
                           Scheme scheme, const SchemeArgs& args = {},
                           routing::RateStructure* rates = nullptr);

}  // namespace manetcap::sim
