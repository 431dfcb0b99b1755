// End-to-end fluid capacity evaluation: sample an instance, pick the
// paper's optimal scheme for its mobility regime (sim/scheme.h), and solve
// the scheme's constraint rows for the feasible per-node rate λ.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "capacity/regimes.h"
#include "flow/constraints.h"
#include "net/network.h"
#include "sim/scheme.h"

namespace manetcap::sim {

struct FluidOptions {
  /// BS placement of the sampled instance; scheme C on clusters always
  /// builds kClusterGrid (sim::engine_placement, as the sweeps do).
  net::BsPlacement placement = net::BsPlacement::kClusteredMatched;
  std::uint64_t seed = 1;

  /// Force a scheme instead of regime-based selection (ablations); empty
  /// selects the regime's scheme (sim::select_scheme).
  std::optional<Scheme> force;
};

struct FluidOutcome {
  capacity::MobilityRegime regime = capacity::MobilityRegime::kStrong;
  double lambda = 0.0;        // combined per-node rate (strict worst case)
  double lambda_adhoc = 0.0;  // mobility-side component (scheme A/two-hop)
  double lambda_infra = 0.0;  // infrastructure-side component (B or C)
  /// Typical-resource estimate composed the same way as `lambda`
  /// (see SchemeAResult::lambda_symmetric) — the quantity scaling fits
  /// should use, free of extreme-value bias.
  double lambda_symmetric = 0.0;
  /// The binding resource of whichever scheme set `lambda`. For a strong
  /// hybrid (λ = λ_A + λ_B) it is the bottleneck of the larger component —
  /// propagated from that component's constraint solve, never assumed.
  flow::Resource bottleneck = flow::Resource::kWirelessRelay;
  std::string bottleneck_label;  // binding constraint's label, if any
  std::string scheme;         // human-readable scheme description
};

/// Samples one instance for `params` (uniform-disk mobility shape) and
/// evaluates its fluid capacity.
FluidOutcome evaluate_capacity(const net::ScalingParams& params,
                               const FluidOptions& options);

/// Same, on a pre-built network (placement ablations reuse instances;
/// other mobility shapes enter here). `options.placement` is unused.
FluidOutcome evaluate_capacity(const net::Network& net,
                               const FluidOptions& options);

}  // namespace manetcap::sim
