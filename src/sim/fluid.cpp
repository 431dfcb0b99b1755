#include "sim/fluid.h"

#include "net/traffic.h"
#include "sim/engine.h"
#include "sim/sweep.h"

namespace manetcap::sim {

namespace {

/// What the label of a regime-selected scheme adds to its name.
const char* selected_note(Scheme s) {
  switch (s) {
    case Scheme::kSchemeB:
      return " (clusters as subnets)";
    case Scheme::kSchemeC:
      return " (cellular TDMA)";
    case Scheme::kStaticMultihop:
      return " (no BSs)";
    case Scheme::kSchemeA:
    case Scheme::kTwoHop:
      break;
  }
  return "";
}

}  // namespace

FluidOutcome evaluate_capacity(const net::ScalingParams& params,
                               const FluidOptions& options) {
  const Scheme scheme = options.force ? *options.force : select_scheme(params);
  net::Network net = net::Network::build(
      params, mobility::ShapeKind::kUniformDisk,
      engine_placement(params, scheme == Scheme::kSchemeC, options.placement),
      options.seed);
  return evaluate_capacity(net, options);
}

FluidOutcome evaluate_capacity(const net::Network& net,
                               const FluidOptions& options) {
  const net::ScalingParams& params = net.params();
  // Canonical traffic derivation (sim::traffic_seed) — the same permutation
  // every other engine draws for this seed, so fluid-vs-slots comparisons
  // see identical flows.
  rng::Xoshiro256 g(traffic_seed(options.seed));
  const auto dest = net::permutation_traffic(params.n, g);

  FluidOutcome out;
  out.regime = capacity::classify(params);
  const SchemeArgs args{bs_grouping(params)};

  // One scheme sets the outcome; its λ is the infrastructure or the ad hoc
  // component. Bottlenecks ride along with the rates they explain instead
  // of being re-guessed here.
  auto set = [&out](Scheme s, const SchemeEval& e, std::string label) {
    (uses_bs(s) ? out.lambda_infra : out.lambda_adhoc) = e.throughput.lambda;
    out.lambda = e.throughput.lambda;
    out.lambda_symmetric = e.lambda_symmetric;
    out.bottleneck = e.throughput.bottleneck;
    out.bottleneck_label = e.throughput.bottleneck_label;
    out.scheme = std::move(label);
  };

  if (options.force) {
    const Scheme s = *options.force;
    // A scheme that cannot run here — an infrastructure scheme without
    // BSs, or scheme A below its minimum grid — is a labeled λ = 0
    // outcome the caller can test for, not a precondition failure and not
    // the evaluator's defaults passed off as a real λ.
    if (uses_bs(s) && net.num_bs() == 0) {
      SchemeEval none;
      none.throughput.bottleneck = flow::Resource::kAccess;
      none.throughput.bottleneck_label = "no base stations";
      set(s, none, to_string(s) + " (forced, degenerate)");
      return out;
    }
    SchemeEval e = evaluate_scheme(net, dest, s, args);
    if (e.degenerate) e.throughput.lambda = e.lambda_symmetric = 0.0;
    set(s, e,
        to_string(s) + (e.degenerate ? " (forced, degenerate)" : " (forced)"));
    return out;
  }

  Scheme s = select_scheme(params);
  SchemeEval a = evaluate_scheme(net, dest, s, args);
  if (a.degenerate) {  // scheme A at f(n) = Θ(1): two-hop relay instead
    s = Scheme::kTwoHop;
    a = evaluate_scheme(net, dest, s, args);
  }
  if (!strong_hybrid(params)) {
    set(s, a, to_string(s) + selected_note(s));
    return out;
  }
  const SchemeEval b = evaluate_scheme(net, dest, Scheme::kSchemeB, args);
  out.lambda_adhoc = a.throughput.lambda;
  out.lambda_infra = b.throughput.lambda;
  out.scheme = to_string(s) + " + scheme-B";
  // The hybrid's bottleneck is the larger component's actual binding
  // constraint. The ad-hoc side's is NOT always kWirelessRelay: the
  // two-hop fallback (and any future ad-hoc scheme) reports its own.
  const flow::ThroughputResult& binding =
      a.throughput.lambda >= b.throughput.lambda ? a.throughput
                                                 : b.throughput;
  out.bottleneck = binding.bottleneck;
  out.bottleneck_label = binding.bottleneck_label;
  out.lambda = a.throughput.lambda + b.throughput.lambda;
  out.lambda_symmetric = a.lambda_symmetric + b.lambda_symmetric;
  return out;
}

}  // namespace manetcap::sim
