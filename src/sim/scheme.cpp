#include "sim/scheme.h"

#include <stdexcept>

#include "capacity/regimes.h"
#include "routing/scheme_a.h"
#include "routing/scheme_c.h"
#include "routing/static_multihop.h"
#include "routing/two_hop.h"

namespace manetcap::sim {

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::kSchemeA:
      return "scheme-A";
    case Scheme::kTwoHop:
      return "two-hop";
    case Scheme::kSchemeB:
      return "scheme-B";
    case Scheme::kSchemeC:
      return "scheme-C";
    case Scheme::kStaticMultihop:
      return "static-multihop";
  }
  return "?";
}

Scheme parse_scheme(const std::string& s) {
  if (s == "A" || s == "scheme-A") return Scheme::kSchemeA;
  if (s == "twohop" || s == "two-hop") return Scheme::kTwoHop;
  if (s == "B" || s == "scheme-B") return Scheme::kSchemeB;
  if (s == "C" || s == "scheme-C") return Scheme::kSchemeC;
  if (s == "static" || s == "static-multihop")
    return Scheme::kStaticMultihop;
  throw std::runtime_error("unknown scheme: " + s +
                           " (expected A|B|C|twohop|static)");
}

Scheme select_scheme(const net::ScalingParams& params) {
  switch (capacity::classify(params)) {
    case capacity::MobilityRegime::kStrong:
      return Scheme::kSchemeA;
    case capacity::MobilityRegime::kWeak:
      return params.with_bs ? Scheme::kSchemeB : Scheme::kStaticMultihop;
    case capacity::MobilityRegime::kTrivial:
      return params.with_bs ? Scheme::kSchemeC : Scheme::kStaticMultihop;
  }
  return Scheme::kSchemeA;
}

bool strong_hybrid(const net::ScalingParams& params) {
  return params.with_bs && select_scheme(params) == Scheme::kSchemeA;
}

routing::BsGrouping bs_grouping(const net::ScalingParams& params) {
  return capacity::classify(params) == capacity::MobilityRegime::kWeak
             ? routing::BsGrouping::kCluster
             : routing::BsGrouping::kSquarelet;
}

bool uses_bs(Scheme s) {
  return s == Scheme::kSchemeB || s == Scheme::kSchemeC;
}

namespace {

template <class Result>
SchemeEval eval_of(const Result& r) {
  return {r.throughput, r.lambda_symmetric, false};
}

}  // namespace

SchemeEval evaluate_scheme(const net::Network& net,
                           const std::vector<std::uint32_t>& dest,
                           Scheme scheme, const SchemeArgs& args,
                           routing::RateStructure* rates) {
  switch (scheme) {
    case Scheme::kSchemeA: {
      const auto r = routing::SchemeA().evaluate(net, dest, nullptr,
                                                 args.bandwidth_share, rates);
      return {r.throughput, r.lambda_symmetric, r.degenerate};
    }
    case Scheme::kTwoHop:
      return eval_of(routing::TwoHopRelay().evaluate(net, dest, rates));
    case Scheme::kSchemeB:
      return eval_of(routing::SchemeB(args.grouping)
                         .evaluate(net, dest, nullptr, args.bandwidth_share,
                                   rates));
    case Scheme::kSchemeC:
      return eval_of(routing::SchemeC(args.delta).evaluate(net, dest, rates));
    case Scheme::kStaticMultihop:
      return eval_of(routing::StaticMultihop().evaluate(net, dest, rates));
  }
  return {};
}

}  // namespace manetcap::sim
