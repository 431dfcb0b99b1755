// Extension: multicast capacity — the [20] connection.
//
// Each source serves g destinations. Scheme A can route the flow as a
// squarelet *tree* (shared prefixes loaded once) instead of g independent
// unicasts; the measured tree/unicast edge ratio is the sharing gain
// (Li [20] shows Θ(√g) asymptotically for g ≤ f²). Infrastructure
// multicast (scheme B) amortizes distance entirely: the wire fan-out is
// capped by the number of BS groups, and only the g downlinks scale.
#include <cmath>
#include <iostream>

#include "net/network.h"
#include "routing/multicast.h"
#include "rng/rng.h"
#include "util/flags.h"
#include "util/table.h"

int run_program(int argc, char** argv) {
  using namespace manetcap;
  util::Flags(argc, argv, {});  // takes no flags; rejects unknown ones
  std::cout << "=== extension: multicast (1 source -> g destinations) ===\n"
            << "n = 8192, alpha = 0.3; scheme A trees vs g-fold unicast,\n"
            << "and infrastructure multicast (K = 0.7, phi = 0).\n\n";

  auto adhoc_net = net::Network::build(
      [] {
        net::ScalingParams p;
        p.n = 8192;
        p.alpha = 0.3;
        p.with_bs = false;
        p.M = 1.0;
        return p;
      }(),
      mobility::ShapeKind::kUniformDisk, net::BsPlacement::kUniform, 601);
  auto hybrid_net = net::Network::build(
      [] {
        net::ScalingParams p;
        p.n = 8192;
        p.alpha = 0.3;
        p.with_bs = true;
        p.K = 0.7;
        p.M = 1.0;
        p.phi = 0.0;
        return p;
      }(),
      mobility::ShapeKind::kUniformDisk,
      net::BsPlacement::kClusteredMatched, 603);

  util::Table t({"g", "lambda tree", "lambda unicast-bundle",
                 "tree/bundle gain", "sharing factor", "sqrt(g)",
                 "lambda infra (scheme B)"});
  routing::MulticastSchemeA tree(true);
  routing::MulticastSchemeA bundle(false);
  routing::MulticastSchemeB infra;

  for (std::size_t g_size : {1u, 2u, 4u, 8u, 16u, 32u}) {
    rng::Xoshiro256 g(605);
    auto traffic = routing::multicast_traffic(8192, g_size, g);
    auto rt = tree.evaluate(adhoc_net, traffic);
    auto rb = bundle.evaluate(adhoc_net, traffic);
    auto ri = infra.evaluate(hybrid_net, traffic);
    const double share = rt.mean_unicast_edges / rt.mean_tree_edges;
    t.add_row({std::to_string(g_size),
               util::fmt_sci(rt.lambda_symmetric, 3),
               util::fmt_sci(rb.lambda_symmetric, 3),
               util::fmt_double(rt.lambda_symmetric /
                                    std::max(rb.lambda_symmetric, 1e-300),
                                3),
               util::fmt_double(share, 3),
               util::fmt_double(std::sqrt(static_cast<double>(g_size)), 3),
               util::fmt_sci(ri.lambda_symmetric, 3)});
  }
  t.print(std::cout);

  std::cout
      << "\nReading: tree sharing buys a growing constant over the unicast\n"
      << "bundle as g rises (the sharing factor tracks the sqrt(g) trend\n"
      << "of Li [20] while destinations are sparse in the squarelet grid).\n"
      << "Scheme B degrades only through its g downlinks — for large\n"
      << "groups the infrastructure advantage over ad hoc multicast is\n"
      << "even larger than in the unicast Fig. 3 comparison.\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
