// Extension: failure injection — base-station outages.
//
// The laws say capacity is linear in k (access-limited, ϕ = 0), so a
// *random* outage of a fraction p of BSs should degrade λ gracefully by
// ≈ (1 − p). A *regional* outage (every BS in a disk dies) is a different
// story: the squarelet group serving that region empties and the flows
// anchored there lose infrastructure service entirely — the strict λ
// collapses while the typical (surviving-flow) rate barely moves.
#include <cmath>
#include <iostream>

#include "net/network.h"
#include "net/traffic.h"
#include "routing/scheme_b.h"
#include "rng/rng.h"
#include "util/flags.h"
#include "util/table.h"

int run_program(int argc, char** argv) {
  using namespace manetcap;
  util::Flags(argc, argv, {});  // takes no flags; rejects unknown ones
  std::cout << "=== extension: BS outage failure injection ===\n"
            << "n = 8192, alpha = 0.3, K = 0.75, phi = 0, scheme B\n\n";

  net::ScalingParams p;
  p.n = 8192;
  p.alpha = 0.3;
  p.with_bs = true;
  p.K = 0.75;
  p.M = 1.0;
  p.phi = 0.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 401);
  rng::Xoshiro256 g(403);
  auto dest = net::permutation_traffic(p.n, g);
  routing::SchemeB b;

  const auto baseline = b.evaluate(net, dest);

  std::cout << "-- random outages: lose a fraction p of all BSs --\n";
  util::Table t1({"outage p", "surviving k", "lambda (typical)",
                  "vs baseline", "law prediction (1-p)"});
  for (double frac : {0.0, 0.1, 0.25, 0.5, 0.75}) {
    rng::Xoshiro256 kill(405);
    std::vector<bool> keep(net.num_bs(), true);
    std::size_t killed = 0;
    for (std::size_t j = 0; j < keep.size(); ++j) {
      if (rng::uniform01(kill) < frac) {
        keep[j] = false;
        ++killed;
      }
    }
    auto degraded = net.with_bs_subset(keep);
    auto r = b.evaluate(degraded, dest);
    t1.add_row({util::fmt_double(frac, 3),
                std::to_string(net.num_bs() - killed),
                util::fmt_sci(r.lambda_symmetric, 3),
                util::fmt_ratio(r.lambda_symmetric,
                                baseline.lambda_symmetric, 3),
                util::fmt_double(1.0 - frac, 3)});
  }
  t1.print(std::cout);

  std::cout << "\n-- regional outage: every BS within radius rho of the "
               "torus center dies --\n";
  util::Table t2({"outage radius", "surviving k", "lambda strict",
                  "lambda typical", "uncovered MS"});
  for (double rho : {0.0, 0.1, 0.2, 0.3}) {
    std::vector<bool> keep(net.num_bs(), true);
    std::size_t killed = 0;
    for (std::size_t j = 0; j < keep.size(); ++j) {
      if (geom::torus_dist(net.bs_pos()[j], {0.5, 0.5}) < rho) {
        keep[j] = false;
        ++killed;
      }
    }
    auto degraded = net.with_bs_subset(keep);
    auto r = b.evaluate(degraded, dest);
    t2.add_row({util::fmt_double(rho, 3),
                std::to_string(net.num_bs() - killed),
                util::fmt_sci(r.throughput.lambda, 3),
                util::fmt_sci(r.lambda_symmetric, 3),
                std::to_string(r.unreachable_ms)});
  }
  t2.print(std::cout);

  std::cout
      << "\nReading: random outages degrade linearly in surviving k — the\n"
      << "Θ(k/n) access law in action. A regional outage is qualitatively\n"
      << "worse: the typical rate of the *surviving* flows barely moves,\n"
      << "but a growing population (uncovered MS column) is cut off from\n"
      << "the infrastructure outright and the worst covered flow halves —\n"
      << "the capacity laws are statements about balanced deployments.\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
