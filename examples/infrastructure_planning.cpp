// Infrastructure planning study: how many base stations, how many antennas,
// and how much wired bandwidth does a target per-node rate actually need?
//
// The generalized laws (arXiv:1402.2042) make this a three-knob design
// problem:
//   * K  (k = n^K base stations)   — buys Θ(k·l/n) access capacity,
//   * L  (l = n^L antennas per BS) — multiplies each BS's access streams,
//   * ϕ  (µ_c = k·c = n^ϕ wires)   — useless beyond ϕ* = min(L, 1−K),
//                                    fatal below 0.
// This example sweeps all three knobs on a concrete population and prints
// the cheapest configuration meeting the target, where cost is the
// BsCostModel dollars k·(fixed + antennas + µ_c).
//
// Run: ./examples/infrastructure_planning [--n 8192] [--target 4e-4]
#include <cmath>
#include <iostream>
#include <optional>

#include "capacity/formulas.h"
#include "capacity/recommend.h"
#include "net/network.h"
#include "routing/scheme_b.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "util/flags.h"
#include "util/table.h"

int run_program(int argc, char** argv) {
  using namespace manetcap;
  util::Flags flags(argc, argv, {"n", "alpha", "target"});
  net::ScalingParams p;
  p.n = flags.get_count("n", 8192);
  p.alpha = flags.get_double("alpha", 0.3);
  p.with_bs = true;
  p.M = 1.0;
  const double target = flags.get_double("target", 4e-4);
  const capacity::BsCostModel cost_model;

  std::cout << "=== infrastructure dimensioning for n = " << p.n
            << ", target per-node rate " << util::fmt_sci(target, 2)
            << " ===\n\n";

  util::Table t({"K", "phi", "L", "k", "l", "mu_c", "lambda (strict)",
                 "meets target", "BS dollars"});

  struct Best {
    double cost;
    double K, phi, L, lambda;
  };
  std::optional<Best> best;

  for (double K : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    for (double phi : {-0.5, -0.25, 0.0, 0.25, 0.5}) {
      for (double L : {0.0, 0.25}) {
        net::ScalingParams q = p;
        q.K = K;
        q.phi = phi;
        q.L = L;
        auto net = net::Network::build(q, mobility::ShapeKind::kUniformDisk,
                                       net::BsPlacement::kClusteredMatched,
                                       7);
        rng::Xoshiro256 g(11);
        auto dest = net::permutation_traffic(q.n, g);
        routing::SchemeB b;
        auto r = b.evaluate(net, dest);
        // The strict solver λ sees the per-BS aggregate rows the antennas
        // widen; the symmetric estimate only carries mean access + wires.
        const double lambda = r.throughput.lambda;
        const double mu_c = std::pow(static_cast<double>(q.n), phi);
        const double cost = capacity::bs_dollars(q, cost_model);
        const bool ok = lambda >= target;
        if (ok && (!best || cost < best->cost))
          best = Best{cost, K, phi, L, lambda};
        t.add_row({util::fmt_double(K, 2), util::fmt_double(phi, 3),
                   util::fmt_double(L, 2), std::to_string(q.k()),
                   std::to_string(q.l()), util::fmt_double(mu_c, 3),
                   util::fmt_sci(lambda, 3), ok ? "yes" : "no",
                   util::fmt_double(cost, 4)});
      }
    }
  }
  t.print(std::cout);

  if (best) {
    std::cout << "\ncheapest feasible configuration: K = " << best->K
              << ", phi = " << best->phi << ", L = " << best->L
              << " (lambda = " << util::fmt_sci(best->lambda, 3) << ", cost "
              << util::fmt_double(best->cost, 4) << ")\n"
              << "design rules at that point: phi* = "
              << util::fmt_double(capacity::recommended_phi(best->L, best->K),
                                  3)
              << ", L* = "
              << util::fmt_double(capacity::recommended_L(best->phi, best->K),
                                  3)
              << " (backhaul/antennas beyond these are pure cost)\n"
              << "\nObservations the laws predict and the table confirms:\n"
              << "  * raising phi above min(L, 1-K) never helps — the\n"
              << "    min(k*l, k^2 c, n)/n law saturates;\n"
              << "  * starving wires (phi << 0) wastes the whole BS\n"
              << "    investment, antennas included;\n"
              << "  * antennas (L > 0) only pay off when the wires can\n"
              << "    feed them (phi > 0) — and then capacity rises with\n"
              << "    k*l = n^(K+L).\n";
  } else {
    std::cout << "\nno configuration met the target — raise K or lower "
                 "the target.\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
