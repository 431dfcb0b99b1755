// Quickstart: the five-minute tour of the manetcap public API.
//
//   1. describe a hybrid network by its scaling exponents,
//   2. classify its mobility regime and look up the paper's capacity law,
//   3. sample a concrete instance and measure its fluid capacity,
//   4. cross-check with a packet-level simulation.
//
// Build & run:  ./examples/quickstart [--n 4096] [--alpha 0.3] [--K 0.7]
#include <iostream>

#include "capacity/formulas.h"
#include "capacity/regimes.h"
#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/fluid.h"
#include "sim/slotsim.h"
#include "util/flags.h"
#include "util/table.h"

int run_program(int argc, char** argv) {
  using namespace manetcap;
  util::Flags flags(argc, argv, {"n", "alpha", "K", "phi", "M", "R"});

  // --- 1. scaling parameters --------------------------------------------
  net::ScalingParams p;
  p.n = flags.get_count("n", 4096);
  p.alpha = flags.get_double("alpha", 0.3);  // side length f = n^alpha
  p.with_bs = true;
  p.K = flags.get_double("K", 0.7);          // k = n^K base stations
  p.phi = flags.get_double("phi", 0.0);      // mu_c = k*c = n^phi
  p.M = flags.get_double("M", 1.0);          // M = 1: cluster-free
  p.R = flags.get_double("R", 0.0);

  std::cout << "network: " << p.describe() << "\n";
  for (const auto& v : p.assumption_violations())
    std::cout << "  note: " << v << "\n";

  // --- 2. theory ----------------------------------------------------------
  const auto regime = capacity::classify(p);
  const auto law = capacity::capacity_law(p);
  std::cout << "\nmobility regime: " << to_string(regime)
            << "  (f*sqrt(gamma) = "
            << util::fmt_double(capacity::f_sqrt_gamma(p), 3) << ")\n"
            << "capacity law:    lambda = " << law.expression
            << "  ~ n^" << util::fmt_double(law.exponent, 3) << "\n"
            << "optimal range:   R_T = " << law.rt_expression << "  ~ n^"
            << util::fmt_double(law.rt_exponent, 3) << "\n";

  // --- 3. fluid measurement ------------------------------------------------
  sim::FluidOptions opt;
  opt.seed = 42;
  const auto out = sim::evaluate_capacity(p, opt);
  std::cout << "\nfluid capacity of a sampled instance (scheme: "
            << out.scheme << ")\n"
            << "  lambda (worst flow):   " << util::fmt_sci(out.lambda, 3)
            << "\n"
            << "  lambda (typical flow): "
            << util::fmt_sci(out.lambda_symmetric, 3) << "\n"
            << "  ad hoc component:      "
            << util::fmt_sci(out.lambda_adhoc, 3) << "\n"
            << "  infrastructure part:   "
            << util::fmt_sci(out.lambda_infra, 3) << "\n"
            << "  bottleneck resource:   " << to_string(out.bottleneck)
            << "\n";

  // --- 4. packet-level cross-check ----------------------------------------
  // (kept small: 512 nodes, 2000 slots)
  net::ScalingParams small = p;
  small.n = std::min<std::size_t>(p.n, 512);
  auto net = net::Network::build(small, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 42);
  rng::Xoshiro256 g(43);
  auto dest = net::permutation_traffic(small.n, g);
  sim::SlotSimOptions sopt;
  sopt.scheme = sim::Scheme::kSchemeB;
  sopt.slots = 2000;
  sopt.warmup = 200;
  sopt.seed = 44;
  auto slot = sim::run_slot_sim(net, dest, sopt);
  std::cout << "\npacket-level cross-check (n = " << small.n
            << ", scheme B, 2000 slots):\n"
            << "  delivered rate/flow:  "
            << util::fmt_sci(slot.mean_flow_rate, 3) << " packets/slot\n"
            << "  S* pairs per slot:    "
            << util::fmt_double(slot.pairs_per_slot, 3) << "\n";
  std::cout << "\nNext: see bench/ for every table & figure of the paper,\n"
            << "and examples/infrastructure_planning for a design study.\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
