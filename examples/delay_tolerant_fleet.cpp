// Delay-tolerant fleet: a packet-level story in the strong-mobility regime.
//
// A fleet of delivery vehicles circles fixed depots (home-points). We run
// the slotted simulator end-to-end and watch how the paper's machinery
// behaves in the "real" (scheduled, queued) world rather than the fluid
// one: scheme A multihop versus pure two-hop relay, and what adding a thin
// layer of wired roadside units (scheme B) buys.
//
// Run: ./examples/delay_tolerant_fleet [--n 512] [--slots 3000]
#include <iostream>

#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/slotsim.h"
#include "util/flags.h"
#include "util/table.h"

int run_program(int argc, char** argv) {
  using namespace manetcap;
  util::Flags flags(argc, argv, {"n", "slots"});
  const std::size_t n = flags.get_count("n", 512);
  const std::size_t slots = flags.get_count("slots", 3000);

  std::cout << "=== delay-tolerant fleet: " << n << " vehicles, " << slots
            << " slots ===\n\n";

  // The fleet: restricted mobility (vehicles roam ~6% of the city around
  // their depot), depots uniform.
  net::ScalingParams adhoc;
  adhoc.n = n;
  adhoc.alpha = 0.3;
  adhoc.with_bs = false;
  adhoc.M = 1.0;

  net::ScalingParams hybrid = adhoc;
  hybrid.with_bs = true;
  hybrid.K = 0.8;   // roadside units
  hybrid.phi = 0.0; // each wired with c = 1/k (µ_c constant — the optimum)

  rng::Xoshiro256 g(2027);
  auto dest = net::permutation_traffic(n, g);

  util::Table t({"architecture", "mobility", "delivered/flow/slot",
                 "p10 flow", "S* pairs/slot"});

  auto run = [&](const char* name, const net::ScalingParams& p,
                 sim::Scheme scheme, sim::SlotMobility mob,
                 const char* mob_name) {
    auto net = net::Network::build(p, mobility::ShapeKind::kTriangular,
                                   net::BsPlacement::kClusteredMatched, 17);
    sim::SlotSimOptions opt;
    opt.scheme = scheme;
    opt.mobility = mob;
    opt.slots = slots;
    opt.warmup = slots / 10;
    opt.seed = 19;
    auto r = sim::run_slot_sim(net, dest, opt);
    t.add_row({name, mob_name, util::fmt_sci(r.mean_flow_rate, 3),
               util::fmt_sci(r.p10_flow_rate, 3),
               util::fmt_double(r.pairs_per_slot, 3)});
  };

  // Pure ad hoc, three mobility processes (the law only cares about the
  // stationary distribution — Lemma 2).
  run("ad hoc scheme A", adhoc, sim::Scheme::kSchemeA,
      sim::SlotMobility::kIid, "iid");
  run("ad hoc scheme A", adhoc, sim::Scheme::kSchemeA,
      sim::SlotMobility::kWalk, "bounded walk");
  run("ad hoc scheme A", adhoc, sim::Scheme::kSchemeA,
      sim::SlotMobility::kPullHome, "AR(1) pull");
  // Two-hop relay cannot bridge depots farther than the mobility disk.
  run("two-hop relay", adhoc, sim::Scheme::kTwoHop,
      sim::SlotMobility::kIid, "iid");
  // Roadside units + wires.
  run("hybrid scheme B", hybrid, sim::Scheme::kSchemeB,
      sim::SlotMobility::kIid, "iid");

  t.print(std::cout);

  std::cout
      << "\nWhat to notice:\n"
      << "  * scheme A's rate is insensitive to the mobility process —\n"
      << "    only the stationary distribution matters (Lemma 2);\n"
      << "  * two-hop relay delivers a fraction of scheme A's rate, and\n"
      << "    pairs whose depots sit farther apart than the mobility disk\n"
      << "    can NEVER deliver, no matter how long we wait — restricted\n"
      << "    mobility cannot play Grossglauser-Tse (Lemma 4's point);\n"
      << "  * roadside units lift the floor (p10 > 0): every flow rides\n"
      << "    the wires at Theta(min(k^2 c/n, k/n)) regardless of "
         "distance.\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
