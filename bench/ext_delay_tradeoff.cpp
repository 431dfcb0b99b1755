// Extension: the capacity–delay landscape of the three architectures.
//
// The paper's companion literature (Neely–Modiano [12], Sharma et al. [11],
// Li et al. [9]) studies what the throughput laws cost in delay. Our slot
// simulator measures both at once: scheme A pays Θ(f(n)) squarelet hops,
// two-hop relay pays inter-meeting times, and infrastructure (scheme B)
// short-circuits distance entirely — [9]'s "delay is constant" claim for
// hybrid networks, visible here as a flat delay column across n.
#include <iostream>

#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/slotsim.h"
#include "util/flags.h"
#include "util/table.h"

namespace {
using namespace manetcap;

sim::SlotSimResult run_case(const net::ScalingParams& p,
                            sim::Scheme scheme, std::size_t slots) {
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 301);
  rng::Xoshiro256 g(303);
  auto dest = net::permutation_traffic(p.n, g);
  sim::SlotSimOptions opt;
  opt.scheme = scheme;
  opt.slots = slots;
  opt.warmup = slots / 10;
  opt.seed = 307;
  // Light load: one outstanding packet per source, so the measured delay
  // is the end-to-end transit time, not a saturated-queue wait.
  opt.source_backlog = 1;
  return sim::run_slot_sim(net, dest, opt);
}

}  // namespace

int run_program(int argc, char** argv) {
  util::Flags(argc, argv, {});  // takes no flags; rejects unknown ones
  std::cout << "=== extension: capacity vs delay per architecture ===\n"
            << "slot simulator, saturated sources; delay = injection slot\n"
            << "to delivery slot over the measurement window.\n\n";

  util::Table t({"scheme", "n", "rate/flow", "mean delay", "p95 delay"});

  for (std::size_t n : {256u, 512u, 1024u}) {
    net::ScalingParams adhoc;
    adhoc.n = n;
    adhoc.alpha = 0.3;
    adhoc.with_bs = false;
    adhoc.M = 1.0;
    auto ra = run_case(adhoc, sim::Scheme::kSchemeA, 4000);
    t.add_row({"scheme-A", std::to_string(n),
               util::fmt_sci(ra.mean_flow_rate, 3),
               util::fmt_double(ra.mean_delay, 4),
               util::fmt_double(ra.p95_delay, 4)});
  }
  t.add_separator();
  for (std::size_t n : {256u, 512u, 1024u}) {
    net::ScalingParams mixing;
    mixing.n = n;
    mixing.alpha = 0.0;  // full mixing: the regime where two-hop works
    mixing.with_bs = false;
    mixing.M = 1.0;
    auto rt = run_case(mixing, sim::Scheme::kTwoHop, 4000);
    t.add_row({"two-hop (f=1)", std::to_string(n),
               util::fmt_sci(rt.mean_flow_rate, 3),
               util::fmt_double(rt.mean_delay, 4),
               util::fmt_double(rt.p95_delay, 4)});
  }
  t.add_separator();
  for (std::size_t n : {256u, 512u, 1024u}) {
    net::ScalingParams hybrid;
    hybrid.n = n;
    hybrid.alpha = 0.3;
    hybrid.with_bs = true;
    hybrid.K = 0.8;
    hybrid.M = 1.0;
    hybrid.phi = 0.0;
    auto rb = run_case(hybrid, sim::Scheme::kSchemeB, 4000);
    t.add_row({"scheme-B", std::to_string(n),
               util::fmt_sci(rb.mean_flow_rate, 3),
               util::fmt_double(rb.mean_delay, 4),
               util::fmt_double(rb.p95_delay, 4)});
  }
  t.print(std::cout);

  std::cout
      << "\nShapes to check against the delay-capacity literature:\n"
      << "  * scheme A delay grows with n (Theta(f) squarelet hops, each\n"
      << "    a wait for the right relay);\n"
      << "  * two-hop delay is the inter-meeting time — large even when\n"
      << "    throughput is Theta(1);\n"
      << "  * scheme B delay stays roughly flat in n (uplink wait + wire\n"
      << "    + downlink wait), the constant-delay claim of Li et al. [9].\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
