// SINR backend smoke: correctness invariants + ratio-gated wall clock.
//
// Runs the same instance (strong-regime scheme A, plus a scheme B variant)
// through the packet engine under each interference backend and reports
// rate, concurrency, rejection counters and wall clock per backend. The
// protocol run is the baseline; the gates are RATIOS against it, so the
// bench is host-speed independent:
//
//   * wall(sinr) / wall(protocol) ≤ --budget-ratio (the SINR filter is
//     O(pairs) expected per slot — near-field disk visits plus a
//     closed-form far-field term — so the overhead must stay a constant
//     factor, not a new asymptotic term);
//   * the SINR schedule is a subset: pairs/slot never exceeds protocol's,
//     and a non-zero cut shows up in the matching audit counter;
//   * the protocol run reports zero PHY counters (no model constructed).
//
// Flags:
//   --smoke          CI-sized instance (n = 256, 400 slots)
//   --check          gate the invariants above; exit 1 on violation
//   --n N            population (default 512)
//   --slots S        horizon (default 800)
//   --budget-ratio R wall-clock ceiling for sinr/protocol (default 8.0)
#include <iostream>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "phy/interference.h"
#include "rng/rng.h"
#include "sim/metrics.h"
#include "sim/slotsim.h"
#include "sim/sweep.h"
#include "util/artifacts.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {
using namespace manetcap;

struct BackendRun {
  double wall_s = 0.0;
  double rate = 0.0;
  double pairs_per_slot = 0.0;
  std::uint64_t sinr_rejected = 0;
  std::uint64_t csma_suppressed = 0;
};

BackendRun run_backend(const net::Network& net,
                       const std::vector<std::uint32_t>& dest,
                       sim::Scheme scheme, std::size_t slots,
                       phy::PhyKind kind) {
  sim::SlotSimOptions opt;
  opt.scheme = scheme;
  opt.slots = slots;
  opt.warmup = slots / 5;
  opt.seed = 9;
  opt.phy = kind;
  // Noise-limited enough that the SINR stage visibly cuts the schedule,
  // and a CCA threshold low enough that the CSMA stage does too.
  opt.sinr.beta = 3.0;
  opt.sinr.snr_edge = 2.0;
  opt.sinr.cca = 0.5;
  sim::Metrics m;
  opt.metrics = &m;
  util::Stopwatch sw;
  const auto r = sim::run_slot_sim(net, dest, opt);
  BackendRun out;
  out.wall_s = sw.seconds();
  out.rate = r.mean_flow_rate;
  out.pairs_per_slot = r.pairs_per_slot;
  out.sinr_rejected = m.count(sim::Counter::kPhySinrRejected);
  out.csma_suppressed = m.count(sim::Counter::kPhyCsmaSuppressed);
  return out;
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv,
                          {"smoke", "check", "n", "slots", "budget-ratio"});
  const bool smoke = flags.get_bool("smoke", false);
  const bool check = flags.get_bool("check", false);
  const std::size_t n = flags.get_count("n", smoke ? 256 : 512);
  const std::size_t slots = flags.get_count("slots", smoke ? 400 : 800);
  const double budget_ratio = flags.get_double("budget-ratio", 8.0);

  const std::string artifact = util::artifact_path("sinr_smoke");
  util::CsvWriter csv(artifact,
                      {"scheme", "phy", "n", "slots", "rate",
                       "pairs_per_slot", "sinr_rejected", "csma_suppressed",
                       "wall_s", "wall_ratio"});
  bool ok = true;

  const struct {
    sim::Scheme scheme;
    bool with_bs;
  } cases[] = {{sim::Scheme::kSchemeA, false},
               {sim::Scheme::kSchemeB, true}};
  for (const auto& c : cases) {
    net::ScalingParams p;
    p.n = n;
    p.alpha = 0.35;
    p.with_bs = c.with_bs;
    p.K = 0.75;
    p.M = 1.0;
    const auto placement = c.with_bs ? net::BsPlacement::kClusteredMatched
                                     : net::BsPlacement::kUniform;
    const auto net = net::Network::build(
        p, mobility::ShapeKind::kUniformDisk, placement, 7);
    rng::Xoshiro256 g(sim::traffic_seed(7));
    const auto dest = net::permutation_traffic(p.n, g);

    std::cout << "=== " << to_string(c.scheme) << ", n = " << n << ", "
              << slots << " slots ===\n\n";
    util::Table t({"phy", "rate", "pairs/slot", "sinr cut", "csma cut",
                   "wall", "vs protocol"});
    BackendRun protocol;
    for (phy::PhyKind kind : {phy::PhyKind::kProtocol, phy::PhyKind::kSinr,
                              phy::PhyKind::kSinrCsma}) {
      const BackendRun r = run_backend(net, dest, c.scheme, slots, kind);
      if (kind == phy::PhyKind::kProtocol) protocol = r;
      const double wall_ratio =
          protocol.wall_s > 0.0 ? r.wall_s / protocol.wall_s : 0.0;
      t.add_row({phy::to_string(kind), util::fmt_sci(r.rate, 4),
                 util::fmt_double(r.pairs_per_slot, 3),
                 std::to_string(r.sinr_rejected),
                 std::to_string(r.csma_suppressed),
                 util::fmt_double(r.wall_s, 3) + "s",
                 util::fmt_double(wall_ratio, 2) + "x"});
      csv.add_row({to_string(c.scheme), phy::to_string(kind),
                   std::to_string(n), std::to_string(slots),
                   util::fmt_sci(r.rate, 6),
                   util::fmt_double(r.pairs_per_slot, 4),
                   std::to_string(r.sinr_rejected),
                   std::to_string(r.csma_suppressed),
                   util::fmt_double(r.wall_s, 4),
                   util::fmt_double(wall_ratio, 3)});

      if (kind == phy::PhyKind::kProtocol) {
        if (r.sinr_rejected != 0 || r.csma_suppressed != 0) {
          std::cout << "FAIL: protocol run reported PHY counters\n";
          ok = false;
        }
        continue;
      }
      if (r.pairs_per_slot > protocol.pairs_per_slot) {
        std::cout << "FAIL: " << phy::to_string(kind)
                  << " scheduled MORE pairs than protocol ("
                  << r.pairs_per_slot << " > " << protocol.pairs_per_slot
                  << ")\n";
        ok = false;
      }
      const std::uint64_t cut = r.sinr_rejected + r.csma_suppressed;
      if (cut == 0) {
        std::cout << "FAIL: " << phy::to_string(kind)
                  << " cut nothing under a noise-limited config\n";
        ok = false;
      }
      if (wall_ratio > budget_ratio) {
        std::cout << "FAIL: " << phy::to_string(kind) << " wall ratio "
                  << util::fmt_double(wall_ratio, 2) << "x exceeds budget "
                  << util::fmt_double(budget_ratio, 2) << "x\n";
        ok = false;
      }
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "artifact: " << artifact << "\n";
  if (check) {
    std::cout << (ok ? "CHECK PASS\n" : "CHECK FAIL\n");
    return ok ? 0 : 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
