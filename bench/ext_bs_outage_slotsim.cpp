// Extension: failure injection in the *slot simulator* — the dynamic
// counterpart of ext_bs_outage (which degrades the fluid model). A
// FaultPlan kills base stations at the end of warmup and the packet
// simulator keeps running: affected MSs re-home to the nearest live BS,
// dying queues are dropped (counted), and delivered throughput is
// measured over the degraded window.
//
// Expected shape, mirroring the fluid laws: a *random* outage of a
// fraction p of BSs degrades the mean delivered rate by ≈ (1 − p)
// (access-limited linearity in k); a *regional* outage (every BS in a
// disk) collapses the min flow much faster than the mean — the flows
// anchored in the dead region fail over to distant BSs and queue behind
// everyone else.
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/faults.h"
#include "sim/slotsim.h"
#include "util/artifacts.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"

namespace {
using namespace manetcap;

struct OutageRun {
  std::size_t surviving_k = 0;
  sim::SlotSimResult res;
};

OutageRun run_with_plan(const net::Network& net,
                        const std::vector<std::uint32_t>& dest,
                        const sim::SlotSimOptions& base,
                        const sim::FaultPlan& plan, std::size_t killed) {
  sim::SlotSimOptions opt = base;
  opt.faults = plan.empty() ? nullptr : &plan;
  OutageRun out;
  out.surviving_k = net.num_bs() - killed;
  out.res = sim::run_slot_sim(net, dest, opt);
  return out;
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv, {"smoke"});
  const bool smoke = flags.get_bool("smoke", false);

  net::ScalingParams p;
  p.alpha = 0.3;
  p.with_bs = true;
  p.K = 0.6;
  p.M = 1.0;
  p.phi = 0.0;
  p.n = smoke ? 256 : 512;

  sim::SlotSimOptions opt;
  opt.scheme = sim::Scheme::kSchemeB;
  opt.slots = smoke ? 1200 : 4000;
  opt.warmup = smoke ? 200 : 400;
  opt.seed = 107;

  std::cout << "=== extension: BS outage failure injection (slot sim) ===\n"
            << "n = " << p.n << ", alpha = 0.3, K = 0.6, phi = 0, scheme B, "
            << opt.slots << " slots (" << opt.warmup << " warmup)\n"
            << "faults fire at slot " << opt.warmup
            << " — the whole measurement window runs degraded\n\n";

  const auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                       net::BsPlacement::kClusteredMatched,
                                       401);
  rng::Xoshiro256 g(403);
  const auto dest = net::permutation_traffic(p.n, g);
  const std::size_t k = net.num_bs();

  const sim::FaultPlan no_faults;
  const auto baseline = run_with_plan(net, dest, opt, no_faults, 0);

  util::CsvWriter csv(util::artifact_path("ext_bs_outage_slotsim"),
                      {"kind", "param", "surviving_k", "mean_rate", "min_rate",
                       "ratio_mean", "prediction", "dropped_bs_outage"});

  // -- random outages: kill each BS independently with probability p --
  std::cout << "-- random outages: lose a fraction p of all BSs at slot "
            << opt.warmup << " --\n";
  util::Table t1({"outage p", "surviving k", "slot mean rate", "vs baseline",
                  "law prediction (1-p)", "dropped"});
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.0, 0.25}
            : std::vector<double>{0.0, 0.1, 0.25, 0.5};
  for (double frac : fractions) {
    rng::Xoshiro256 kill(405);
    sim::FaultPlan plan;
    std::size_t killed = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (rng::uniform01(kill) < frac) {
        sim::FaultEvent e;
        e.slot = opt.warmup;
        e.kind = sim::FaultKind::kBsDown;
        e.bs = static_cast<std::uint32_t>(j);
        plan.events.push_back(e);
        ++killed;
      }
    }
    // The simulator (rightly) refuses to kill the last live BS.
    if (killed == k) {
      plan.events.pop_back();
      --killed;
    }
    const auto run = run_with_plan(net, dest, opt, plan, killed);
    // Predict with the *realized* kill fraction, not the nominal p — at
    // small k the Bernoulli draw is noisy and the law is about survivors.
    const double realized = static_cast<double>(killed) / k;
    t1.add_row({util::fmt_double(frac, 3), std::to_string(run.surviving_k),
                util::fmt_sci(run.res.mean_flow_rate, 3),
                util::fmt_ratio(run.res.mean_flow_rate,
                                baseline.res.mean_flow_rate, 3),
                util::fmt_double(1.0 - realized, 3),
                std::to_string(run.res.dropped_bs_outage)});
    csv.add_row({"random", util::fmt_double(frac, 3),
                 std::to_string(run.surviving_k),
                 util::fmt_sci(run.res.mean_flow_rate, 6),
                 util::fmt_sci(run.res.min_flow_rate, 6),
                 util::fmt_ratio(run.res.mean_flow_rate,
                                 baseline.res.mean_flow_rate, 6),
                 util::fmt_double(1.0 - realized, 6),
                 std::to_string(run.res.dropped_bs_outage)});
  }
  t1.print(std::cout);

  // -- regional outage: every BS within radius R of the torus center --
  std::cout << "\n-- regional outage: every BS within radius R of (0.5, 0.5) "
               "dies at slot "
            << opt.warmup << " --\n";
  util::Table t2({"outage radius", "surviving k", "slot mean rate",
                  "slot min rate", "min vs baseline min", "dropped"});
  const std::vector<double> radii = smoke ? std::vector<double>{0.2}
                                          : std::vector<double>{0.1, 0.2, 0.3};
  for (double radius : radii) {
    sim::FaultPlan plan;
    sim::FaultEvent e;
    e.slot = opt.warmup;
    e.kind = sim::FaultKind::kRegional;
    e.center = {0.5, 0.5};
    e.radius = radius;
    plan.events.push_back(e);
    // The simulator resolves the disk itself; count the kill here only to
    // report surviving k (same strict-< predicate as the simulator).
    std::size_t killed = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (geom::torus_dist(net.bs_pos()[j], {0.5, 0.5}) < radius) ++killed;
    }
    if (killed == k) {
      // A disk that swallows every BS would trip the last-live-BS guard;
      // skip the row rather than crash the bench.
      std::cout << "  (radius " << radius << " kills every BS — skipped)\n";
      continue;
    }
    const auto run = run_with_plan(net, dest, opt, plan, killed);
    t2.add_row({util::fmt_double(radius, 3), std::to_string(run.surviving_k),
                util::fmt_sci(run.res.mean_flow_rate, 3),
                util::fmt_sci(run.res.min_flow_rate, 3),
                util::fmt_ratio(run.res.min_flow_rate,
                                baseline.res.min_flow_rate, 3),
                std::to_string(run.res.dropped_bs_outage)});
    csv.add_row({"regional", util::fmt_double(radius, 3),
                 std::to_string(run.surviving_k),
                 util::fmt_sci(run.res.mean_flow_rate, 6),
                 util::fmt_sci(run.res.min_flow_rate, 6),
                 util::fmt_ratio(run.res.mean_flow_rate,
                                 baseline.res.mean_flow_rate, 6), "n/a",
                 std::to_string(run.res.dropped_bs_outage)});
  }
  t2.print(std::cout);

  std::cout
      << "\nReading: the packet simulator reproduces the fluid-model story\n"
      << "dynamically. Random outages track the (1 - p) access-law line —\n"
      << "re-homing spreads the orphaned MSs across survivors, so capacity\n"
      << "degrades with surviving k. A regional outage hits the min flow\n"
      << "hardest: flows anchored in the dead disk fail over to distant\n"
      << "BSs and queue behind their members. Every run's conservation\n"
      << "identity (injected == delivered + queued + dropped) is checked\n"
      << "inside run_slot_sim; the dropped column is exactly the queues\n"
      << "lost with dying BSs.\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
