// Flow-engine bench: cross-validation + speed.
//
// Part 1 — cross-validation. For each of the four golden-trace scenarios
// (one per scheme, the same instances the byte-compared traces pin), run
// the packet engine and the flow engine on the identical network + traffic
// and compare mean per-flow rates. The flow engine is a relaxation — it
// assumes perfect scheduling over the evaluator's constraint rows — so the
// ratio fluid/slots is expected near 1 for the centrally-scheduled schemes
// (B, C) and above 1 for the contention-limited ad hoc schemes (A,
// two-hop). --check gates each scenario's ratio inside a per-scheme band.
//
// Part 2 — speed. A λ(n) scaling sweep up to n = 10⁵ through the fluid
// engine (run_sweep --engine fluid equivalent), timed end to end. --check
// gates the total wall clock: the sweep that takes SlotSim hours must
// complete in seconds.
//
// Flags:
//   --smoke      sweep tops out at n = 2·10⁴ (CI-sized)
//   --check      gate ratio bands + sweep wall clock; exit 1 on violation
//   --n N        sweep top size (default 100000)
//   --budget S   sweep wall-clock ceiling in seconds (default 60)
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/artifacts.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {
using namespace manetcap;

/// Accepted fluid/slots mean-rate band per golden scenario. The bands are
/// behavioural contracts, not noise margins: a fluid rate that drifts out
/// of band means one engine's model changed (e.g. the wired-credit pacing
/// or a duty-cycle law) without the other following.
struct Band {
  double lo, hi;
};

Band band_of(sim::Scheme s) {
  switch (s) {
    case sim::Scheme::kSchemeA:
      return {0.8, 4.0};  // relaxation: fluid ≥ packet, bounded contention
    case sim::Scheme::kTwoHop:
      return {1.0, 12.0};  // random matching leaves most of the bound unused
    case sim::Scheme::kSchemeB:
      // Same credit pacing both sides, but fluid pins each flow to ONE
      // wired edge while the packet engine round-robins over the serving
      // set — at golden-trace sizes that costs up to ~2x.
      return {0.35, 2.5};
    case sim::Scheme::kSchemeC:
      return {0.25, 2.0};  // duty-cycle law is conservative vs list schedule
    case sim::Scheme::kStaticMultihop:
      break;  // no packet engine to compare against
  }
  return {0.0, 1e9};
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv,
                          {"smoke", "check", "n", "budget"});
  const bool smoke = flags.get_bool("smoke", false);
  const bool check = flags.get_bool("check", false);
  const std::size_t n_top = flags.get_count("n", smoke ? 20000 : 100000);
  const double budget_s = flags.get_double("budget", 60.0);

  util::CsvWriter csv(util::artifact_path("flowsim_speed"),
                      {"part", "case", "n", "fluid_rate", "slots_rate",
                       "ratio", "fluid_wall_s", "slots_wall_s"});
  bool ok = true;

  // --- part 1: per-scheme cross-validation on the golden scenarios --------
  std::cout << "=== flow engine vs packet engine: golden scenarios ===\n\n";
  util::Table xval({"case", "n", "fluid rate", "slots rate", "ratio",
                    "band", "speedup"});
  for (const auto& spec : sim::golden_trace_specs()) {
    const auto net =
        net::Network::build(spec.params, mobility::ShapeKind::kUniformDisk,
                            spec.placement, spec.net_seed);
    rng::Xoshiro256 g(spec.traffic_seed);
    const auto dest = net::permutation_traffic(spec.params.n, g);

    sim::SlotSimOptions sopt;
    sopt.scheme = spec.scheme;
    sopt.slots = spec.slots;
    sopt.warmup = spec.warmup;
    sopt.seed = spec.sim_seed;
    util::Stopwatch sw;
    const auto sres = sim::run_slot_sim(net, dest, sopt);
    const double slots_wall = sw.seconds();

    sim::FlowSimOptions fopt;
    fopt.scheme = spec.scheme;
    fopt.slots = spec.slots;
    fopt.warmup = spec.warmup;
    fopt.seed = spec.sim_seed;
    sw.reset();
    const auto fres = sim::run_flow_sim(net, dest, fopt);
    const double fluid_wall = sw.seconds();

    const double ratio = sres.mean_flow_rate > 0.0
                             ? fres.mean_flow_rate / sres.mean_flow_rate
                             : 0.0;
    const Band band = band_of(spec.scheme);
    const bool in_band = ratio >= band.lo && ratio <= band.hi;
    ok = ok && in_band;
    xval.add_row(
        {spec.name, std::to_string(spec.params.n),
         util::fmt_sci(fres.mean_flow_rate, 4),
         util::fmt_sci(sres.mean_flow_rate, 4),
         util::fmt_double(ratio, 3) + (in_band ? "" : "  OUT OF BAND"),
         "[" + util::fmt_double(band.lo, 2) + ", " +
             util::fmt_double(band.hi, 2) + "]",
         util::fmt_double(slots_wall / std::max(fluid_wall, 1e-9), 1) +
             "x"});
    csv.add_row({"xval", spec.name, std::to_string(spec.params.n),
                 util::fmt_sci(fres.mean_flow_rate, 6),
                 util::fmt_sci(sres.mean_flow_rate, 6),
                 util::fmt_double(ratio, 4), util::fmt_double(fluid_wall, 4),
                 util::fmt_double(slots_wall, 4)});
  }
  xval.print(std::cout);

  // --- part 2: fluid-engine scaling sweep to n_top ------------------------
  std::cout << "\n=== fluid-engine scaling sweep to n = " << n_top
            << " ===\n\n";
  net::ScalingParams base;
  base.alpha = 0.35;
  base.with_bs = true;
  base.K = 0.7;
  base.M = 1.0;
  const auto sizes = sim::geometric_sizes(n_top / 16, 2.0, 5);
  sim::EngineOptions eopt;
  eopt.slots = 2000;
  eopt.warmup = 200;
  sim::SweepOptions swopt;
  swopt.seed0 = 1;
  swopt.num_threads = 0;  // all cores; bit-identical for any value
  util::Stopwatch sweep_sw;
  const auto sweep = sim::run_sweep(
      base, sizes, 2, sim::make_engine_evaluator(sim::EngineKind::kFluid,
                                                 eopt),
      swopt);
  const double sweep_wall = sweep_sw.seconds();

  util::Table st({"n", "lambda (gm)", "min", "max"});
  for (const auto& pt : sweep.points) {
    st.add_row({std::to_string(pt.n), util::fmt_sci(pt.lambda_gm, 4),
                util::fmt_sci(pt.lambda_min, 4),
                util::fmt_sci(pt.lambda_max, 4)});
    csv.add_row({"sweep", "strong", std::to_string(pt.n),
                 util::fmt_sci(pt.lambda_gm, 6), "", "", "", ""});
  }
  st.print(std::cout);
  if (sweep.fit_valid)
    std::cout << "fitted exponent: "
              << util::fmt_double(sweep.fit.exponent, 4) << " (R^2 = "
              << util::fmt_double(sweep.fit.r_squared, 4) << ")\n";
  std::cout << "sweep wall clock: " << util::fmt_double(sweep_wall, 2)
            << " s (" << sizes.size() << " sizes x 2 trials, budget "
            << util::fmt_double(budget_s, 0) << " s)\n";
  csv.add_row({"sweep", "wall_clock", std::to_string(n_top), "", "", "",
               util::fmt_double(sweep_wall, 3), ""});

  if (check && sweep_wall > budget_s) {
    std::cerr << "ERROR: fluid sweep took " << util::fmt_double(sweep_wall, 1)
              << " s > budget " << util::fmt_double(budget_s, 0) << " s\n";
    ok = false;
  }
  if (check && !ok) {
    std::cerr << "flowsim_speed: gate FAILED\n";
    return 1;
  }
  std::cout << "\nflowsim_speed: " << (ok ? "all gates pass" : "ratio out of "
                                                               "band (not "
                                                               "gated)")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
