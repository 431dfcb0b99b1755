// Extension: the generalized infrastructure cost/capacity frontier.
//
// Jeong & Shin (arXiv:1402.2042) generalize the paper's BS model with
// l = n^L antennas and backhaul µ_c = n^ϕ, turning the infrastructure law
// into Θ(min(k·l, k²c, n)/n). This bench measures where that law *bends*
// on the fluid engine — forced schemes, log-log exponent fits over an
// n-sweep (scheme C: typical-resource λ; scheme B: strict solver λ) — and
// prints the capacity-per-BS-dollar frontier the new recommend API
// computes.
//
// Which scheme shows which bend is itself a finding of this reproduction:
//   * Scheme C (cellular TDMA, Theorem 9) realizes the full generalized
//     law — its cell rows are duty·min(l, pop)/(2·pop) = Θ(n^(K+L−1)) and
//     its Valiant backbone is Θ(n^(K+ϕ−1)) — so it shows both the antenna
//     lift and the backhaul bend.
//   * Scheme B's access is mobility-limited: each MS meets a BS for a
//     Θ(k/n) fraction of time (Lemma 9), a per-MS radio cap that no number
//     of BS antennas can widen. Its law bends with ϕ but is flat in L —
//     the honest scheme-B frontier under this paper's mobility model (see
//     docs/FRONTIER.md).
//
// The gates compare exponent *differences* between spot points on the
// SAME branch of the min(), which cancels that branch's finite-n bias
// (each branch carries its own sub-polynomial correction, so cross-knee
// differences do not converge at reachable n — within-branch ones do):
//   gate 1 (C, antenna lift):     e(ϕ₊, L) − e(ϕ₊, 0) ≈ L
//   gate 2 (C, antenna futility): e(ϕ₋, L) − e(ϕ₋, 0) ≈ 0 (wires starve)
//   gates 3+4 (C) and 5+6 (B) locate the backhaul knee by its one-sided
//   slopes: dλ-exponent/dϕ ≈ 1 below the knee (backbone-bound pair) and
//   ≈ 0 above it (access-bound pair, e(0.4) − e(0.1) ≈ 0) — together,
//   the closed-form bend of min(k·l, k²c, n)/n and of the paper's
//   min(k²c/n, k/n).
//
// Flags:
//   --smoke   CI-sized (smaller sweep)
//   --check   gate: |measured bend − closed form| ≤ 0.05 for each bend and
//             repeat sweeps bit-identical; exit 1 on violation
//   --n0 N    smallest sweep size (default 2048)
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "capacity/formulas.h"
#include "capacity/recommend.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/flowsim.h"
#include "sim/fluid.h"
#include "sim/sweep.h"
#include "util/artifacts.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {
using namespace manetcap;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct Spot {
  char scheme;  // 'B' or 'C'
  double phi, L;
  double measured_e = 0.0;
  double theory_e = 0.0;
  double r_squared = 0.0;
  bool fit_valid = false;
};

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv, {"smoke", "check", "n0", "threads"});
  const bool smoke = flags.get_bool("smoke", false);
  const bool check = flags.get_bool("check", false);
  const std::size_t n0 = flags.get_count("n0", 2048);
  const std::size_t count = smoke ? 4 : 5;
  const std::size_t trials = 2;
  const auto num_threads =
      flags.get_count("threads", util::ThreadPool::default_num_threads());

  // Scheme C lives in the trivial regime over a clustered layout (the
  // scheme_c golden-trace shape); scheme B runs strong-mobility and
  // cluster-free. Both share K so the bends are comparable.
  net::ScalingParams pc;
  pc.alpha = 0.75;
  pc.with_bs = true;
  pc.K = 0.6;
  pc.M = 0.2;
  pc.R = 0.3;
  net::ScalingParams pb;
  pb.alpha = 0.3;
  pb.with_bs = true;
  pb.K = 0.6;
  pb.M = 1.0;

  // Below-knee pairs (C: ϕ ∈ {−0.7, −0.4}, B: {−0.8, −0.6}) sit where
  // each scheme is firmly backbone-bound at finite n — the engines'
  // generous backbone constants shift the finite-n knee left of its
  // asymptotic ϕ = 0, and scheme B's strict λ crosses over deeper than
  // scheme C's typical λ. Above-knee pairs at ϕ ∈ {0.1, 0.4}: both
  // access-bound.
  const double kL = 0.2;
  std::vector<Spot> spots = {
      {'C', -0.7, 0.0}, {'C', -0.4, 0.0}, {'C', -0.4, kL},
      {'C', 0.1, 0.0},  {'C', 0.4, 0.0},  {'C', 0.4, kL},
      {'B', -0.8, 0.0}, {'B', -0.6, 0.0}, {'B', 0.1, 0.0},
      {'B', 0.4, 0.0}};

  std::cout << "=== extension: generalized cost frontier (fluid engine, "
               "forced schemes) ===\n"
            << "K = " << pc.K << ", scheme C at alpha = " << pc.alpha
            << " (clustered), scheme B at alpha = " << pb.alpha
            << ", n = " << n0 << "..x2^" << (count - 1) << ", " << trials
            << " trials\n\n";

  util::CsvWriter csv(
      util::artifact_path("ext_cost_frontier"),
      {"section", "scheme", "phi", "L", "n", "lambda", "measured_e",
       "theory_e", "cost_e", "per_dollar_e"});

  bool ok = true;
  auto fail = [&](const std::string& msg) {
    std::cerr << "ERROR: " << msg << "\n";
    ok = false;
  };

  // --- measured sweeps at the spot points --------------------------------
  util::Table t({"scheme", "phi", "L", "theory e", "measured e", "R^2"});
  const auto sizes = sim::geometric_sizes(n0, 2.0, count);
  for (Spot& s : spots) {
    net::ScalingParams p = s.scheme == 'C' ? pc : pb;
    p.phi = s.phi;
    p.L = s.L;
    const bool is_c = s.scheme == 'C';
    const std::size_t slots = smoke ? 600 : 1200;
    // Scheme C: the fluid typical-resource λ (mean cell rows + Valiant
    // backbone) tracks the closed form cleanly. Scheme B: the strict
    // constraint-solver λ over the squarelet-grouping rows — its backbone
    // row is load/c(n) with the load a pure function of the sampled
    // instance, so with identical seeds the ϕ-slope is exactly the c(n)
    // slope and the balls-in-bins polylog in the max edge load cancels in
    // the within-branch difference. (The measured mean flow rate is a
    // mixture with intra-squarelet flows and does not isolate a branch.)
    sim::SweepEvaluator eval = [is_c, slots](const sim::EvalContext& ctx) {
      if (is_c) {
        sim::FluidOptions opt;
        opt.seed = ctx.seed;
        opt.force = sim::Scheme::kSchemeC;
        opt.placement = net::BsPlacement::kClusterGrid;
        return sim::evaluate_capacity(ctx.params, opt).lambda_symmetric;
      }
      auto net =
          net::Network::build(ctx.params, mobility::ShapeKind::kUniformDisk,
                              net::BsPlacement::kClusteredMatched, ctx.seed);
      rng::Xoshiro256 g(sim::traffic_seed(ctx.seed));
      const auto dest = net::permutation_traffic(ctx.params.n, g);
      sim::FlowSimOptions fopt;
      fopt.scheme = sim::Scheme::kSchemeB;
      fopt.slots = slots;
      fopt.seed = ctx.seed;
      return sim::run_flow_sim(net, dest, fopt).lambda_strict;
    };
    sim::SweepOptions sopt;
    sopt.seed0 = 97;
    sopt.num_threads = num_threads;
    auto sweep = sim::run_sweep(p, sizes, trials, eval, sopt);
    if (check) {
      // Determinism gate: the sweep is seeded per cell, so a repeat must
      // reproduce every bit.
      auto again = sim::run_sweep(p, sizes, trials, eval, sopt);
      for (std::size_t i = 0; i < sweep.points.size(); ++i)
        if (!bits_equal(sweep.points[i].lambda_gm,
                        again.points[i].lambda_gm))
          fail("repeat sweep not bit-identical at phi=" +
               util::fmt_double(s.phi, 2));
    }
    s.fit_valid = sweep.fit_valid;
    s.measured_e = sweep.fit_valid ? sweep.fit.exponent : 0.0;
    s.r_squared = sweep.fit_valid ? sweep.fit.r_squared : 0.0;
    s.theory_e = capacity::infrastructure_exponent(p.K, s.phi, s.L);
    if (!sweep.fit_valid)
      fail("fit unavailable at phi=" + util::fmt_double(s.phi, 2) +
           ", L=" + util::fmt_double(s.L, 2));
    t.add_row({std::string(1, s.scheme), util::fmt_double(s.phi, 2),
               util::fmt_double(s.L, 2), util::fmt_double(s.theory_e, 3),
               s.fit_valid ? util::fmt_double(s.measured_e, 3) : "n/a",
               s.fit_valid ? util::fmt_double(s.r_squared, 3) : "n/a"});
    for (const auto& pt : sweep.points)
      csv.add_row({"sweep", std::string(1, s.scheme),
                   util::fmt_double(s.phi, 2), util::fmt_double(s.L, 2),
                   std::to_string(pt.n), util::fmt_sci(pt.lambda_gm, 6), "",
                   "", "", ""});
    csv.add_row({"fit", std::string(1, s.scheme),
                 util::fmt_double(s.phi, 2), util::fmt_double(s.L, 2), "",
                 "", util::fmt_double(s.measured_e, 4),
                 util::fmt_double(s.theory_e, 4), "", ""});
  }
  t.print(std::cout);

  // --- the bends ---------------------------------------------------------
  // spots: [0] C(-0.7,0) [1] C(-0.4,0) [2] C(-0.4,L) [3] C(0.1,0)
  //        [4] C(0.4,0)  [5] C(0.4,L)  [6] B(-0.8)   [7] B(-0.6)
  //        [8] B(0.1)    [9] B(0.4)
  struct Bend {
    const char* name;
    double measured, theory;
  };
  const auto e = [&](std::size_t i) { return spots[i].measured_e; };
  const auto te = [&](std::size_t i) { return spots[i].theory_e; };
  const std::vector<Bend> bends = {
      {"C antenna lift at phi>0", e(5) - e(4), te(5) - te(4)},
      {"C antenna futility at phi<0", e(2) - e(1), te(2) - te(1)},
      {"C backbone slope below knee", e(1) - e(0), te(1) - te(0)},
      {"C access saturation above knee", e(4) - e(3), te(4) - te(3)},
      {"B backbone slope below knee", e(7) - e(6), te(7) - te(6)},
      {"B access saturation above knee", e(9) - e(8), te(9) - te(8)},
  };
  constexpr double kTol = 0.05;
  std::cout << "\nbends (exponent differences; finite-n bias cancels):\n";
  for (const Bend& b : bends) {
    const double delta = std::abs(b.measured - b.theory);
    std::cout << "  " << b.name << ": measured "
              << util::fmt_double(b.measured, 3) << ", closed form "
              << util::fmt_double(b.theory, 3) << " (|delta| "
              << util::fmt_double(delta, 3) << ")\n";
    if (delta > kTol)
      fail(std::string(b.name) + ": |delta| " + util::fmt_double(delta, 3) +
           " > " + util::fmt_double(kTol, 2));
  }

  // --- theory-side capacity-per-BS-dollar frontier -----------------------
  std::cout << "\ncapacity per BS-dollar (exponent of n; alpha = " << pc.alpha
            << ", K = " << pc.K << "):\n";
  util::Table ft({"L \\ phi", "-0.4", "-0.2", "0.0", "0.2", "0.4"});
  const std::vector<double> fphis = {-0.4, -0.2, 0.0, 0.2, 0.4};
  const std::vector<double> fls = {0.4, 0.3, 0.2, 0.1, 0.0};
  double best_e = -1e300, best_phi = 0.0, best_l = 0.0;
  for (double L : fls) {
    std::vector<std::string> row{util::fmt_double(L, 2)};
    for (double phi : fphis) {
      const double pd =
          capacity::capacity_per_dollar_exponent(pc.alpha, pc.K, phi, L);
      row.push_back(util::fmt_double(pd, 3));
      csv.add_row(
          {"frontier", "", util::fmt_double(phi, 2), util::fmt_double(L, 2),
           "", "", "",
           util::fmt_double(capacity::infrastructure_exponent(pc.K, phi, L),
                            4),
           util::fmt_double(capacity::bs_cost_exponent(pc.K, phi, L), 4),
           util::fmt_double(pd, 4)});
      if (pd > best_e) {
        best_e = pd;
        best_phi = phi;
        best_l = L;
      }
    }
    ft.add_row(row);
  }
  ft.print(std::cout);
  std::cout << "frontier argmax: phi = " << util::fmt_double(best_phi, 2)
            << ", L = " << util::fmt_double(best_l, 2)
            << " -> capacity/dollar n^" << util::fmt_double(best_e, 3)
            << "; recommended phi* = "
            << util::fmt_double(capacity::recommended_phi(best_l, pc.K), 2)
            << ", L* = "
            << util::fmt_double(capacity::recommended_L(best_phi, pc.K), 2)
            << "\n";

  std::cout << "\nReading: in scheme C the backbone can feed the antennas\n"
            << "when phi > 0, so L lifts the measured exponent by ~L; when\n"
            << "phi < 0 the wires starve and extra antennas are pure cost.\n"
            << "That asymmetry is the bend min(K+L, K+phi, 1) predicts. In\n"
            << "scheme B the per-MS meeting rate Theta(k/n) (Lemma 9) caps\n"
            << "access regardless of L — only its backhaul branch bends.\n";

  if (check && !ok) {
    std::cerr << "ext_cost_frontier: gate FAILED\n";
    return 1;
  }
  std::cout << "\next_cost_frontier: "
            << (ok ? "all gates pass" : "violations above (not gated)")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
