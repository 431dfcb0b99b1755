// Table I reproduction: per-node capacity scaling law in every regime.
//
// For each of the paper's five rows we sweep n geometrically, measure the
// fluid per-node capacity λ(n) of the regime's optimal scheme, and fit the
// scaling exponent. The paper's claim is the Θ(n^e) order — the fitted
// slope should land near the theoretical e (log factors and finite-n
// effects perturb it by ~0.1).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <mutex>

#include "analysis/loglog_fit.h"
#include "capacity/formulas.h"
#include "capacity/regimes.h"
#include "net/traffic.h"
#include "routing/static_multihop.h"
#include "rng/rng.h"
#include "sim/fluid.h"
#include "sim/sweep.h"
#include "util/artifacts.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace manetcap;

struct Row {
  const char* name;
  const char* condition;
  net::ScalingParams params;
  net::BsPlacement placement = net::BsPlacement::kClusteredMatched;
  std::vector<std::size_t> sizes;  // empty → default geometric sweep
};

/// Sizes at which scheme A's squarelet grid divides evenly: the grid side
/// is ⌊1.25·n^α⌋, so n = (g/1.25)^{1/α} keeps the effective cell-side
/// factor exactly 0.8 and removes tessellation-rounding wobble from the
/// scaling fit.
std::vector<std::size_t> grid_aligned_sizes(double alpha,
                                            const std::vector<int>& grids) {
  std::vector<std::size_t> sizes;
  for (int g : grids) {
    const double f = static_cast<double>(g) / 1.25;
    sizes.push_back(
        static_cast<std::size_t>(std::ceil(std::pow(f, 1.0 / alpha))) + 1);
  }
  return sizes;
}

net::ScalingParams make(double alpha, bool with_bs, double K, double M,
                        double R, double phi) {
  net::ScalingParams p;
  p.alpha = alpha;
  p.with_bs = with_bs;
  p.K = K;
  p.M = M;
  p.R = R;
  p.phi = phi;
  return p;
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv, {"threads"});
  const auto num_threads =
      flags.get_count("threads", util::ThreadPool::default_num_threads());
  std::cout << "=== Table I: capacity scaling in every mobility regime ===\n"
            << "lambda(n) measured by the fluid evaluator with the regime's\n"
            << "optimal scheme; slope of log lambda vs log n compared with\n"
            << "the paper's exponent (Theorems 3, 5, 7, 9; Corollary 3).\n"
            << "sweep threads: " << num_threads
            << " (results are thread-count independent)\n\n";

  // Parameter points sit deep inside each regime so that the asymptotic
  // law is visible at n ≤ 64k (boundaries converge only polylog-slowly).
  const auto aligned = grid_aligned_sizes(0.25, {10, 12, 14, 16, 18, 20});
  const std::vector<Row> rows = {
      {"strong, no BS", "f*sqrt(gamma)=o(1)",
       make(0.25, false, 0.0, 1.0, 0.0, 0.0),
       net::BsPlacement::kUniform, aligned},
      {"strong, with BS", "f*sqrt(gamma)=o(1)",
       make(0.25, true, 0.85, 1.0, 0.0, 0.0),
       net::BsPlacement::kClusteredMatched, aligned},
      // The clustered no-BS law needs m = n^M in the hundreds before the
      // Θ(1/log m) duty cycles localize (the cluster graph stops being a
      // clique); the evaluation is cheap without BSs, so sweep much larger
      // n with tight range constants (factor 1.2, Δ = 0.25).
      {"weak/trivial, no BS", "f*sqrt(gamma)=omega(1)",
       make(0.45, false, 0.0, 0.45, 0.35, 0.0),
       net::BsPlacement::kUniform,
       {131072, 262144, 524288, 1048576, 2097152, 4194304}},
      {"weak, with BS", "f*sqrt(gamma~)=o(1)",
       make(0.45, true, 0.75, 0.45, 0.35, 0.0),
       net::BsPlacement::kClusteredMatched, {}},
      {"trivial, with BS", "f*sqrt(gamma~)=omega(log(n/m))",
       make(0.75, true, 0.6, 0.2, 0.3, 0.0),
       net::BsPlacement::kClusterGrid, {}},
  };

  util::Table table({"regime", "condition", "paper capacity", "theory e",
                     "measured e", "stderr", "R^2", "strict e", "verdict"});

  const auto sizes = sim::geometric_sizes(2048, 2.0, 5);  // 2048 .. 32768
  const std::size_t trials = 3;

  util::CsvWriter csv(util::artifact_path("table1_lambda_vs_n"),
                      {"regime", "n", "lambda_gm", "lambda_min",
                       "lambda_max", "theory_exponent"});

  for (const auto& row : rows) {
    util::Stopwatch sw;
    const auto law = capacity::capacity_law(row.params);
    // Primary fit: the symmetric (typical-resource) capacity — the strict
    // worst-case λ carries a slowly-vanishing extreme-value bias at these
    // sizes (its slope is reported alongside for reference). Trials run
    // concurrently, so strict samples are collected under a mutex and
    // sorted into a schedule-independent order before fitting.
    struct StrictSample {
      double n;
      std::uint64_t seed;
      double lambda;
    };
    std::mutex strict_mu;
    std::vector<StrictSample> strict_samples;
    const bool clustered_no_bs = !row.params.with_bs &&
                                 row.params.M < 1.0;
    sim::SweepEvaluator eval = [&row, &strict_mu, &strict_samples,
                                clustered_no_bs](const sim::EvalContext& ctx) {
      const net::ScalingParams& p = ctx.params;
      const std::uint64_t seed = ctx.seed;
      double strict_lambda = 0.0, symmetric = 0.0;
      if (clustered_no_bs) {
        // Direct static-multihop evaluation with tight range constants —
        // the oversized defaults keep guard zones saturated at these m.
        auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                       net::BsPlacement::kUniform, seed);
        rng::Xoshiro256 g(seed * 69069u + 5);
        auto dest = net::permutation_traffic(p.n, g);
        routing::StaticMultihop sm(/*range_factor=*/1.2, /*delta=*/0.25);
        auto r = sm.evaluate(net, dest);
        strict_lambda = r.throughput.lambda;
        symmetric = r.lambda_symmetric;
      } else {
        sim::FluidOptions opt;
        opt.seed = seed;
        opt.placement = row.placement;
        auto out = sim::evaluate_capacity(p, opt);
        strict_lambda = out.lambda;
        symmetric = out.lambda_symmetric;
      }
      if (strict_lambda > 0.0) {
        std::lock_guard<std::mutex> lock(strict_mu);
        strict_samples.push_back(
            {static_cast<double>(p.n), seed, strict_lambda});
      }
      return symmetric;
    };
    sim::SweepOptions sopt;
    sopt.num_threads = num_threads;
    sopt.seed0 = 2026;
    auto sweep = sim::run_sweep(row.params,
                                row.sizes.empty() ? sizes : row.sizes,
                                trials, eval, sopt);
    std::sort(strict_samples.begin(), strict_samples.end(),
              [](const StrictSample& a, const StrictSample& b) {
                return a.n != b.n ? a.n < b.n : a.seed < b.seed;
              });

    for (const auto& point : sweep.points) {
      csv.add_row({row.name, std::to_string(point.n),
                   util::fmt_sci(point.lambda_gm, 6),
                   util::fmt_sci(point.lambda_min, 6),
                   util::fmt_sci(point.lambda_max, 6),
                   util::fmt_double(law.exponent, 4)});
    }

    std::string measured = "n/a", err = "-", r2 = "-", verdict = "FAIL";
    if (sweep.fit_valid) {
      measured = util::fmt_double(sweep.fit.exponent, 3);
      err = util::fmt_double(sweep.fit.stderr_, 2);
      r2 = util::fmt_double(sweep.fit.r_squared, 3);
      const double gap = std::abs(sweep.fit.exponent - law.exponent);
      verdict = gap < 0.12 ? "match" : (gap < 0.25 ? "close" : "off");
    }
    std::string strict = "n/a";
    if (strict_samples.size() >= 3) {
      std::vector<double> strict_n, strict_lambda;
      strict_n.reserve(strict_samples.size());
      strict_lambda.reserve(strict_samples.size());
      for (const auto& s : strict_samples) {
        strict_n.push_back(s.n);
        strict_lambda.push_back(s.lambda);
      }
      auto sf = analysis::fit_power_law(strict_n, strict_lambda);
      strict = util::fmt_double(sf.exponent, 3);
    }
    table.add_row({row.name, row.condition, law.expression,
                   util::fmt_double(law.exponent, 3), measured, err, r2,
                   strict, verdict});
    std::cerr << "[table1] " << row.name << " done in "
              << util::fmt_double(sw.seconds(), 3) << "s\n";
  }

  table.print(std::cout);

  std::cout << "\nOptimal transmission ranges (Table I, right column):\n";
  util::Table rt({"regime", "paper R_T", "exponent of R_T"});
  for (const auto& row : rows) {
    const auto law = capacity::capacity_law(row.params);
    rt.add_row({row.name, law.rt_expression,
                util::fmt_double(law.rt_exponent, 3)});
  }
  rt.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
