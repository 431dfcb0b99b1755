// Backbone-bandwidth ablation: where does the min(k²c/n, k/n) crossover
// sit? The paper's prose says ϕ = 1, its own formula and Figure 3 say
// ϕ = 0 (see DESIGN.md). We sweep ϕ and let the measurement decide: λ
// should grow with ϕ while the backbone binds and saturate once the access
// phase takes over.
#include <cmath>
#include <iostream>

#include "capacity/formulas.h"
#include "net/traffic.h"
#include "routing/scheme_b.h"
#include "rng/rng.h"
#include "util/artifacts.h"
#include "util/flags.h"
#include "util/table.h"

int run_program(int argc, char** argv) {
  using namespace manetcap;
  util::Flags(argc, argv, {});  // takes no flags; rejects unknown ones
  std::cout << "=== phi ablation: the wired/wireless balance point ===\n"
            << "n = 8192, alpha = 0.3, K = 0.7, scheme B; mu_c = k*c = "
               "n^phi\n\n";

  net::ScalingParams p;
  p.n = 8192;
  p.alpha = 0.3;
  p.with_bs = true;
  p.K = 0.7;
  p.M = 1.0;

  auto net_builder = [&p](double phi, std::uint64_t seed) {
    net::ScalingParams q = p;
    q.phi = phi;
    return net::Network::build(q, mobility::ShapeKind::kUniformDisk,
                               net::BsPlacement::kClusteredMatched, seed);
  };

  util::Table t({"phi", "theory e(infra)", "lambda", "bottleneck",
                 "lambda / lambda(phi=0)"});
  util::CsvWriter csv(util::artifact_path("ablation_phi"),
                      {"phi", "lambda", "bottleneck"});
  double lambda_at_zero = 0.0;
  std::vector<std::pair<double, double>> series;
  for (double phi : {-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0}) {
    auto net = net_builder(phi, 83);
    rng::Xoshiro256 g(89);
    auto dest = net::permutation_traffic(p.n, g);
    routing::SchemeB b;
    auto r = b.evaluate(net, dest);
    if (phi == 0.0) lambda_at_zero = r.throughput.lambda;
    series.push_back({phi, r.throughput.lambda});
    csv.add_row({util::fmt_double(phi, 4),
                 util::fmt_sci(r.throughput.lambda, 6),
                 to_string(r.throughput.bottleneck)});
    t.add_row({util::fmt_double(phi, 3),
               util::fmt_double(
                   capacity::infrastructure_exponent(p.K, phi, 0.0), 3),
               util::fmt_sci(r.throughput.lambda, 3),
               to_string(r.throughput.bottleneck),
               lambda_at_zero > 0.0
                   ? util::fmt_double(r.throughput.lambda / lambda_at_zero, 3)
                   : "-"});
  }
  t.print(std::cout);

  // Locate the measured crossover: the last phi where growing phi still
  // raised lambda by more than 10%.
  double crossover = series.front().first;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (series[i].second > 1.10 * series[i - 1].second)
      crossover = series[i].first;
  }
  std::cout << "\nmeasured saturation point at n = 8192: phi ~ "
            << util::fmt_double(crossover, 2) << "\n";

  // The finite-n crossover sits below 0 by a constant-ratio offset
  // phi*(n) = ln(C_access/C_backbone)/ln(n) → 0. Show the convergence:
  // evaluate both phase bounds at phi = 0 and solve n^{phi*} · bound_II =
  // bound_I for phi*.
  std::cout << "\nconvergence of the crossover toward phi = 0:\n";
  util::Table conv({"n", "access bound", "backbone bound (phi=0)",
                    "interpolated phi*"});
  for (std::size_t n : {2048u, 8192u, 32768u, 131072u, 524288u}) {
    net::ScalingParams q = p;
    q.n = n;
    q.phi = 0.0;
    auto net = net::Network::build(q, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kClusteredMatched, 83);
    rng::Xoshiro256 g(89);
    auto dest = net::permutation_traffic(q.n, g);
    routing::SchemeB b;
    auto r = b.evaluate(net, dest);
    const double acc = r.throughput.lambda_access;
    const double bb = r.throughput.lambda_backbone;
    const double phi_star =
        std::log(acc / bb) / std::log(static_cast<double>(n));
    conv.add_row({std::to_string(n), util::fmt_sci(acc, 2),
                  util::fmt_sci(bb, 2), util::fmt_double(phi_star, 3)});
  }
  conv.print(std::cout);
  std::cout << "\nphi* rises toward 0 as n grows — the balance point is\n"
            << "phi = 0 (keep c(n) ~ 1/k, i.e. mu_c constant), not the\n"
            << "paper's prose claim of phi = 1 (see DESIGN.md).\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
