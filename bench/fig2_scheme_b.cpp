// Figure 2 reproduction: anatomy of optimal routing scheme B.
//
// The paper's figure illustrates the three phases (MS→BSs, wired BS↔BS,
// BSs→MS). We instrument a sampled instance and print, for several wired
// bandwidth exponents ϕ, the sustainable rate of each phase and which one
// binds — the quantitative content behind the picture.
#include <cstdio>
#include <iostream>
#include <vector>

#include "geom/tessellation.h"
#include "net/traffic.h"
#include "routing/scheme_b.h"
#include "rng/rng.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace manetcap;

/// Renders the paper's Figure 2 picture for a sampled instance: the 4×4
/// squarelet grid with per-cell MS/BS counts, and one flow's three phases.
void draw_instance() {
  net::ScalingParams p;
  p.n = 512;
  p.alpha = 0.2;
  p.with_bs = true;
  p.K = 0.7;
  p.M = 1.0;
  p.phi = 0.0;
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 net::BsPlacement::kClusteredMatched, 19);
  geom::SquareTessellation tess(4);
  std::vector<int> ms_count(16, 0), bs_count(16, 0);
  for (const auto& x : net.ms_home())
    ++ms_count[tess.index_of(tess.cell_of(x))];
  for (const auto& y : net.bs_pos())
    ++bs_count[tess.index_of(tess.cell_of(y))];

  std::cout << "--- a sampled instance (n = 512, k = " << net.num_bs()
            << "), per-squarelet [MS | BS] ---\n";
  for (int row = 3; row >= 0; --row) {
    std::cout << "  ";
    for (int col = 0; col < 4; ++col) {
      const int idx = tess.index_of({row, col});
      std::printf("[%3d|%2d] ", ms_count[idx], bs_count[idx]);
    }
    std::cout << '\n';
  }

  rng::Xoshiro256 g(23);
  auto dest = net::permutation_traffic(p.n, g);
  // Pick a flow whose endpoints sit in different squarelets.
  std::uint32_t s = 0;
  while (tess.cell_of(net.ms_home()[s]) ==
         tess.cell_of(net.ms_home()[dest[s]]))
    ++s;
  const auto cs = tess.cell_of(net.ms_home()[s]);
  const auto cd = tess.cell_of(net.ms_home()[dest[s]]);
  std::cout << "\nsample flow MS" << s << " -> MS" << dest[s] << ":\n"
            << "  phase I   : MS" << s << " uplinks to the "
            << bs_count[tess.index_of(cs)] << " BSs of squarelet ("
            << cs.row << "," << cs.col << ")\n"
            << "  phase II  : those BSs wire the data to the "
            << bs_count[tess.index_of(cd)] << " BSs of squarelet ("
            << cd.row << "," << cd.col << ") — "
            << bs_count[tess.index_of(cs)] * bs_count[tess.index_of(cd)]
            << " parallel edges of capacity c(n)\n"
            << "  phase III : the destination squarelet's BSs deliver to MS"
            << dest[s] << "\n\n";
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv, {"threads"});
  const auto num_threads =
      flags.get_count("threads", util::ThreadPool::default_num_threads());
  std::cout << "=== Figure 2: optimal routing scheme B, phase by phase ===\n"
            << "n = 8192, K = 0.7 (k = n^0.7), squarelet grouping; the\n"
            << "wired backbone carries mu_c = k*c = n^phi per BS.\n\n";
  draw_instance();

  util::Table t({"phi", "lambda", "phase I+III bound", "phase II bound",
                 "bottleneck", "min access", "mean access", "groups",
                 "uncovered MS"});

  // Each phi row samples and evaluates its own instance — independent
  // tasks writing pre-sized slots; rows are printed in phi order below.
  const std::vector<double> phis = {-1.0, -0.5, -0.25, 0.0, 0.5, 1.0};
  std::vector<routing::SchemeBResult> results(phis.size());
  const auto evaluate_row = [&phis, &results](std::size_t i) {
    net::ScalingParams p;
    p.n = 8192;
    p.alpha = 0.3;
    p.with_bs = true;
    p.K = 0.7;
    p.M = 1.0;
    p.phi = phis[i];

    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kClusteredMatched, 21);
    rng::Xoshiro256 g(23);
    auto dest = net::permutation_traffic(p.n, g);
    routing::SchemeB b;
    results[i] = b.evaluate(net, dest);
  };
  util::ThreadPool::shared().parallel_for(phis.size(), evaluate_row,
                                          num_threads);

  for (std::size_t i = 0; i < phis.size(); ++i) {
    const auto& r = results[i];
    auto bound = [](double v) {
      return std::isinf(v) ? std::string("-") : util::fmt_sci(v, 2);
    };
    t.add_row({util::fmt_double(phis[i], 3),
               util::fmt_sci(r.throughput.lambda, 3),
               bound(r.throughput.lambda_access),
               bound(r.throughput.lambda_backbone),
               to_string(r.throughput.bottleneck),
               util::fmt_sci(r.min_access_rate, 2),
               util::fmt_sci(r.mean_access_rate, 2),
               std::to_string(r.num_groups),
               std::to_string(r.unreachable_ms)});
  }
  t.print(std::cout);

  std::cout
      << "\nReading: for phi < 0 the wired phase II binds (lambda tracks\n"
      << "k^2 c/n and grows with phi); at phi >= 0 the wireless access\n"
      << "phase binds and lambda saturates at Theta(k/n) — the min() in\n"
      << "Theorems 5/7/9 and the phi = 0 balance point.\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
