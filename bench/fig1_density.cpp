// Figure 1 reproduction: local density ρ(X) for a non-uniformly dense
// network (left panel of the paper's figure) vs a uniformly dense one
// (right panel). We print ASCII density maps plus the min/max/contrast
// statistics that Definition 8 bounds.
#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/density.h"
#include "capacity/regimes.h"
#include "net/network.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace manetcap;

void render_map(const analysis::DensityField& field, std::ostream& os) {
  // 10-level shading by value relative to the field mean.
  static const char* kShades = " .:-=+*#%@";
  for (std::size_t row = field.grid; row-- > 0;) {
    os << "  ";
    for (std::size_t col = 0; col < field.grid; ++col) {
      const double v = field.at(row, col);
      const double rel = field.max > 0.0 ? v / field.max : 0.0;
      int level = static_cast<int>(rel * 9.999);
      os << kShades[level < 0 ? 0 : (level > 9 ? 9 : level)];
    }
    os << '\n';
  }
}

struct Panel {
  const char* title;
  net::ScalingParams params;
  std::uint64_t seed;
  analysis::DensityField field;  // filled by compute
};

void render_panel(const Panel& panel, util::Table* summary) {
  const auto& p = panel.params;
  std::cout << "--- " << panel.title << " ---\n"
            << "    " << p.describe() << "\n"
            << "    regime: " << to_string(capacity::classify(p))
            << ", f*sqrt(gamma) = "
            << util::fmt_double(capacity::f_sqrt_gamma(p), 3) << "\n";
  render_map(panel.field, std::cout);
  const bool uniform = analysis::is_uniformly_dense(panel.field, 0.05, 50.0);
  std::cout << '\n';
  summary->add_row(
      {panel.title, util::fmt_double(panel.field.min, 3),
       util::fmt_double(panel.field.max, 3),
       util::fmt_double(panel.field.mean, 3),
       std::isinf(panel.field.contrast())
           ? "inf"
           : util::fmt_double(panel.field.contrast(), 3),
       uniform ? "yes" : "no"});
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv, {"threads"});
  const auto num_threads =
      flags.get_count("threads", util::ThreadPool::default_num_threads());
  std::cout << "=== Figure 1: uniformly dense vs non-uniformly dense ===\n"
            << "rho(X) per Definition 7 on a 32x32 probe grid ('@' = max).\n\n";

  util::Table summary(
      {"panel", "min rho", "max rho", "mean rho", "contrast", "unif dense"});

  // Left panel: clustered home-points, mobility too weak to smooth them.
  net::ScalingParams left;
  left.n = 16384;
  left.alpha = 0.45;
  left.with_bs = false;
  left.M = 0.25;
  left.R = 0.35;

  // Right panel: same population, strong mobility (Theorem 1 condition).
  net::ScalingParams right;
  right.n = 16384;
  right.alpha = 0.25;
  right.with_bs = false;
  right.M = 1.0;

  // Clustered home-points *with* strong mobility also smooth out —
  // mobility overcomes clustering (Remark 5).
  net::ScalingParams smoothed;
  smoothed.n = 16384;
  smoothed.alpha = 0.1;
  smoothed.with_bs = false;
  smoothed.M = 0.25;
  smoothed.R = 0.1;

  std::vector<Panel> panels = {
      {"non-uniformly dense (weak mobility)", left, 11, {}},
      {"uniformly dense (strong mobility)", right, 12, {}},
      {"clustered but smoothed by mobility", smoothed, 13, {}},
  };

  // Each panel samples its own instance — independent tasks; the rendering
  // below stays serial, so output order is fixed for any thread count.
  const auto sample_panel = [&panels](std::size_t i) {
    auto& panel = panels[i];
    const auto& p = panel.params;
    auto net = net::Network::build(
        p, mobility::ShapeKind::kUniformDisk,
        p.with_bs ? net::BsPlacement::kClusteredMatched
                  : net::BsPlacement::kUniform,
        panel.seed);
    panel.field = analysis::compute_density_field(
        net.ms_home(), net.bs_pos(), net.shape(), p.f(), 32);
  };
  util::ThreadPool::shared().parallel_for(panels.size(), sample_panel,
                                          num_threads);

  for (const auto& panel : panels) render_panel(panel, &summary);

  summary.print(std::cout);
  std::cout << "\nDefinition 8 expects bounded contrast in the uniformly\n"
            << "dense cases and divergent contrast otherwise.\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
