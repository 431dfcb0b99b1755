// Extension: traffic scenarios beyond the uniform permutation.
//
// The capacity laws are proved for uniform-permutation CBR traffic; this
// bench asks how far they carry when the workload is skewed. For each
// scheme, run the fluid engine under three scenarios from the pluggable
// traffic layer (net/traffic.h):
//
//   cbr       perm                       — the paper's workload (baseline)
//   hotspot   hotspot:0.15,0.7           — 70% of flows target 15% of MSs
//   bursty    hotspot:0.15,0.7;onoff:50,150 — the same skew, 25% duty cycle
//
// Hotspot skew concentrates destination load: schemes whose bottleneck is
// per-node access (B, C downlink) lose typical rate as the hot nodes
// saturate, while relay-limited schemes barely notice. On-off thinning
// cuts *offered* load fourfold, so injected volume must drop strictly
// below the CBR run — the audit gate below turns that law into a check.
//
// Flags:
//   --smoke   CI-sized (n = 1024, shorter horizon)
//   --check   gate: audits close, repeat runs are bit-identical, and each
//             scheme's bursty injected volume < its CBR injected volume;
//             exit 1 on violation
//   --n N     network size (default 4096)
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/engine.h"
#include "util/artifacts.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {
using namespace manetcap;

struct Scenario {
  const char* name;
  const char* spec;  // empty = default permutation CBR
};

struct SchemeCase {
  const char* name;
  sim::Scheme scheme;
  net::BsPlacement placement;
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv, {"smoke", "check", "n"});
  const bool smoke = flags.get_bool("smoke", false);
  const bool check = flags.get_bool("check", false);
  const std::size_t n = flags.get_count("n", smoke ? 1024 : 4096);
  const std::size_t slots = smoke ? 1000 : 2000;
  const std::size_t warmup = slots / 10;

  net::ScalingParams p;
  p.n = n;
  p.alpha = 0.35;
  p.with_bs = true;
  p.K = 0.7;
  p.M = 1.0;
  // Scheme C lives in the trivial regime over a clustered layout (same
  // shape as the scheme_c golden trace); everything else shares `p`.
  net::ScalingParams pc = p;
  pc.alpha = 0.75;
  pc.K = 0.6;
  pc.M = 0.2;
  pc.R = 0.3;

  const Scenario scenarios[] = {
      {"cbr", ""},
      {"hotspot", "hotspot:0.15,0.7"},
      {"bursty", "hotspot:0.15,0.7;onoff:50,150"},
  };
  const SchemeCase schemes[] = {
      {"scheme-B", sim::Scheme::kSchemeB,
       net::BsPlacement::kClusteredMatched},
      {"scheme-C", sim::Scheme::kSchemeC, net::BsPlacement::kClusterGrid},
      {"two-hop", sim::Scheme::kTwoHop,
       net::BsPlacement::kClusteredMatched},
      {"static-multihop", sim::Scheme::kStaticMultihop,
       net::BsPlacement::kClusteredMatched},
  };

  std::cout << "=== extension: traffic scenarios vs schemes (fluid engine) "
               "===\n"
            << "n = " << n << ", alpha = " << p.alpha << ", K = " << p.K
            << ", " << slots << " slots\n\n";

  util::CsvWriter csv(util::artifact_path("ext_traffic_models"),
                      {"scheme", "traffic", "n", "mean_rate", "p10_rate",
                       "injected", "delivered", "queued", "dropped",
                       "wall_s"});
  util::Table t({"scheme", "traffic", "mean rate", "p10 rate", "injected",
                 "delivered", "vs cbr"});
  bool ok = true;
  auto fail = [&](const std::string& msg) {
    std::cerr << "ERROR: " << msg << "\n";
    ok = false;
  };

  for (const SchemeCase& sc : schemes) {
    const bool is_c = sc.scheme == sim::Scheme::kSchemeC;
    const auto net =
        net::Network::build(is_c ? pc : p, mobility::ShapeKind::kUniformDisk,
                            sc.placement, /*seed=*/701);
    sim::FlowSimOptions opt;
    opt.scheme = sc.scheme;
    opt.slots = slots;
    opt.warmup = warmup;
    opt.seed = 701;

    std::uint64_t cbr_injected = 0;
    double cbr_rate = 0.0;
    for (const Scenario& s : scenarios) {
      net::TrafficSpec tspec;
      if (*s.spec != '\0') tspec = net::TrafficSpec::parse(s.spec);
      rng::Xoshiro256 g(sim::traffic_seed(opt.seed));
      const auto demands = net::make_traffic_model(tspec)->draw(n, g);

      util::Stopwatch sw;
      const auto r = sim::run_flow_sim(net, demands, opt);
      const double wall = sw.seconds();

      if (r.injected !=
          r.delivered_lifetime + r.queued_end + r.dropped)
        fail(std::string(sc.name) + "/" + s.name +
             ": audit does not close");
      if (std::strcmp(s.name, "cbr") == 0) {
        cbr_injected = r.injected;
        cbr_rate = r.mean_flow_rate;
        // Determinism gate: the fluid engine and the demand draw are both
        // seeded, so a repeat run must reproduce every bit.
        rng::Xoshiro256 g2(sim::traffic_seed(opt.seed));
        const auto demands2 = net::make_traffic_model(tspec)->draw(n, g2);
        const auto r2 = sim::run_flow_sim(net, demands2, opt);
        if (!bits_equal(r2.mean_flow_rate, r.mean_flow_rate) ||
            r2.injected != r.injected)
          fail(std::string(sc.name) + ": repeat run not bit-identical");
      }
      if (std::strcmp(s.name, "bursty") == 0 && r.injected >= cbr_injected)
        fail(std::string(sc.name) +
             ": bursty injected >= CBR injected (duty thinning lost)");

      t.add_row({sc.name, s.name, util::fmt_sci(r.mean_flow_rate, 4),
                 util::fmt_sci(r.p10_flow_rate, 4),
                 std::to_string(r.injected),
                 std::to_string(r.delivered_lifetime),
                 cbr_rate > 0.0
                     ? util::fmt_double(r.mean_flow_rate / cbr_rate, 3)
                     : "-"});
      csv.add_row({sc.name, s.name, std::to_string(n),
                   util::fmt_sci(r.mean_flow_rate, 6),
                   util::fmt_sci(r.p10_flow_rate, 6),
                   std::to_string(r.injected),
                   std::to_string(r.delivered_lifetime),
                   std::to_string(r.queued_end), std::to_string(r.dropped),
                   util::fmt_double(wall, 4)});
    }
  }
  t.print(std::cout);

  std::cout << "\nReading: hotspot skew moves destination load onto a few\n"
            << "nodes — access-limited schemes pay in the p10 rate while\n"
            << "relay-limited ones shrug. The bursty row injects a quarter\n"
            << "of the CBR volume (duty 50/(50+150)); its *delivered* rate\n"
            << "drops by roughly the same factor, which is the fluid\n"
            << "rendering of thinning, not a capacity change.\n";

  if (check && !ok) {
    std::cerr << "ext_traffic_models: gate FAILED\n";
    return 1;
  }
  std::cout << "\next_traffic_models: "
            << (ok ? "all gates pass" : "violations above (not gated)")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
