// manetcap_cli — command-line front end to the library.
//
//   manetcap_cli classify  --alpha 0.45 --M 0.3 --R 0.4
//   manetcap_cli capacity  --n 8192 --alpha 0.3 --K 0.7 --phi 0
//   manetcap_cli sweep     --alpha 0.3 --K 0.7 --n0 2048 --count 4
//   manetcap_cli simulate  --n 512 --scheme B --slots 2000
//   manetcap_cli phase     --phi -0.5
//   manetcap_cli phase     --panel frontier --alpha 0.3 --K 0.7
//   manetcap_cli recommend --alpha 0.3 --K 0.7 --target -0.25
//
// Every subcommand prints a self-contained report; `--help` lists flags.
#include <cstring>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "capacity/formulas.h"
#include "capacity/phase_diagram.h"
#include "capacity/recommend.h"
#include "capacity/regimes.h"
#include "net/network.h"
#include "net/traffic.h"
#include "phy/interference.h"
#include "rng/rng.h"
#include "sim/engine.h"
#include "sim/fluid.h"
#include "sim/flowsim.h"
#include "sim/slotsim.h"
#include "sim/sweep.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace manetcap;

// ------------------------------------------------------------ flag specs --
// One shared table describes every flag once (value placeholder + help
// line); each subcommand lists the names it accepts. Per-subcommand --help
// and the Flags known-set are both generated from here, so the parser and
// the documentation cannot drift apart.
struct FlagSpec {
  const char* name;
  const char* arg;  // value placeholder; "" for boolean flags
  const char* help;
};

constexpr FlagSpec kFlagSpecs[] = {
    {"n", "N", "number of mobile stations (default 4096)"},
    {"alpha", "A", "mobility exponent: f(n) = n^alpha (default 0.3)"},
    {"K", "K", "base-station exponent: k = n^K (default 0.7)"},
    {"phi", "P", "wired-bandwidth exponent: c = n^phi / k (default 0)"},
    {"L", "L",
     "antennas-per-BS exponent: l = n^L (default 0 = the paper's "
     "single-antenna BS; L > 0 needs --engine fluid)"},
    {"M", "M", "cluster count exponent: m = n^M (default 1 = cluster-free)"},
    {"R", "R", "cluster radius exponent (default 0)"},
    {"no-bs", "", "pure ad hoc network (no base stations)"},
    {"placement", "matched|uniform|grid|cluster-grid",
     "base-station placement (default matched)"},
    {"seed", "S", "RNG seed (default 1)"},
    {"n0", "N0", "smallest sweep size (default 2048)"},
    {"count", "C", "number of geometrically spaced sizes (default 4)"},
    {"ratio", "R", "geometric ratio between sizes (default 2.0)"},
    {"trials", "T", "trials per size (default 2)"},
    {"threads", "T",
     "sweep concurrency cap; 0 = all cores, bit-identical for any value"},
    {"scheme", "A|B|C|twohop|static",
     "forwarding scheme (default A; static needs --engine fluid)"},
    {"engine", "fluid|slots|auto",
     "measurement engine: flow-level, packet-level, or size-based "
     "crossover (sweep default fluid, simulate default slots)"},
    {"slots", "S", "simulated slots (default 2000)"},
    {"warmup", "W", "warmup slots excluded from rates (default slots/10)"},
    {"mobility", "iid|walk|pull|brownian", "mobility process (default iid)"},
    {"metrics-out", "NAME",
     "write NAME_counters.csv + NAME_series.csv under ./bench_csv"},
    {"faults", "SPEC",
     "fault/churn plan: 'down@SLOT:BS | up@SLOT:BS | wire@SLOT:A-BxSCALE | "
     "region@SLOT:X,Y,R | leave@SLOT:MS | join@SLOT:MS | shift@SLOT:REGIME'"
     ", ';'-separated (BS faults need schemes B/C; the fluid engine takes "
     "churn only)"},
    {"traffic", "SPEC",
     "traffic scenario (default perm): 'perm | hotspot:FRAC,MASS | "
     "pareto:ALPHA,MEAN | onoff:ON,OFF | start:MAX', ';'-separated "
     "(docs/TRAFFIC.md)"},
    {"shards", "S",
     "spatial stripes for the parallel slot phases; bit-identical for any "
     "value (default 1 = serial)"},
    {"phy", "protocol|sinr|sinr-csma",
     "interference backend (default protocol; docs/PHY.md). Scheme C "
     "always runs under protocol"},
    {"path-loss", "A",
     "SINR path-loss exponent alpha (> 2 for far-field convergence; "
     "default 3)"},
    {"sinr-beta", "B", "SINR capture threshold beta (default 1)"},
    {"snr-edge", "S",
     "SNR of an interference-free link at exactly R_T; sets the noise "
     "floor N0 = P R_T^-alpha / snr-edge (default 10)"},
    {"tx-power", "P", "transmit power P (default 1)"},
    {"field-radius", "F",
     "near-field radius in multiples of R_T; interferers beyond it use "
     "the closed-form far-field mean (default 6)"},
    {"cca", "C",
     "sinr-csma carrier-sense threshold in multiples of the noise floor "
     "(default 4)"},
    {"checkpoint", "FILE",
     "write the full simulator state to FILE every --checkpoint-every "
     "slots (atomic; MCCKPT1)"},
    {"checkpoint-every", "S",
     "checkpoint period in slots (default 0 = never; requires "
     "--checkpoint)"},
    {"resume", "FILE",
     "resume a run from an MCCKPT1 checkpoint written by the identical "
     "configuration"},
    {"panel", "fig3|frontier",
     "phase panel: Figure 3 over (alpha, K), or the antenna/backhaul "
     "frontier over (phi, L) at fixed (alpha, K) (default fig3)"},
    {"target", "E",
     "target per-node capacity exponent e in lambda = Theta(n^e) "
     "(default -0.25)"},
    {"cost-antenna", "D", "BS dollars per antenna element (default 1)"},
    {"cost-backhaul", "D",
     "BS dollars per unit of aggregate wired bandwidth (default 1)"},
};

const FlagSpec& spec_of(const std::string& name) {
  for (const FlagSpec& s : kFlagSpecs)
    if (name == s.name) return s;
  throw std::logic_error("flag missing from kFlagSpecs: " + name);
}

int cmd_classify(const util::Flags& f);
int cmd_capacity(const util::Flags& f);
int cmd_sweep(const util::Flags& f);
int cmd_simulate(const util::Flags& f);
int cmd_phase(const util::Flags& f);
int cmd_recommend(const util::Flags& f);

struct Subcommand {
  const char* name;
  const char* summary;
  std::vector<std::string> flags;  // names into kFlagSpecs
  int (*run)(const util::Flags&);
};

// params_from() reads the scaling-exponent flags, so every subcommand that
// builds ScalingParams accepts them all.
const std::vector<std::string> kParamFlags = {"n",   "alpha", "K",    "phi",
                                              "L",   "M",     "R",    "no-bs"};

std::vector<std::string> with_params(std::vector<std::string> extra) {
  std::vector<std::string> all = kParamFlags;
  all.insert(all.end(), extra.begin(), extra.end());
  return all;
}

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> kSubcommands = {
      {"classify", "regime + capacity law from exponents", with_params({}),
       &cmd_classify},
      {"capacity", "sample an instance and measure its fluid capacity",
       with_params({"placement", "seed"}), &cmd_capacity},
      {"sweep", "lambda(n) scaling sweep + exponent fit",
       with_params({"placement", "n0", "count", "ratio", "trials", "seed",
                    "threads", "engine", "slots", "warmup", "traffic", "phy",
                    "path-loss", "sinr-beta", "snr-edge", "tx-power",
                    "field-radius", "cca"}),
       &cmd_sweep},
      {"simulate", "packet- or flow-level simulation of one instance",
       with_params({"scheme", "engine", "slots", "warmup", "mobility",
                    "seed", "metrics-out", "traffic", "faults", "shards",
                    "checkpoint", "checkpoint-every", "resume", "phy",
                    "path-loss", "sinr-beta", "snr-edge", "tx-power",
                    "field-radius", "cca"}),
       &cmd_simulate},
      {"phase", "Figure 3 phase-diagram panel for a given phi",
       {"phi", "L", "panel", "alpha", "K"}, &cmd_phase},
      {"recommend",
       "antennas/backhaul per BS-dollar (generalized-model design rules)",
       with_params({"target", "cost-antenna", "cost-backhaul"}),
       &cmd_recommend},
  };
  return kSubcommands;
}

void print_subcommand_help(const Subcommand& sc) {
  std::cout << "manetcap_cli " << sc.name << " — " << sc.summary << "\n\n"
            << "flags:\n";
  for (const std::string& name : sc.flags) {
    const FlagSpec& s = spec_of(name);
    std::string head = "  --" + std::string(s.name);
    if (s.arg[0] != '\0') head += " " + std::string(s.arg);
    std::cout << head << ' ';
    for (std::size_t pad = head.size() + 1; pad < 34; ++pad) std::cout << ' ';
    std::cout << s.help << "\n";
  }
}

void usage() {
  std::cout << "manetcap_cli — capacity scaling for hybrid mobile ad hoc "
               "networks\n\nsubcommands:\n";
  for (const Subcommand& sc : subcommands()) {
    std::string head = "  " + std::string(sc.name);
    for (std::size_t pad = head.size(); pad < 13; ++pad) head += ' ';
    std::cout << head << sc.summary << "\n";
  }
  std::cout << "\nrun `manetcap_cli <subcommand> --help` for that "
               "subcommand's flags.\n";
}

net::ScalingParams params_from(const util::Flags& f) {
  net::ScalingParams p;
  p.n = f.get_count("n", 4096);
  p.alpha = f.get_double("alpha", 0.3);
  p.with_bs = !f.get_bool("no-bs", false);
  p.K = f.get_double("K", 0.7);
  p.phi = f.get_double("phi", 0.0);
  p.L = f.get_double("L", 0.0);
  p.M = f.get_double("M", 1.0);
  p.R = f.get_double("R", 0.0);
  return p;
}

phy::PhyKind phy_from(const util::Flags& f) {
  return phy::parse_phy(f.get_string("phy", "protocol"));
}

phy::SinrParams sinr_from(const util::Flags& f) {
  phy::SinrParams s;
  s.path_loss = f.get_double("path-loss", s.path_loss);
  s.beta = f.get_double("sinr-beta", s.beta);
  s.snr_edge = f.get_double("snr-edge", s.snr_edge);
  s.power = f.get_double("tx-power", s.power);
  s.field_radius = f.get_double("field-radius", s.field_radius);
  s.cca = f.get_double("cca", s.cca);
  return s;
}

net::BsPlacement placement_from(const util::Flags& f) {
  const std::string s = f.get_string("placement", "matched");
  if (s == "matched") return net::BsPlacement::kClusteredMatched;
  if (s == "uniform") return net::BsPlacement::kUniform;
  if (s == "grid") return net::BsPlacement::kRegularGrid;
  if (s == "cluster-grid") return net::BsPlacement::kClusterGrid;
  throw std::runtime_error("unknown placement: " + s);
}

int cmd_classify(const util::Flags& f) {
  net::ScalingParams p = params_from(f);
  const auto regime = capacity::classify(p);
  const auto law = capacity::capacity_law(p);
  std::cout << "parameters: " << p.describe() << "\n";
  for (const auto& v : p.assumption_violations())
    std::cout << "  note: " << v << "\n";
  std::cout << "regime:     " << to_string(regime) << "\n"
            << "  f*sqrt(gamma)  = "
            << util::fmt_double(capacity::f_sqrt_gamma(p), 4)
            << (p.cluster_free()
                    ? "\n"
                    : "\n  f*sqrt(gamma~) = " +
                          util::fmt_double(
                              capacity::f_sqrt_gamma_tilde(p), 4) + "\n")
            << "capacity:   " << law.expression << "  ~ n^"
            << util::fmt_double(law.exponent, 4) << "\n"
            << "optimal RT: " << law.rt_expression << "  ~ n^"
            << util::fmt_double(law.rt_exponent, 4) << "\n";
  if (p.with_bs) {
    std::cout << "infra dominance boundary: K >= "
              << util::fmt_double(
                     capacity::dominance_boundary_K(p.alpha, p.phi, p.L), 4)
              << " (this network has K = " << p.K << ")\n"
              << "infra bottleneck: "
              << capacity::to_string(
                     capacity::infrastructure_bottleneck(p.K, p.phi, p.L))
              << "\n";
  }
  return 0;
}

int cmd_capacity(const util::Flags& f) {
  net::ScalingParams p = params_from(f);
  sim::FluidOptions opt;
  opt.seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  opt.placement = placement_from(f);
  const auto out = sim::evaluate_capacity(p, opt);
  std::cout << "parameters:      " << p.describe() << "\n"
            << "regime:          " << to_string(out.regime) << "\n"
            << "scheme:          " << out.scheme << "\n"
            << "lambda (worst):  " << util::fmt_sci(out.lambda, 4) << "\n"
            << "lambda (typical):" << util::fmt_sci(out.lambda_symmetric, 4)
            << "\n"
            << "  ad hoc part:   " << util::fmt_sci(out.lambda_adhoc, 4)
            << "\n"
            << "  infra part:    " << util::fmt_sci(out.lambda_infra, 4)
            << "\n"
            << "bottleneck:      " << to_string(out.bottleneck) << "\n";
  return 0;
}

int cmd_sweep(const util::Flags& f) {
  net::ScalingParams p = params_from(f);
  const auto sizes =
      sim::geometric_sizes(f.get_count("n0", 2048), f.get_double("ratio", 2.0),
                           f.get_count("count", 4));
  const auto trials = f.get_count("trials", 2);
  const auto engine = sim::parse_engine(f.get_string("engine", "fluid"));
  sim::EngineOptions eopt;
  eopt.placement = placement_from(f);
  eopt.slots = f.get_count("slots", 2000);
  eopt.warmup = f.get_count("warmup", eopt.slots / 10);
  eopt.phy = phy_from(f);
  eopt.sinr = sinr_from(f);
  if (eopt.phy != phy::PhyKind::kProtocol) eopt.sinr.validate();
  const std::string traffic_spec = f.get_string("traffic", "");
  if (!traffic_spec.empty())
    eopt.traffic = net::TrafficSpec::parse(traffic_spec);
  sim::SweepEvaluator eval = sim::make_engine_evaluator(engine, eopt);
  sim::SweepOptions sopt;
  sopt.seed0 = static_cast<std::uint64_t>(f.get_int("seed", 1));
  // 0 = util::ThreadPool::default_num_threads(); per-trial seeds make the
  // result bit-identical for every thread count.
  sopt.num_threads = f.get_count("threads", 0);
  auto sweep = sim::run_sweep(p, sizes, trials, eval, sopt);

  util::Table t({"n", "lambda (gm)", "min", "max"});
  for (const auto& pt : sweep.points)
    t.add_row({std::to_string(pt.n), util::fmt_sci(pt.lambda_gm, 4),
               util::fmt_sci(pt.lambda_min, 4),
               util::fmt_sci(pt.lambda_max, 4)});
  std::cout << "engine: " << sim::to_string(engine) << "\n";
  if (!eopt.traffic.is_default())
    std::cout << "traffic: " << eopt.traffic.describe() << "\n";
  if (eopt.phy != phy::PhyKind::kProtocol)
    std::cout << "phy:    " << phy::to_string(eopt.phy)
              << " (path-loss " << eopt.sinr.path_loss << ", beta "
              << eopt.sinr.beta << ", snr-edge " << eopt.sinr.snr_edge
              << ")\n";
  t.print(std::cout);
  if (sweep.fit_valid) {
    std::cout << "fitted exponent: "
              << util::fmt_double(sweep.fit.exponent, 4) << " +- "
              << util::fmt_double(sweep.fit.stderr_, 3)
              << "  (R^2 = " << util::fmt_double(sweep.fit.r_squared, 4)
              << ")\n"
              << "theory exponent: "
              << util::fmt_double(capacity::capacity_exponent(p), 4) << "\n";
  } else {
    std::cout << "fit unavailable (some sizes measured lambda = 0)\n";
  }
  return 0;
}

// simulate --engine fluid: the flow-level engine on the same instance and
// traffic the packet path would build, reporting the same audit identity.
int cmd_simulate_fluid(const util::Flags& f, const net::ScalingParams& p) {
  sim::FlowSimOptions opt;
  opt.scheme = sim::parse_scheme(f.get_string("scheme", "A"));
  if (!f.get_string("checkpoint", "").empty() ||
      !f.get_string("resume", "").empty())
    throw std::runtime_error("--checkpoint/--resume need --engine slots");

  opt.slots = f.get_count("slots", 2000);
  opt.warmup = f.get_count("warmup", opt.slots / 10);
  opt.seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  opt.grouping = sim::bs_grouping(p);

  // The fluid engine takes churn-only plans; run_flow_sim rejects
  // infrastructure or mobility-shift events with a named error.
  const std::string fault_spec = f.get_string("faults", "");
  sim::FaultPlan faults;
  if (!fault_spec.empty()) {
    faults = sim::FaultPlan::parse(fault_spec);
    opt.faults = &faults;
  }
  const std::string traffic_spec = f.get_string("traffic", "");
  net::TrafficSpec tspec;
  if (!traffic_spec.empty()) tspec = net::TrafficSpec::parse(traffic_spec);

  const std::string metrics_out = f.get_string("metrics-out", "");
  sim::Metrics metrics;
  if (!metrics_out.empty()) {
    metrics.enable_series(opt.slots);
    opt.metrics = &metrics;
  }

  const auto placement = sim::engine_placement(
      p, opt.scheme == sim::Scheme::kSchemeC,
      net::BsPlacement::kClusteredMatched);
  const auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                       placement, opt.seed);
  rng::Xoshiro256 g(sim::traffic_seed(opt.seed));
  std::vector<net::FlowDemand> demands;
  std::vector<std::uint32_t> dest;
  if (tspec.is_default())
    dest = net::permutation_traffic(p.n, g);
  else
    demands = net::make_traffic_model(tspec)->draw(p.n, g);

  // Non-protocol backends derate the wireless capacities by the measured
  // pair-survival ratio (docs/PHY.md; sim::run_flow_sim_derated).
  const auto phy = phy_from(f);
  double survival = 1.0;
  if (phy != phy::PhyKind::kProtocol) {
    if (opt.scheme == sim::Scheme::kSchemeC)
      throw std::runtime_error(
          "--phy " + phy::to_string(phy) +
          " does not apply to scheme C (TDMA schedule has no per-slot "
          "geometry); use --phy protocol");
    auto sinr = sinr_from(f);
    sinr.validate();
    survival = sim::sinr_survival_ratio(net, phy, sinr,
                                        sim::trial_seed(opt.seed, 0, 2));
  }
  const auto r = sim::run_flow_sim_derated(
      [&](const sim::FlowSimOptions& o) {
        return tspec.is_default() ? sim::run_flow_sim(net, dest, o)
                                  : sim::run_flow_sim(net, demands, o);
      },
      opt, survival);
  std::cout << "scheme " << to_string(opt.scheme) << " (flow engine), "
            << opt.slots << " slots (" << opt.warmup << " warmup)\n";
  if (!tspec.is_default())
    std::cout << "  traffic:            " << tspec.describe() << "\n";
  if (!fault_spec.empty())
    std::cout << "  churn: " << faults.events.size() << " event(s), "
              << r.dropped << " packet(s) dropped to departures\n"
              << faults.describe();
  if (phy != phy::PhyKind::kProtocol)
    std::cout << "  phy " << phy::to_string(phy) << ": pair survival "
              << util::fmt_double(survival, 4)
              << (survival == 0.0 ? " — no pair clears beta; lambda = 0"
                                  : " (wireless capacity derate)")
              << "\n";
  std::cout << "  rate/flow/slot:     " << util::fmt_sci(r.mean_flow_rate, 4)
            << " (p10 " << util::fmt_sci(r.p10_flow_rate, 4) << ")\n"
            << "  lambda (solver):    " << util::fmt_sci(r.lambda_strict, 4)
            << "\n"
            << "  bottleneck:         " << to_string(r.bottleneck)
            << (r.bottleneck_label.empty() ? ""
                                           : " (" + r.bottleneck_label + ")")
            << "\n"
            << "  served flows:       " << r.served_flows << " / " << p.n
            << (r.degenerate ? "  (degenerate)" : "") << "\n"
            << "  audit: injected " << r.injected << " = delivered "
            << r.delivered_lifetime << " + queued " << r.queued_end
            << " + dropped " << r.dropped << " (conserved)\n";
  if (!metrics_out.empty()) {
    const auto cpath =
        metrics.write_counters_csv(metrics_out, to_string(opt.scheme));
    const auto spath = metrics.write_series_csv(metrics_out);
    std::cout << "  metrics: " << cpath << ", " << spath << "\n";
  }
  return 0;
}

int cmd_simulate(const util::Flags& f) {
  net::ScalingParams p = params_from(f);
  const auto engine = sim::resolve_engine(
      sim::parse_engine(f.get_string("engine", "slots")), p.n);
  if (engine == sim::EngineKind::kFluid) return cmd_simulate_fluid(f, p);
  sim::SlotSimOptions opt;
  opt.scheme = sim::parse_scheme(f.get_string("scheme", "A"));

  const std::string mob = f.get_string("mobility", "iid");
  if (mob == "iid")
    opt.mobility = sim::SlotMobility::kIid;
  else if (mob == "walk")
    opt.mobility = sim::SlotMobility::kWalk;
  else if (mob == "pull")
    opt.mobility = sim::SlotMobility::kPullHome;
  else if (mob == "brownian")
    opt.mobility = sim::SlotMobility::kBrownian;
  else
    throw std::runtime_error("unknown mobility: " + mob);

  opt.slots = f.get_count("slots", 2000);
  opt.warmup = f.get_count("warmup", opt.slots / 10);
  opt.seed = static_cast<std::uint64_t>(f.get_int("seed", 1));
  opt.phy = phy_from(f);
  opt.sinr = sinr_from(f);
  opt.shards = f.get_count("shards", 1);
  opt.checkpoint_path = f.get_string("checkpoint", "");
  opt.checkpoint_every = f.get_count("checkpoint-every", 0);
  opt.resume_path = f.get_string("resume", "");

  const std::string metrics_out = f.get_string("metrics-out", "");
  sim::Metrics metrics;
  if (!metrics_out.empty()) {
    metrics.enable_series(opt.slots);
    opt.metrics = &metrics;
  }

  const std::string fault_spec = f.get_string("faults", "");
  sim::FaultPlan faults;
  if (!fault_spec.empty()) {
    faults = sim::FaultPlan::parse(fault_spec);
    opt.faults = &faults;
  }

  const auto placement = sim::engine_placement(
      p, opt.scheme == sim::Scheme::kSchemeC,
      net::BsPlacement::kClusteredMatched);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 placement, opt.seed);
  const std::string traffic_spec = f.get_string("traffic", "");
  net::TrafficSpec tspec;
  if (!traffic_spec.empty()) tspec = net::TrafficSpec::parse(traffic_spec);

  rng::Xoshiro256 g(sim::traffic_seed(opt.seed));
  sim::SlotSimResult r;
  if (tspec.is_default()) {
    auto dest = net::permutation_traffic(p.n, g);
    r = sim::run_slot_sim(net, dest, opt);
  } else {
    const auto demands = net::make_traffic_model(tspec)->draw(p.n, g);
    r = sim::run_slot_sim(net, demands, opt);
  }
  std::cout << "scheme " << to_string(opt.scheme) << ", " << opt.slots
            << " slots (" << opt.warmup << " warmup), mobility " << mob
            << "\n";
  if (!tspec.is_default())
    std::cout << "  traffic:            " << tspec.describe() << "\n";
  if (opt.phy != phy::PhyKind::kProtocol)
    std::cout << "  phy:                " << phy::to_string(opt.phy)
              << " (path-loss " << opt.sinr.path_loss << ", beta "
              << opt.sinr.beta << ", snr-edge " << opt.sinr.snr_edge
              << ")\n";
  std::cout << "  delivered total:    " << r.total_delivered << "\n"
            << "  rate/flow/slot:     " << util::fmt_sci(r.mean_flow_rate, 4)
            << " (p10 " << util::fmt_sci(r.p10_flow_rate, 4) << ")\n"
            << "  mean delay:         " << util::fmt_double(r.mean_delay, 5)
            << " slots (p95 " << util::fmt_double(r.p95_delay, 5) << ")\n"
            << "  concurrency/slot:   "
            << util::fmt_double(r.pairs_per_slot, 4) << "\n"
            << "  audit: injected " << r.injected << " = delivered "
            << r.delivered_lifetime << " + queued " << r.queued_end
            << " + dropped " << r.dropped << " (conserved)\n";
  if (!fault_spec.empty())
    std::cout << "  faults: " << faults.events.size() << " event(s), "
              << r.dropped_bs_outage << " packet(s) dropped to BS outages, "
              << r.dropped_ms_churn << " to MS departures\n"
              << faults.describe();
  if (!metrics_out.empty()) {
    const auto cpath =
        metrics.write_counters_csv(metrics_out, to_string(opt.scheme));
    const auto spath = metrics.write_series_csv(metrics_out);
    std::cout << "  metrics: " << cpath << ", " << spath << "\n";
  }
  return 0;
}

int cmd_phase(const util::Flags& f) {
  const std::string panel = f.get_string("panel", "fig3");
  if (panel == "frontier") {
    auto d = capacity::compute_frontier_diagram(
        f.get_double("alpha", 0.3), f.get_double("K", 0.7), 21, 11);
    std::cout << capacity::render_ascii(d);
  } else if (panel == "fig3") {
    auto d = capacity::compute_phase_diagram(
        f.get_double("phi", 0.0), f.get_double("L", 0.0), 11, 11);
    std::cout << capacity::render_ascii(d);
  } else {
    throw std::runtime_error("unknown panel: " + panel);
  }
  return 0;
}

// recommend — the generalized-model design rules: the binding bottleneck,
// order-optimal backhaul/antenna exponents, the K a target capacity needs,
// and a capacity-per-BS-dollar argmax over the (phi, L) frontier grid.
int cmd_recommend(const util::Flags& f) {
  net::ScalingParams p = params_from(f);
  if (!p.with_bs)
    throw std::runtime_error("recommend needs base stations (drop --no-bs)");
  const double target = f.get_double("target", -0.25);
  capacity::BsCostModel cost;
  cost.per_antenna = f.get_double("cost-antenna", cost.per_antenna);
  cost.per_backhaul = f.get_double("cost-backhaul", cost.per_backhaul);

  std::cout << "parameters: " << p.describe() << "\n";
  for (const auto& v : p.assumption_violations())
    std::cout << "  note: " << v << "\n";
  std::cout << "infra bottleneck:   "
            << capacity::to_string(
                   capacity::infrastructure_bottleneck(p.K, p.phi, p.L))
            << " (exponent "
            << util::fmt_double(
                   capacity::infrastructure_exponent(p.K, p.phi, p.L), 4)
            << ")\n"
            << "recommended phi*:   "
            << util::fmt_double(capacity::recommended_phi(p.L, p.K), 4)
            << " (backbone stops binding; this network has phi = " << p.phi
            << ")\n"
            << "recommended L*:     "
            << util::fmt_double(capacity::recommended_L(p.phi, p.K), 4)
            << " (antennas stop binding; this network has L = " << p.L
            << ")\n"
            << "K for target n^" << util::fmt_double(target, 4) << ": "
            << util::fmt_double(capacity::required_K(target, p.phi, p.L), 4)
            << (capacity::required_K(target, p.phi, p.L) > 1.0
                    ? "  (> 1: unreachable with k <= n)"
                    : "")
            << "\n"
            << "BS dollars:         "
            << util::fmt_sci(capacity::bs_dollars(p, cost), 4)
            << " (cost exponent "
            << util::fmt_double(
                   capacity::bs_cost_exponent(p.K, p.phi, p.L), 4)
            << ")\n"
            << "capacity/dollar:    n^"
            << util::fmt_double(capacity::capacity_per_dollar_exponent(
                                    p.alpha, p.K, p.phi, p.L),
                                4)
            << "\n";

  // Frontier argmax: best (phi, L) for capacity per BS-dollar at this
  // (alpha, K) on a 0.1-spaced grid (cost exponent does not depend on the
  // dollar coefficients).
  double best_e = -std::numeric_limits<double>::infinity();
  double best_phi = 0.0, best_l = 0.0;
  for (int li = 0; li <= 10; ++li) {
    for (int pi = -10; pi <= 10; ++pi) {
      const double L = 0.1 * li, phi = 0.1 * pi;
      const double e =
          capacity::capacity_per_dollar_exponent(p.alpha, p.K, phi, L);
      if (e > best_e) {
        best_e = e;
        best_phi = phi;
        best_l = L;
      }
    }
  }
  std::cout << "frontier argmax:    phi = " << util::fmt_double(best_phi, 2)
            << ", L = " << util::fmt_double(best_l, 2)
            << " -> capacity/dollar n^" << util::fmt_double(best_e, 4)
            << " (grid step 0.1)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    usage();
    return argc < 2 ? 1 : 0;
  }
  const std::string cmd = argv[1];
  const Subcommand* sc = nullptr;
  for (const Subcommand& s : subcommands())
    if (cmd == s.name) sc = &s;
  if (sc == nullptr) {
    std::cerr << "unknown subcommand: " << cmd << "\n\n";
    usage();
    return 1;
  }
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_subcommand_help(*sc);
      return 0;
    }
  }
  try {
    util::Flags flags(argc - 1, argv + 1, sc->flags, sc->name);
    return sc->run(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
