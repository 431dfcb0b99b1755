// Hot-path overhaul benchmark: the SoA slot simulator (run_slot_sim)
// against the frozen pre-overhaul reference (run_slot_sim_reference) on
// identical inputs. Reports wall-clock and slots/sec for both, verifies
// the results are identical, writes a CSV artifact, and with --check
// gates on the speedup ratio against a checked-in baseline.
//
// The gate compares the *ratio* new/reference, not absolute slots/sec:
// both implementations run back-to-back in one process on the same
// hardware, so the ratio is stable across machines where raw throughput
// is not. Each implementation runs kReps times, alternating reference and
// SoA, and the ratio is taken of the two median wall-clocks: one stalled
// repetition on a shared runner moves a median far less than a single
// timing. A >25% drop of the measured ratio below the baseline ratio
// fails the run (exit 1) — that is the CI perf-smoke contract.
//
// Flags:
//   --scheme A|B|C|twohop  routing scheme            (default B)
//   --n N                  mobile-station count      (default 2000)
//   --slots S              simulated slots           (default 4000)
//   --smoke                pinned small case: n=2000, 800 slots
//   --check                gate against the baseline row of this case and
//                          scheme; exit 1 on regression
//   --baseline PATH        baseline CSV
//                          (default bench/slotsim_hotpath_baseline.csv)
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/engine.h"
#include "sim/slotsim.h"
#include "sim/slotsim_reference.h"
#include "sim/sweep.h"
#include "util/artifacts.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {
using namespace manetcap;

constexpr std::size_t kReps = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool identical(const sim::SlotSimResult& a, const sim::SlotSimResult& b) {
  return bits_equal(a.mean_flow_rate, b.mean_flow_rate) &&
         bits_equal(a.min_flow_rate, b.min_flow_rate) &&
         bits_equal(a.p10_flow_rate, b.p10_flow_rate) &&
         bits_equal(a.pairs_per_slot, b.pairs_per_slot) &&
         bits_equal(a.mean_delay, b.mean_delay) &&
         bits_equal(a.p95_delay, b.p95_delay) &&
         a.total_delivered == b.total_delivered &&
         a.measured_slots == b.measured_slots && a.injected == b.injected &&
         a.delivered_lifetime == b.delivered_lifetime &&
         a.queued_end == b.queued_end && a.dropped == b.dropped;
}

/// Reads the baseline speedup for (`case_name`, `scheme`) from a CSV with
/// columns case,scheme,n,slots,speedup. Returns 0 when the row is absent.
double baseline_speedup(const std::string& path, const std::string& case_name,
                        const std::string& scheme) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open baseline: " + path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() >= 5 && fields[0] == case_name && fields[1] == scheme)
      return std::stod(fields[4]);
  }
  return 0.0;
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(
      argc, argv, {"scheme", "n", "slots", "smoke", "check", "baseline"});
  const bool smoke = flags.get_bool("smoke", false);
  const std::string case_name = smoke ? "smoke" : "full";

  net::ScalingParams p;
  p.n = flags.get_count("n", 2000);
  p.alpha = 0.35;
  p.with_bs = true;
  p.K = 0.7;
  p.M = 1.0;

  sim::SlotSimOptions opt;
  opt.scheme = sim::parse_scheme(flags.get_string("scheme", "B"));
  opt.slots = flags.get_count("slots", smoke ? 800 : 4000);
  opt.warmup = opt.slots / 10;
  opt.seed = 1;

  const auto placement = sim::engine_placement(
      p, opt.scheme == sim::Scheme::kSchemeC,
      net::BsPlacement::kClusteredMatched);
  auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                 placement, opt.seed);
  rng::Xoshiro256 g(sim::traffic_seed(opt.seed));
  auto dest = net::permutation_traffic(p.n, g);

  std::cout << "=== slot-simulator hot path: SoA rewrite vs reference ===\n"
            << "case " << case_name << ": scheme "
            << to_string(opt.scheme) << ", n = " << p.n << ", "
            << opt.slots << " slots (seed 1)\n\n";

  // Every repetition of either implementation must reproduce the first
  // reference result bit for bit.
  std::vector<double> ref_s(kReps), soa_s(kReps);
  sim::SlotSimResult first;
  bool same = true;
  for (std::size_t r = 0; r < kReps; ++r) {
    util::Stopwatch sw;
    const auto ref = sim::run_slot_sim_reference(net, dest, opt);
    ref_s[r] = sw.seconds();
    sw.reset();
    const auto soa = sim::run_slot_sim(net, dest, opt);
    soa_s[r] = sw.seconds();
    if (r == 0) first = ref;
    same = same && identical(first, ref) && identical(first, soa);
  }
  const double t_ref = median(ref_s);
  const double t_soa = median(soa_s);

  const double sps_ref = static_cast<double>(opt.slots) / t_ref;
  const double sps_soa = static_cast<double>(opt.slots) / t_soa;
  const double speedup = sps_soa / sps_ref;

  const auto range = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return util::fmt_double(*lo, 3) + "-" + util::fmt_double(*hi, 3);
  };
  util::Table t({"impl", "median wall-clock [s]", "range [s]", "slots/sec",
                 "speedup", "identical"});
  t.add_row({"reference", util::fmt_double(t_ref, 3), range(ref_s),
             std::to_string(std::llround(sps_ref)), "1.00", "-"});
  t.add_row({"SoA", util::fmt_double(t_soa, 3), range(soa_s),
             std::to_string(std::llround(sps_soa)),
             util::fmt_double(speedup, 3), same ? "yes" : "NO (BUG)"});
  std::cout << kReps << " alternating repetitions of each\n";
  t.print(std::cout);

  util::CsvWriter csv(util::artifact_path("slotsim_hotpath"),
                      {"case", "scheme", "n", "slots", "impl", "wall_s",
                       "slots_per_sec", "speedup_vs_reference"});
  csv.add_row({case_name, to_string(opt.scheme), std::to_string(p.n),
               std::to_string(opt.slots), "reference",
               util::fmt_double(t_ref, 4),
               std::to_string(std::llround(sps_ref)), "1.00"});
  csv.add_row({case_name, to_string(opt.scheme), std::to_string(p.n),
               std::to_string(opt.slots), "soa", util::fmt_double(t_soa, 4),
               std::to_string(std::llround(sps_soa)),
               util::fmt_double(speedup, 3)});

  if (!same) {
    std::cerr << "\nERROR: a repetition diverged from the first reference "
                 "result\n";
    return 1;
  }

  if (flags.get_bool("check", false)) {
    const std::string path = flags.get_string(
        "baseline", "bench/slotsim_hotpath_baseline.csv");
    const std::string scheme = to_string(opt.scheme);
    const double want = baseline_speedup(path, case_name, scheme);
    if (want <= 0.0) {
      std::cerr << "\nERROR: no baseline row for case '" << case_name
                << "', " << scheme << " in " << path << "\n";
      return 1;
    }
    const double floor = 0.75 * want;
    std::cout << "\nperf gate: measured speedup "
              << util::fmt_double(speedup, 2) << "x vs baseline "
              << util::fmt_double(want, 2) << "x (floor "
              << util::fmt_double(floor, 2) << "x, 25% regression budget): "
              << (speedup >= floor ? "OK" : "REGRESSION") << "\n";
    if (speedup < floor) {
      std::cerr << "ERROR: hot-path speedup regressed by more than 25%\n";
      return 1;
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
