// Single-run scale benchmark: how far one SlotSim run stretches, and what
// it costs. For each population size it runs scheme B serial (shards=1),
// reports slots/sec and resident state bytes per mobile station, then
// repeats the identical run sharded (--shards S) and verifies the results
// — and, at sizes where tracing is affordable, the encoded per-packet
// traces — are byte-identical. The sharded speedup is reported but never
// gated: CI machines differ in core count (a 1-core runner shows ~1x by
// construction), so the portable contracts are
//   (1) sharded == serial, bit for bit, and
//   (2) bytes/MS stays within 25% of the checked-in baseline
// and those are what --check enforces (exit 1 on violation).
//
// Flags:
//   --n N          largest population (default 1000000)
//   --shards S     stripe count for the sharded leg (default 8)
//   --slots S      simulated slots per run (default 40)
//   --smoke        pinned small case: n=20000, 120 slots
//   --check        gate bytes/MS against the baseline; exit 1 on regression
//   --baseline PATH  baseline CSV (default bench/slotsim_scale_baseline.csv)
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
#include "sim/slotsim.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "util/artifacts.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {
using namespace manetcap;

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

/// Per-packet tracing is O(delivered) memory — affordable for the identity
/// check at moderate n, pure overhead at 10^6.
constexpr std::size_t kTraceCeiling = 50000;

/// Baseline bytes/MS for (case, n) from a CSV with columns
/// case,n,bytes_per_ms. Returns 0 when absent.
double baseline_bytes_per_ms(const std::string& path,
                             const std::string& case_name, std::size_t n) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open baseline: " + path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() >= 3 && fields[0] == case_name &&
        fields[1] == std::to_string(n))
      return std::stod(fields[2]);
  }
  return 0.0;
}

struct Leg {
  sim::SlotSimResult res;
  std::vector<std::uint8_t> trace_bytes;  // empty above kTraceCeiling
  double wall_s = 0.0;
};

Leg run_leg(const net::Network& net, const std::vector<std::uint32_t>& dest,
            sim::SlotSimOptions opt, std::size_t shards) {
  opt.shards = shards;
  sim::Trace trace;
  if (net.num_ms() <= kTraceCeiling) opt.trace = &trace;
  Leg leg;
  util::Stopwatch sw;
  leg.res = sim::run_slot_sim(net, dest, opt);
  leg.wall_s = sw.seconds();
  if (opt.trace != nullptr) leg.trace_bytes = trace.encode();
  return leg;
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(
      argc, argv, {"n", "shards", "slots", "smoke", "check", "baseline"});
  const bool smoke = flags.get_bool("smoke", false);
  const std::string case_name = smoke ? "smoke" : "full";
  const std::size_t shards = flags.get_count("shards", 8);

  const std::size_t n_top = flags.get_count("n", smoke ? 20000 : 1000000);
  std::vector<std::size_t> sizes;
  if (smoke) {
    sizes = {n_top};
  } else {
    // One intermediate point an order of magnitude down gives the bytes/MS
    // trend without doubling the wall-clock of the top size.
    if (n_top >= 10) sizes.push_back(n_top / 10);
    sizes.push_back(n_top);
  }

  sim::SlotSimOptions base;
  base.scheme = sim::Scheme::kSchemeB;
  base.slots = flags.get_count("slots", smoke ? 120 : 40);
  base.warmup = base.slots / 10;
  base.seed = 1;

  std::cout << "=== single-run scale: sharded SlotSim, bytes/MS ===\n"
            << "case " << case_name << ": scheme B, " << base.slots
            << " slots, shards " << shards << " (seed 1)\n\n";

  util::Table t({"n", "impl", "wall-clock [s]", "slots/sec", "bytes/MS",
                 "speedup", "identical"});
  util::CsvWriter csv(util::artifact_path("slotsim_scale"),
                      {"case", "scheme", "n", "slots", "shards", "wall_s",
                       "slots_per_sec", "bytes_per_ms",
                       "speedup_vs_serial", "identical"});

  bool all_identical = true;
  bool gate_ok = true;
  for (std::size_t n : sizes) {
    net::ScalingParams p;
    p.n = n;
    p.alpha = 0.35;
    p.with_bs = true;
    p.K = 0.7;
    p.M = 1.0;
    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kClusteredMatched,
                                   base.seed);
    rng::Xoshiro256 g(sim::traffic_seed(base.seed));
    auto dest = net::permutation_traffic(p.n, g);

    const Leg serial = run_leg(net, dest, base, 1);
    const Leg sharded = run_leg(net, dest, base, shards);

    const bool same = identical(serial.res, sharded.res) &&
                      serial.trace_bytes == sharded.trace_bytes;
    all_identical = all_identical && same;
    const double sps_serial =
        static_cast<double>(base.slots) / serial.wall_s;
    const double sps_sharded =
        static_cast<double>(base.slots) / sharded.wall_s;
    const double speedup = sps_sharded / sps_serial;
    const double bytes_per_ms =
        static_cast<double>(serial.res.state_bytes) / static_cast<double>(n);

    t.add_row({std::to_string(n), "serial",
               util::fmt_double(serial.wall_s, 3),
               std::to_string(std::llround(sps_serial)),
               util::fmt_double(bytes_per_ms, 6), "1.00", "-"});
    t.add_row({std::to_string(n), "shards=" + std::to_string(shards),
               util::fmt_double(sharded.wall_s, 3),
               std::to_string(std::llround(sps_sharded)),
               util::fmt_double(
                   static_cast<double>(sharded.res.state_bytes) /
                       static_cast<double>(n),
                   6),
               util::fmt_double(speedup, 2), same ? "yes" : "NO (BUG)"});
    csv.add_row({case_name, "scheme-B", std::to_string(n),
                 std::to_string(base.slots), "1",
                 util::fmt_double(serial.wall_s, 4),
                 std::to_string(std::llround(sps_serial)),
                 util::fmt_double(bytes_per_ms, 6), "1.00", "yes"});
    csv.add_row({case_name, "scheme-B", std::to_string(n),
                 std::to_string(base.slots), std::to_string(shards),
                 util::fmt_double(sharded.wall_s, 4),
                 std::to_string(std::llround(sps_sharded)),
                 util::fmt_double(
                     static_cast<double>(sharded.res.state_bytes) /
                         static_cast<double>(n),
                     6),
                 util::fmt_double(speedup, 2), same ? "yes" : "no"});

    if (flags.get_bool("check", false)) {
      const std::string path = flags.get_string(
          "baseline", "bench/slotsim_scale_baseline.csv");
      const double want = baseline_bytes_per_ms(path, case_name, n);
      if (want <= 0.0) {
        std::cerr << "ERROR: no baseline row for (" << case_name << ", n="
                  << n << ") in " << path << "\n";
        gate_ok = false;
      } else {
        const double ceiling = 1.25 * want;
        std::cout << "mem gate (n=" << n << "): measured "
                  << util::fmt_double(bytes_per_ms, 6)
                  << " bytes/MS vs baseline " << util::fmt_double(want, 6)
                  << " (ceiling " << util::fmt_double(ceiling, 6)
                  << ", 25% growth budget): "
                  << (bytes_per_ms <= ceiling ? "OK" : "REGRESSION") << "\n";
        gate_ok = gate_ok && bytes_per_ms <= ceiling;
      }
    }
  }
  t.print(std::cout);

  if (!all_identical) {
    std::cerr << "\nERROR: sharded run diverged from the serial run\n";
    return 1;
  }
  if (!gate_ok) {
    std::cerr << "\nERROR: bytes/MS regressed by more than 25%\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
