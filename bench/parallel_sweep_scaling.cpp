// Parallel sweep engine scaling: a Table-I-style fluid sweep run serially
// and with the thread pool. Records wall-clock for both, the speedup, and
// verifies that the two SweepResults are bit-identical — the determinism
// contract of run_sweep (per-cell SplitMix64 seeds + fixed-order serial
// reduction).
#include <cstring>
#include <iostream>

#include "sim/fluid.h"
#include "sim/sweep.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {
using namespace manetcap;

bool identical(const sim::SweepResult& a, const sim::SweepResult& b) {
  if (a.points.size() != b.points.size() || a.fit_valid != b.fit_valid)
    return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& pa = a.points[i];
    const auto& pb = b.points[i];
    if (pa.n != pb.n ||
        std::memcmp(&pa.lambda_gm, &pb.lambda_gm, sizeof(double)) != 0 ||
        std::memcmp(&pa.lambda_min, &pb.lambda_min, sizeof(double)) != 0 ||
        std::memcmp(&pa.lambda_max, &pb.lambda_max, sizeof(double)) != 0)
      return false;
  }
  if (a.fit_valid &&
      std::memcmp(&a.fit.exponent, &b.fit.exponent, sizeof(double)) != 0)
    return false;
  return true;
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv, {"threads"});
  const auto num_threads =
      flags.get_count("threads", util::ThreadPool::default_num_threads());

  net::ScalingParams p;
  p.alpha = 0.25;
  p.with_bs = true;
  p.K = 0.85;
  p.M = 1.0;
  p.phi = 0.0;

  sim::SweepEvaluator eval = [](const sim::EvalContext& ctx) {
    sim::FluidOptions opt;
    opt.seed = ctx.seed;
    return sim::evaluate_capacity(ctx.params, opt).lambda_symmetric;
  };
  const auto sizes = sim::geometric_sizes(2048, 2.0, 4);  // 2048 .. 16384
  const std::size_t trials = 4;

  std::cout << "=== parallel sweep engine: wall-clock scaling ===\n"
            << "fluid evaluator, strong regime with BS; " << sizes.size()
            << " sizes x " << trials << " trials, seed0 = 2026.\n"
            << "available threads: " << num_threads << "\n\n";

  sim::SweepOptions serial;
  serial.num_threads = 1;
  serial.seed0 = 2026;
  util::Stopwatch sw;
  const auto r1 = sim::run_sweep(p, sizes, trials, eval, serial);
  const double t1 = sw.seconds();

  sim::SweepOptions parallel = serial;
  parallel.num_threads = num_threads;
  sw.reset();
  const auto rn = sim::run_sweep(p, sizes, trials, eval, parallel);
  const double tn = sw.seconds();

  util::Table t({"threads", "wall-clock [s]", "speedup", "bit-identical"});
  t.add_row({"1", util::fmt_double(t1, 3), "1.00", "-"});
  t.add_row({std::to_string(num_threads), util::fmt_double(tn, 3),
             tn > 0.0 ? util::fmt_double(t1 / tn, 2) : "-",
             identical(r1, rn) ? "yes" : "NO (BUG)"});
  t.print(std::cout);

  if (!identical(r1, rn)) {
    std::cerr << "ERROR: parallel sweep diverged from the serial result\n";
    return 1;
  }
  std::cout << "\n(speedup tracks the physical core count; on a 1-core\n"
            << "machine both rows time the same serial execution order)\n";
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
