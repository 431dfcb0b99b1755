#include "sim/sweep.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "analysis/stats.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace manetcap::sim {

std::vector<std::size_t> geometric_sizes(std::size_t n0, double ratio,
                                         std::size_t count) {
  MANETCAP_CHECK(n0 >= 2);
  MANETCAP_CHECK(ratio > 1.0);
  MANETCAP_CHECK(count >= 1);
  std::vector<std::size_t> sizes;
  sizes.reserve(count);
  double v = static_cast<double>(n0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<std::size_t>(std::llround(v));
    // llround is monotone in v, so collapsed points are adjacent; keeping
    // the first occurrence dedupes the whole sequence.
    if (sizes.empty() || sizes.back() != s) sizes.push_back(s);
    v *= ratio;
  }
  return sizes;
}

namespace {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t seed0, std::size_t size_index,
                         std::size_t trial) {
  // Feed each coordinate through its own SplitMix64 round so (seed0, si, t)
  // tuples that differ in any coordinate diverge over the full 64-bit
  // range — unlike a linear combination, where small strides collide.
  std::uint64_t h = splitmix64(seed0);
  h = splitmix64(h ^ static_cast<std::uint64_t>(size_index));
  h = splitmix64(h ^ static_cast<std::uint64_t>(trial));
  return h;
}

std::uint64_t traffic_seed(std::uint64_t seed) {
  return trial_seed(seed, 0, 1);
}

SweepResult run_sweep(const net::ScalingParams& base,
                      const std::vector<std::size_t>& sizes,
                      std::size_t trials, const SweepEvaluator& eval,
                      const SweepOptions& options) {
  MANETCAP_CHECK(!sizes.empty());
  MANETCAP_CHECK(trials >= 1);

  std::size_t num_threads = options.num_threads == 0
                                ? util::ThreadPool::default_num_threads()
                                : options.num_threads;

  // Fan-out: every (size, trial) cell is an independent task writing its
  // own pre-allocated slot (λ and audit registry alike), so the
  // measurement itself carries no ordering. Per-cell registries exist only
  // when the caller asked for the aggregate.
  const bool want_metrics = options.metrics != nullptr;
  const std::size_t cells = sizes.size() * trials;
  std::vector<double> lambdas(cells, 0.0);
  std::vector<Metrics> cell_metrics(want_metrics ? cells : 0);
  auto run_cell = [&](std::size_t cell) {
    const std::size_t si = cell / trials;
    const std::size_t t = cell % trials;
    EvalContext ctx;
    ctx.params = base;
    ctx.params.n = sizes[si];
    ctx.seed = trial_seed(options.seed0, si, t);
    ctx.metrics = want_metrics ? &cell_metrics[cell] : nullptr;
    lambdas[cell] = eval(ctx);
  };
  // Longest first: cells start in descending n, stable on index, so the
  // costliest cells do not start last and finish alone. Both paths use
  // this order, so a failing sweep reports the same cell's error for any
  // thread count (parallel_for rethrows the lowest failing position).
  std::vector<std::size_t> order(cells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sizes[a / trials] > sizes[b / trials];
                   });
  auto run_nth = [&](std::size_t i) { run_cell(order[i]); };
  if (num_threads <= 1 || cells <= 1) {
    for (std::size_t i = 0; i < cells; ++i) run_nth(i);
  } else {
    // Persistent executor: the shared pool's workers outlive this call, so
    // repeated sweeps (every bench loop, every CLI invocation doing
    // several sweeps) pay no thread create/join churn. num_threads only
    // caps this group's concurrency.
    util::ThreadPool::shared().parallel_for(cells, run_nth, num_threads);
  }

  // Reduction: serial, fixed order — output is bit-identical to the
  // serial path for any thread count.
  if (want_metrics) {
    for (Metrics& m : cell_metrics) options.metrics->absorb(std::move(m));
  }
  SweepResult result;
  std::vector<double> xs, ys;
  bool all_positive = true;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::vector<double> cell_lambdas(
        lambdas.begin() + static_cast<std::ptrdiff_t>(si * trials),
        lambdas.begin() + static_cast<std::ptrdiff_t>((si + 1) * trials));
    SweepPoint point;
    point.n = sizes[si];
    point.trials = trials;
    const auto summary = analysis::summarize(cell_lambdas);
    point.lambda_min = summary.min;
    point.lambda_max = summary.max;
    if (summary.min > 0.0) {
      point.lambda_gm = analysis::geometric_mean(cell_lambdas);
      xs.push_back(static_cast<double>(point.n));
      ys.push_back(point.lambda_gm);
    } else {
      point.lambda_gm = 0.0;
      all_positive = false;
    }
    result.points.push_back(point);
  }

  if (all_positive && xs.size() >= 3) {
    result.fit = analysis::fit_power_law(xs, ys);
    result.fit_valid = true;
  }
  return result;
}

}  // namespace manetcap::sim
