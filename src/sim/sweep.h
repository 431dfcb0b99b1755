// Scaling sweeps: measure λ(n) over geometrically spaced n, average over
// seeds, and fit the scaling exponent — the measurement methodology behind
// every Table I row and figure series.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/loglog_fit.h"
#include "net/params.h"

namespace manetcap::sim {

/// Everything an evaluator gets about its (size, trial) sweep cell.
///
/// `params` is the base parameter set with n overridden to the cell's
/// size; `seed` is the cell's trial_seed().
struct EvalContext {
  net::ScalingParams params;
  std::uint64_t seed = 0;
};

/// Measures one instance: cell context → per-node rate λ. The single
/// evaluator signature for run_sweep; new fields reach evaluators by
/// growing EvalContext instead of multiplying overloads.
using SweepEvaluator = std::function<double(const EvalContext&)>;

struct SweepPoint {
  std::size_t n = 0;
  double lambda_gm = 0.0;     // geometric mean over trials
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  std::size_t trials = 0;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  analysis::PowerLawFit fit;  // slope of log λ vs log n
  bool fit_valid = false;     // false when some point measured λ = 0
};

struct SweepOptions {
  /// Concurrency cap for the (size, trial) fan-out. 1 = serial on the
  /// calling thread; 0 = util::ThreadPool::default_num_threads(). The
  /// fan-out runs on the process-wide persistent executor
  /// (util::ThreadPool::shared()) — no threads are created per call.
  /// Results are bit-identical for every value — trials are independent
  /// tasks writing pre-allocated slots and the reduction runs serially in
  /// a fixed order.
  std::size_t num_threads = 1;
  std::uint64_t seed0 = 1;
};

/// Geometrically spaced sizes: n₀·ratioⁱ, i = 0..count−1, deduplicated —
/// when llround collapses adjacent points (small n₀·(ratio−1)), each size
/// appears once, so the result may hold fewer than `count` entries.
std::vector<std::size_t> geometric_sizes(std::size_t n0, double ratio,
                                         std::size_t count);

/// Per-trial seed for sweep cell (size_index, trial): a SplitMix64 mix of
/// all three inputs, so nearby (seed0, si, t) tuples land on statistically
/// independent seeds and no two cells of a sweep collide.
std::uint64_t trial_seed(std::uint64_t seed0, std::size_t size_index,
                         std::size_t trial);

/// Canonical traffic-permutation seed for an instance seed: every engine
/// (fluid, slots, CLI, benches) derives the permutation-traffic RNG from
/// this ONE function — trial_seed(seed, 0, 1), the same SplitMix64 family
/// the golden scenarios draw their traffic from — so cross-validating the
/// engines compares the same flows. Replaces the ad-hoc `seed ^ const`
/// derivations that used to differ between fluid and slot paths.
std::uint64_t traffic_seed(std::uint64_t seed);

/// Runs `eval` for every (n, trial) cell; each call receives an
/// EvalContext with params = base except n. Deterministic given
/// options.seed0, for any num_threads. With num_threads != 1 the
/// evaluator is called concurrently and must be thread-safe (pure
/// functions of the context are; lambdas mutating captured state need
/// their own synchronization). Cells start longest first (descending n,
/// stable on index); when cells throw, the error of the first failing cell
/// in that order is rethrown, for any num_threads.
SweepResult run_sweep(const net::ScalingParams& base,
                      const std::vector<std::size_t>& sizes,
                      std::size_t trials, const SweepEvaluator& eval,
                      const SweepOptions& options = {});

}  // namespace manetcap::sim
