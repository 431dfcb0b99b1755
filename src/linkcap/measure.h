// Monte-Carlo measurement of link capacity and scheduling statistics.
//
// These estimators validate the analytic model empirically:
//  * meeting probability of a pair at given home-distance (Corollary 1),
//  * S* busy probability per node (Lemma 3: bounded below by a constant),
//  * per-slot S* pair statistics over a real mobility process.
#pragma once

#include <cstddef>
#include <vector>

#include "mobility/process.h"
#include "mobility/shape.h"
#include "net/network.h"
#include "rng/rng.h"
#include "sched/sstar.h"

namespace manetcap::linkcap {

/// A Monte-Carlo probability estimate with its binomial standard error.
struct Estimate {
  double value = 0.0;
  double stderr_ = 0.0;
  std::size_t trials = 0;
};

/// Estimates Pr{ d_ij ≤ rt } for two MSs whose home-points are `home_dist`
/// apart, both moving with stationary law φ ∝ s(f‖·‖).
Estimate estimate_meeting_probability(const mobility::Shape& shape, double f,
                                      double home_dist, double rt,
                                      std::size_t trials, rng::Xoshiro256& g);

/// Estimates Pr{ d ≤ rt } between a MS (home at distance `home_dist`) and a
/// static BS.
Estimate estimate_meeting_probability_bs(const mobility::Shape& shape,
                                         double f, double home_dist,
                                         double rt, std::size_t trials,
                                         rng::Xoshiro256& g);

/// Per-node fraction of slots in which the node is a member of an
/// S*-feasible pair, measured over `slots` steps of `process` with the BSs
/// (static) appended to the population. Result has process.size() +
/// bs.size() entries (Lemma 3 asserts a constant lower bound for each).
/// Lemma 3 is a protocol-model statement, so the pairs are S*'s own.
std::vector<double> measure_busy_probability(
    mobility::MobilityProcess& process,
    const std::vector<geom::Point>& bs_pos,
    const sched::SStarScheduler& sstar, std::size_t slots);

}  // namespace manetcap::linkcap
