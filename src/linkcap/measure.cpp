#include "linkcap/measure.h"

#include <cmath>

#include "util/check.h"

namespace manetcap::linkcap {

namespace {
Estimate finish(std::size_t hits, std::size_t trials) {
  Estimate e;
  e.trials = trials;
  e.value = static_cast<double>(hits) / static_cast<double>(trials);
  e.stderr_ = std::sqrt(e.value * (1.0 - e.value) /
                        static_cast<double>(trials));
  return e;
}

std::vector<geom::Point> combined_positions(
    const mobility::MobilityProcess& process,
    const std::vector<geom::Point>& bs_pos) {
  std::vector<geom::Point> pos = process.positions();
  pos.insert(pos.end(), bs_pos.begin(), bs_pos.end());
  return pos;
}
}  // namespace

Estimate estimate_meeting_probability(const mobility::Shape& shape, double f,
                                      double home_dist, double rt,
                                      std::size_t trials,
                                      rng::Xoshiro256& g) {
  MANETCAP_CHECK(trials > 0);
  const geom::Point hi{0.25, 0.25};
  const geom::Point hj = hi.displaced({home_dist, 0.0});
  const double inv_f = 1.0 / f;
  const double rt2 = rt * rt;
  std::size_t hits = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    geom::Point xi = hi.displaced(shape.sample_displacement(g) * inv_f);
    geom::Point xj = hj.displaced(shape.sample_displacement(g) * inv_f);
    if (geom::torus_dist2(xi, xj) <= rt2) ++hits;
  }
  return finish(hits, trials);
}

Estimate estimate_meeting_probability_bs(const mobility::Shape& shape,
                                         double f, double home_dist,
                                         double rt, std::size_t trials,
                                         rng::Xoshiro256& g) {
  MANETCAP_CHECK(trials > 0);
  const geom::Point h{0.25, 0.25};
  const geom::Point y = h.displaced({home_dist, 0.0});
  const double inv_f = 1.0 / f;
  const double rt2 = rt * rt;
  std::size_t hits = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    geom::Point xi = h.displaced(shape.sample_displacement(g) * inv_f);
    if (geom::torus_dist2(xi, y) <= rt2) ++hits;
  }
  return finish(hits, trials);
}

std::vector<double> measure_busy_probability(
    mobility::MobilityProcess& process,
    const std::vector<geom::Point>& bs_pos,
    const sched::SStarScheduler& sstar, std::size_t slots) {
  MANETCAP_CHECK(slots > 0);
  const std::size_t pop = process.size() + bs_pos.size();
  std::vector<std::size_t> busy(pop, 0);
  for (std::size_t t = 0; t < slots; ++t) {
    auto pos = combined_positions(process, bs_pos);
    for (const auto& pair : sstar.feasible_pairs(pos)) {
      ++busy[pair.tx];
      ++busy[pair.rx];
    }
    process.step();
  }
  std::vector<double> out(pop);
  for (std::size_t i = 0; i < pop; ++i)
    out[i] = static_cast<double>(busy[i]) / static_cast<double>(slots);
  return out;
}

}  // namespace manetcap::linkcap
