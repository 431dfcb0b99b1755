// Slot-level validation: the fluid capacity numbers must be achievable by
// a real spatio-temporal schedule (Definition 5). For each scheme we run
// the packet simulator under saturation and compare delivered throughput
// with the fluid λ of the same instance — the ratio should be an O(1)
// constant, stable across sizes and mobility processes.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/scheme.h"
#include "sim/slotsim.h"
#include "sim/trace.h"
#include "util/artifacts.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {
using namespace manetcap;

struct Case {
  const char* name;
  net::ScalingParams params;
  sim::Scheme scheme;
};

// "scheme-A n=512" → "scheme-A_n512" (artifact file stem).
std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == ' ') out.push_back('_');
    else if (c != '=') out.push_back(c);
  }
  return out;
}

// CI gate: tracing must stay near-free. Runs one representative scheme-B
// instance with and without a trace attached, interleaved min-of-3 per
// variant (min absorbs scheduler noise; interleaving absorbs thermal
// drift), and fails when the traced run is more than 10% slower.
int run_trace_overhead_check() {
  net::ScalingParams p;
  p.alpha = 0.3;
  p.with_bs = true;
  p.K = 0.8;
  p.M = 1.0;
  p.phi = 0.0;
  p.n = 512;
  const auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                       net::BsPlacement::kClusteredMatched,
                                       101);
  rng::Xoshiro256 g(103);
  const auto dest = net::permutation_traffic(p.n, g);
  sim::SlotSimOptions opt;
  opt.scheme = sim::Scheme::kSchemeB;
  opt.slots = 4000;
  opt.warmup = 400;
  opt.seed = 107;

  constexpr int kReps = 3;
  double best_off = 1e300, best_on = 1e300;
  // Untimed warmup rep to fault in code and allocator pools.
  sim::run_slot_sim(net, dest, opt);
  for (int rep = 0; rep < kReps; ++rep) {
    {
      opt.trace = nullptr;
      util::Stopwatch sw;
      sim::run_slot_sim(net, dest, opt);
      best_off = std::min(best_off, sw.seconds());
    }
    {
      sim::Trace trace;
      opt.trace = &trace;
      util::Stopwatch sw;
      sim::run_slot_sim(net, dest, opt);
      best_on = std::min(best_on, sw.seconds());
    }
  }
  const double ratio = best_on / best_off;
  std::cout << "trace overhead: untraced " << best_off * 1e3 << " ms, traced "
            << best_on * 1e3 << " ms, ratio " << ratio << " (limit 1.10)\n";
  if (ratio > 1.10) {
    std::cout << "FAIL: tracing-enabled run regressed more than 10%\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

}  // namespace

int run_program(int argc, char** argv) {
  const util::Flags flags(argc, argv,
                          {"threads", "trace", "trace-overhead-check"});
  if (flags.get_bool("trace-overhead-check", false))
    return run_trace_overhead_check();
  const bool with_trace = flags.get_bool("trace", false);
  const auto num_threads =
      flags.get_count("threads", util::ThreadPool::default_num_threads());
  std::cout << "=== slot-level schedule vs fluid capacity ===\n"
            << "saturated sources, S* scheduling, 4000 slots (400 warmup)\n\n";

  std::vector<Case> cases;
  {
    net::ScalingParams p;
    p.alpha = 0.3;
    p.with_bs = false;
    p.M = 1.0;
    p.n = 512;
    cases.push_back({"scheme-A n=512", p, sim::Scheme::kSchemeA});
    p.n = 1024;
    cases.push_back({"scheme-A n=1024", p, sim::Scheme::kSchemeA});
  }
  {
    net::ScalingParams p;
    p.alpha = 0.0;  // full mixing for two-hop
    p.with_bs = false;
    p.M = 1.0;
    p.n = 256;
    cases.push_back({"two-hop n=256", p, sim::Scheme::kTwoHop});
  }
  {
    net::ScalingParams p;
    p.alpha = 0.3;
    p.with_bs = true;
    p.K = 0.8;
    p.M = 1.0;
    p.phi = 0.0;
    p.n = 512;
    cases.push_back({"scheme-B n=512", p, sim::Scheme::kSchemeB});
    p.n = 1024;
    cases.push_back({"scheme-B n=1024", p, sim::Scheme::kSchemeB});
  }
  {
    // Trivial regime (α > ½, see DESIGN.md) with the Definition 13
    // cluster-grid BS placement.
    net::ScalingParams p;
    p.alpha = 0.75;
    p.with_bs = true;
    p.K = 0.6;
    p.M = 0.2;
    p.R = 0.3;
    p.phi = 0.0;
    p.n = 1024;
    cases.push_back({"scheme-C n=1024", p, sim::Scheme::kSchemeC});
  }

  // The slot simulator's *mean* flow rate is the typical-flow quantity, so
  // it is compared against the symmetric fluid estimate; the strict fluid
  // λ (worst flow) pairs with the p10 tail.
  util::Table t({"case", "fluid strict", "fluid symmetric", "slot mean rate",
                 "slot p10 rate", "slot/symmetric", "pairs/slot"});

  // Every case is an independent instance + simulation: fan the cases out
  // across the pool, then emit rows in declaration order.
  struct CaseResult {
    double strict = 0.0, symmetric = 0.0;
    sim::SlotSimResult slot;
    sim::Metrics metrics;  // per-case audit trail (counters + slot series)
    sim::Trace trace;      // captured only when --trace is set
  };
  std::vector<CaseResult> results(cases.size());
  const auto run_case = [&cases, &results, with_trace](std::size_t i) {
    const auto& c = cases[i];
    auto net = net::Network::build(
        c.params, mobility::ShapeKind::kUniformDisk,
        c.scheme == sim::Scheme::kSchemeC ? net::BsPlacement::kClusterGrid
                                          : net::BsPlacement::kClusteredMatched,
        101);
    rng::Xoshiro256 g(103);
    auto dest = net::permutation_traffic(c.params.n, g);

    const auto fluid = sim::evaluate_scheme(net, dest, c.scheme);

    sim::SlotSimOptions opt;
    opt.scheme = c.scheme;
    opt.slots = 4000;
    opt.warmup = 400;
    opt.seed = 107;
    results[i].strict = fluid.throughput.lambda;
    results[i].symmetric = fluid.lambda_symmetric;
    results[i].metrics.enable_series(opt.slots);
    opt.metrics = &results[i].metrics;
    if (with_trace) opt.trace = &results[i].trace;
    results[i].slot = sim::run_slot_sim(net, dest, opt);
  };
  util::ThreadPool::shared().parallel_for(cases.size(), run_case, num_threads);

  // --trace: replay every captured event log through the invariant
  // checker; a violation in any case fails the bench.
  bool traces_ok = true;
  if (with_trace) {
    std::cout << "=== trace replay (sim::verify_trace) ===\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto verdict = sim::verify_trace(results[i].trace);
      std::cout << cases[i].name << " [" << results[i].trace.events.size()
                << " events]: " << verdict.summary();
      traces_ok = traces_ok && verdict.ok;
    }
    std::cout << "\n";
  }

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const auto& res = results[i];
    const auto& r = res.slot;
    t.add_row({c.name, util::fmt_sci(res.strict, 3),
               util::fmt_sci(res.symmetric, 3),
               util::fmt_sci(r.mean_flow_rate, 3),
               util::fmt_sci(r.p10_flow_rate, 3),
               res.symmetric > 0.0
                   ? util::fmt_double(r.mean_flow_rate / res.symmetric, 3)
                   : "-",
               util::fmt_double(r.pairs_per_slot, 3)});
  }
  t.print(std::cout);

  // Packet-conservation audit: every recorded run ships its accounting.
  // The invariant injected == delivered + queued + dropped was already
  // checked inside run_slot_sim; this table (and the CSVs under
  // bench_csv/) make the flow visible — rejects and stalls are where
  // throughput quietly leaks.
  std::cout << "\n=== packet-conservation audit ===\n";
  util::Table audit_table({"case", "injected", "delivered", "queued end",
                           "inject rej", "relay rej", "wired stalls"});
  {
    util::CsvWriter audit_csv(util::artifact_path("slotsim_validation_audit"),
                              {"case", "counter", "value"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& m = results[i].metrics;
      const auto& r = results[i].slot;
      audit_table.add_row(
          {cases[i].name, std::to_string(r.injected),
           std::to_string(r.delivered_lifetime), std::to_string(r.queued_end),
           std::to_string(m.count(sim::Counter::kInjectRejectQueueFull)),
           std::to_string(m.count(sim::Counter::kRelayRejectQueueFull)),
           std::to_string(m.count(sim::Counter::kWiredCreditStall))});
      for (std::size_t ci = 0; ci < sim::kNumCounters; ++ci) {
        const auto counter = static_cast<sim::Counter>(ci);
        audit_csv.add_row({cases[i].name, sim::to_string(counter),
                           std::to_string(m.count(counter))});
      }
      results[i].metrics.write_series_csv("slotsim_validation_" +
                                          sanitize(cases[i].name));
    }
  }
  audit_table.print(std::cout);

  std::cout << "\n=== mobility-process insensitivity (Lemma 2) ===\n"
            << "same instance, three ergodic processes sharing the\n"
            << "stationary law; delivered throughput should agree.\n";
  {
    net::ScalingParams p;
    p.alpha = 0.3;
    p.with_bs = false;
    p.M = 1.0;
    p.n = 512;
    auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                   net::BsPlacement::kUniform, 109);
    rng::Xoshiro256 g(113);
    auto dest = net::permutation_traffic(p.n, g);
    util::Table t2({"mobility process", "slot mean rate", "pairs/slot"});
    const std::vector<sim::SlotMobility> mobs = {sim::SlotMobility::kIid,
                                                 sim::SlotMobility::kWalk,
                                                 sim::SlotMobility::kPullHome};
    std::vector<sim::SlotSimResult> mob_results(mobs.size());
    const auto run_mobility = [&mobs, &mob_results, &net,
                               &dest](std::size_t i) {
      sim::SlotSimOptions opt;
      opt.scheme = sim::Scheme::kSchemeA;
      opt.mobility = mobs[i];
      opt.slots = 4000;
      opt.warmup = 400;
      opt.seed = 127;
      mob_results[i] = sim::run_slot_sim(net, dest, opt);
    };
    util::ThreadPool::shared().parallel_for(mobs.size(), run_mobility,
                                            num_threads);
    for (std::size_t i = 0; i < mobs.size(); ++i) {
      const auto& r = mob_results[i];
      const char* name = mobs[i] == sim::SlotMobility::kIid    ? "iid"
                         : mobs[i] == sim::SlotMobility::kWalk ? "bounded walk"
                                                               : "AR(1) pull";
      t2.add_row({name, util::fmt_sci(r.mean_flow_rate, 3),
                  util::fmt_double(r.pairs_per_slot, 3)});
    }
    t2.print(std::cout);
  }
  return traces_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return manetcap::util::run_main(argc, argv, run_program);
}
