#include "sim/flowsim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/stats.h"
#include "routing/rate_structure.h"
#include "sim/route_tables.h"
#include "sim/wire_credit.h"
#include "util/check.h"

namespace manetcap::sim {

namespace {

// Rate/credit update granularity, in slots.
constexpr std::size_t kEpochSlots = 64;

// Water-filling rounds after the initial TDMA share.
constexpr std::size_t kMaxMinRounds = 4;

template <class T>
std::uint64_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Per-flow TDMA share over the incidence: flow f may run at the smallest
/// cap/load ratio among the constraints it touches. Simultaneously
/// feasible (Σ_f coeff·r_f ≤ Σ_f coeff·cap/load ≤ cap since
/// Σ coeff ≤ load), and min over served flows equals the constraint
/// solver's λ exactly — the binding row is incident to some flow.
void tdma_shares(const routing::RateStructure& rs, std::vector<double>& r) {
  const std::size_t n = r.size();
  for (std::size_t f = 0; f < n; ++f) {
    if (rs.flow_served[f] == 0) continue;
    double share = std::numeric_limits<double>::infinity();
    for (std::uint32_t j = rs.flow_start[f]; j < rs.flow_start[f + 1]; ++j) {
      const flow::Constraint& c = rs.constraints[rs.incid_cid[j]];
      share = std::min(share, c.capacity / c.unit_load);
    }
    r[f] = std::isfinite(share) ? share : 0.0;
  }
}

/// Bounded max-min refinement: each of kMaxMinRounds rounds raises every
/// flow by the largest uniform increment its slackest path allows
/// (δ_f = min over incident c of slack_c / unit_load_c). The simultaneous
/// raise stays feasible for the same Σ coeff ≤ load argument as above.
void water_fill(const routing::RateStructure& rs, std::vector<double>& r) {
  const std::size_t n = r.size();
  std::vector<double> usage(rs.constraints.size(), 0.0);
  for (std::size_t round = 0; round < kMaxMinRounds; ++round) {
    std::fill(usage.begin(), usage.end(), 0.0);
    for (std::size_t f = 0; f < n; ++f) {
      if (rs.flow_served[f] == 0) continue;
      for (std::uint32_t j = rs.flow_start[f]; j < rs.flow_start[f + 1];
           ++j)
        usage[rs.incid_cid[j]] += rs.incid_coeff[j] * r[f];
    }
    bool raised = false;
    for (std::size_t f = 0; f < n; ++f) {
      if (rs.flow_served[f] == 0) continue;
      double delta = std::numeric_limits<double>::infinity();
      for (std::uint32_t j = rs.flow_start[f]; j < rs.flow_start[f + 1];
           ++j) {
        const std::uint32_t cid = rs.incid_cid[j];
        const flow::Constraint& c = rs.constraints[cid];
        const double slack = c.capacity - usage[cid];
        delta = std::min(delta, slack / c.unit_load);
      }
      if (std::isfinite(delta) && delta > 0.0) {
        r[f] += delta;
        raised = true;
      }
    }
    if (!raised) break;
  }
}

/// One resolved churn transition (slot ascending, plan order preserved).
struct ChurnEvent {
  std::size_t slot = 0;
  std::uint32_t ms = 0;
  bool join = false;
};

FlowSimResult run_flow_sim_impl(const net::Network& net,
                                const std::vector<std::uint32_t>& dest,
                                const std::vector<net::FlowDemand>* demands,
                                const FlowSimOptions& opt) {
  const std::size_t n = net.num_ms();
  MANETCAP_CHECK_MSG(dest.size() == n,
                     "FlowSimOptions: dest must hold one entry per MS");
  net::validate_traffic_dest(dest, n, "FlowSimOptions");
  MANETCAP_CHECK_MSG(opt.warmup < opt.slots,
                     "FlowSimOptions: warmup (" << opt.warmup
                         << ") must be < slots (" << opt.slots << ")");

  // Churn timeline: the fluid engine takes leave/join only. Liveness is
  // piecewise constant over epochs (boundaries are clamped to churn
  // slots below), which is exactly the granularity the fluid model has.
  std::vector<ChurnEvent> churn;
  std::vector<std::uint8_t> alive;  // empty = everyone present throughout
  if (opt.faults != nullptr) {
    opt.faults->validate(net.num_bs(), opt.slots, n);
    MANETCAP_CHECK_MSG(
        !opt.faults->has_infra() && !opt.faults->has_shift(),
        "FlowSimOptions: the fluid engine accepts churn-only fault plans "
        "(leave@/join@); infrastructure and mobility-shift events need the "
        "slots engine");
    for (const FaultEvent& e : opt.faults->events)
      churn.push_back({e.slot, e.ms, e.kind == FaultKind::kMsJoin});
  }
  if (!churn.empty()) {
    alive.assign(n, 1);
    // An MS whose first event is a join starts the run absent (the
    // packet engine's rule).
    std::vector<std::uint8_t> seen(n, 0);
    for (const ChurnEvent& e : churn) {
      if (seen[e.ms] != 0) continue;
      seen[e.ms] = 1;
      if (e.join) alive[e.ms] = 0;
    }
  }

  // --- rate structure from the routing evaluator ---------------------------
  routing::RateStructure rs;
  FlowSimResult res;
  res.measured_slots = opt.slots - opt.warmup;
  const SchemeEval ev = evaluate_scheme(
      net, dest, opt.scheme, {opt.grouping, opt.bandwidth_share, opt.delta},
      &rs);
  res.lambda_strict = ev.throughput.lambda;
  res.lambda_symmetric = ev.lambda_symmetric;
  res.bottleneck = ev.throughput.bottleneck;
  res.bottleneck_label = ev.throughput.bottleneck_label;
  res.degenerate = ev.degenerate;

  Metrics audit;
  if (opt.metrics != nullptr && opt.metrics->series_enabled())
    audit.enable_series(opt.slots);

  if (res.degenerate) {
    // Scheme cannot operate at this size: nothing injected, identity holds
    // trivially (0 == 0 + 0 + 0).
    if (opt.metrics != nullptr) opt.metrics->absorb(std::move(audit));
    return res;
  }

  // --- rate allocation -----------------------------------------------------
  std::vector<double> rate(n, 0.0);
  tdma_shares(rs, rate);
  water_fill(rs, rate);
  for (std::size_t f = 0; f < n; ++f)
    if (rs.flow_served[f] != 0) ++res.served_flows;

  // --- wired-credit pacing setup (infrastructure schemes) ------------------
  // Each cross-BS flow rides ONE wired edge — the first serving BS of its
  // source paired with the first serving BS of its destination, the same
  // edge SlotSim's wired_step drives — and shares that edge's token bucket
  // with every other flow mapped to it. This is deliberately more
  // restrictive than the evaluator's spread/Valiant aggregate: it is where
  // the flow engine models per-edge contention the closed form averages
  // away. flow_edge holds the ledger's dense edge ids (first-use order).
  constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};
  std::vector<std::uint32_t> flow_edge;
  WireCreditMap credit;
  if (uses_bs(opt.scheme)) {
    const ServingTables st =
        opt.scheme == Scheme::kSchemeB
            ? build_scheme_b_serving(net, opt.ct, opt.delta)
            : build_scheme_c_association(net);
    flow_edge.assign(n, kNoEdge);
    for (std::uint32_t s = 0; s < n; ++s) {
      if (rs.flow_served[s] == 0) continue;
      const std::uint32_t a = st.serving_ids[st.serving_start[s]];
      const std::uint32_t b = st.serving_ids[st.serving_start[dest[s]]];
      if (a == b) continue;  // intra-BS: never touches a wire
      flow_edge[s] = credit.try_emplace(wire_edge_key(a, b)).first;
    }
  }
  const double wired_c = net.num_bs() > 0 ? net.params().c() : 0.0;

  // Per-flow demand decorations; identity values on the legacy path, so
  // a default demand set reproduces the dest overload's arithmetic
  // exactly (duty 1.0 and start 0.0 are exact multiplicative/additive
  // identities in IEEE arithmetic).
  const auto duty_of = [&](std::uint32_t f) {
    if (demands == nullptr) return 1.0;
    const net::FlowDemand& d = (*demands)[f];
    return d.always_on() ? 1.0 : d.on_mean / (d.on_mean + d.off_mean);
  };
  const auto start_of = [&](std::uint32_t f) {
    return demands == nullptr ? 0.0
                              : static_cast<double>((*demands)[f].start);
  };
  const auto size_of = [&](std::uint32_t f) {
    return demands == nullptr ? std::numeric_limits<double>::infinity()
                              : static_cast<double>((*demands)[f].size);
  };
  const auto flow_live = [&](std::uint32_t f) {
    return alive.empty() || (alive[f] != 0 && alive[dest[f]] != 0);
  };

  // --- epoch loop: continuous volumes, floored audit units -----------------
  std::vector<double> inject_cum(n, 0.0);
  std::vector<double> deliver_cum(n, 0.0);
  std::vector<double> drop_cum(n, 0.0);  // churn-flushed backlog per flow
  std::vector<double> deliver_at_warmup(n, 0.0);
  std::vector<double> edge_demand(credit.size(), 0.0);
  std::vector<double> edge_grant(credit.size(), 1.0);
  std::uint64_t prev_inj = 0, prev_del = 0, prev_wired = 0, prev_drop = 0;
  std::size_t next_churn = 0;
  std::size_t t0 = 0;
  while (t0 < opt.slots) {
    std::size_t t1 = std::min(opt.slots, t0 + kEpochSlots);
    if (t0 < opt.warmup && opt.warmup < t1) t1 = opt.warmup;
    // Apply churn transitions due at the start of t0, then clamp the
    // epoch so no transition falls strictly inside it — liveness is
    // constant over [t0, t1).
    while (next_churn < churn.size() && churn[next_churn].slot <= t0) {
      const ChurnEvent& e = churn[next_churn++];
      if (e.join) {
        alive[e.ms] = 1;
        audit.inc(Counter::kMsJoined);
        continue;
      }
      alive[e.ms] = 0;
      audit.inc(Counter::kMsLeft);
      // Flush the fluid backlog of every flow the leaver sources or
      // terminates — the packet engine's leave-time queue drops.
      for (std::uint32_t f = 0; f < n; ++f) {
        if (f != e.ms && dest[f] != e.ms) continue;
        drop_cum[f] = inject_cum[f] - deliver_cum[f];
      }
    }
    if (next_churn < churn.size() && churn[next_churn].slot < t1)
      t1 = churn[next_churn].slot;
    const double dt = static_cast<double>(t1 - t0);

    // Wired pacing: aggregate each edge's desired transit volume, then
    // grant min(1, bucket/demand) uniformly to the flows on the edge. The
    // bucket is SlotSim's exact token bucket (accrual c·scale per slot,
    // depth max(1, 4c)).
    if (credit.size() != 0) {
      std::fill(edge_demand.begin(), edge_demand.end(), 0.0);
      for (std::uint32_t f = 0; f < n; ++f) {
        if (flow_edge[f] == kNoEdge) continue;
        if (!flow_live(f)) continue;
        const double start = std::max(static_cast<double>(t0),
                                      start_of(f) + rs.flow_hops[f]);
        const double window = std::max(0.0, static_cast<double>(t1) - start);
        edge_demand[flow_edge[f]] += rate[f] * duty_of(f) * window;
      }
      for (std::uint32_t e = 0; e < credit.size(); ++e) {
        WireState& w = credit.at(e);
        w.credit = std::min(w.credit + wired_c * w.scale * dt,
                            wire_bucket_depth(wired_c));
        if (edge_demand[e] <= 0.0) {
          edge_grant[e] = 1.0;
          continue;
        }
        const double g = std::min(1.0, w.credit / edge_demand[e]);
        edge_grant[e] = g;
        w.credit -= g * edge_demand[e];
        if (g < 1.0) audit.inc(Counter::kWiredCreditStall);
      }
    }

    std::uint64_t inj_units = 0, del_units = 0, queued_units = 0;
    std::uint64_t wired_units = 0, drop_units = 0;
    for (std::uint32_t f = 0; f < n; ++f) {
      if (rs.flow_served[f] == 0) continue;
      const bool live = flow_live(f);
      const double duty = duty_of(f);
      if (live) {
        const double istart =
            std::max(static_cast<double>(t0), start_of(f));
        const double iwin =
            std::max(0.0, static_cast<double>(t1) - istart);
        inject_cum[f] =
            std::min(inject_cum[f] + rate[f] * duty * iwin, size_of(f));
      }
      const double start = std::max(static_cast<double>(t0),
                                    start_of(f) + rs.flow_hops[f]);
      const double window =
          live ? std::max(0.0, static_cast<double>(t1) - start) : 0.0;
      double vol = rate[f] * duty * window;
      const bool wired = flow_edge.size() == n && flow_edge[f] != kNoEdge;
      if (wired) vol *= edge_grant[flow_edge[f]];
      // Fluid can never deliver more than was injected and not dropped
      // (pipeline depth only delays, grants only shrink).
      deliver_cum[f] =
          std::min(deliver_cum[f] + vol, inject_cum[f] - drop_cum[f]);
      const auto iu = static_cast<std::uint64_t>(inject_cum[f]);
      const auto du = static_cast<std::uint64_t>(deliver_cum[f]);
      const auto dru = static_cast<std::uint64_t>(drop_cum[f]);
      inj_units += iu;
      del_units += du;
      drop_units += dru;
      queued_units += iu - du - dru;
      if (wired) wired_units += du;
    }
    audit.add(Counter::kInjected, inj_units - prev_inj);
    audit.add(Counter::kDelivered, del_units - prev_del);
    audit.add(Counter::kWiredForwarded, wired_units - prev_wired);
    audit.add(Counter::kDropped, drop_units - prev_drop);
    audit.add(Counter::kDroppedMsChurn, drop_units - prev_drop);
    prev_inj = inj_units;
    prev_del = del_units;
    prev_wired = wired_units;
    prev_drop = drop_units;
    audit.sample_slot(static_cast<std::uint32_t>(t1 - 1), queued_units, 0, 0,
                      0);

    if (t1 == opt.warmup) deliver_at_warmup = deliver_cum;
    t0 = t1;
  }

  // --- results -------------------------------------------------------------
  std::vector<double> measured(n, 0.0);
  for (std::size_t f = 0; f < n; ++f)
    measured[f] = (deliver_cum[f] - deliver_at_warmup[f]) /
                  static_cast<double>(res.measured_slots);
  const auto summary = analysis::summarize(measured);
  res.mean_flow_rate = summary.mean;
  res.min_flow_rate = summary.min;
  res.p10_flow_rate = analysis::quantile(measured, 0.10);

  res.injected = prev_inj;
  res.delivered_lifetime = prev_del;
  res.dropped = prev_drop;
  res.queued_end = res.injected - res.delivered_lifetime - res.dropped;
  if (opt.check_conservation) {
    MANETCAP_CHECK_MSG(
        res.injected ==
            res.delivered_lifetime + res.queued_end + res.dropped,
        "flow conservation violated: injected != delivered + backlog + "
        "dropped");
  }
  res.state_bytes = vec_bytes(rate) + vec_bytes(inject_cum) +
                    vec_bytes(deliver_cum) + vec_bytes(drop_cum) +
                    vec_bytes(deliver_at_warmup) +
                    vec_bytes(measured) + vec_bytes(flow_edge) +
                    vec_bytes(edge_demand) +
                    vec_bytes(edge_grant) + vec_bytes(rs.constraints) +
                    vec_bytes(rs.flow_start) + vec_bytes(rs.incid_cid) +
                    vec_bytes(rs.incid_coeff) + vec_bytes(rs.flow_hops) +
                    vec_bytes(rs.flow_served) + credit.memory_bytes();
  if (opt.metrics != nullptr) opt.metrics->absorb(std::move(audit));
  return res;
}

}  // namespace

FlowSimResult run_flow_sim(const net::Network& net,
                           const std::vector<std::uint32_t>& dest,
                           const FlowSimOptions& options) {
  return run_flow_sim_impl(net, dest, nullptr, options);
}

FlowSimResult run_flow_sim(const net::Network& net,
                           const std::vector<net::FlowDemand>& demands,
                           const FlowSimOptions& options) {
  net::validate_demands(demands, net.num_ms());
  const std::vector<std::uint32_t> dest = net::dest_of(demands);
  return run_flow_sim_impl(net, dest, &demands, options);
}

}  // namespace manetcap::sim
