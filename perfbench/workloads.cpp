#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <unistd.h>

#include "geom/spatial_hash.h"
#include "mobility/process.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "routing/rate_structure.h"
#include "routing/scheme_a.h"
#include "routing/scheme_b.h"
#include "sched/sstar.h"
#include "sim/engine.h"
#include "sim/route_tables.h"
#include "sim/sweep.h"
#include "util/binio.h"

namespace perfbench {

namespace {

using namespace manetcap;

/// util::binio's FNV-1a over the exact bit patterns of the values fed in.
class Digest {
 public:
  Digest& u64(std::uint64_t v) {
    util::binio::put_u64_fixed(bytes_, v);
    return *this;
  }
  Digest& f64(double v) {
    util::binio::put_f64(bytes_, v);
    return *this;
  }
  Digest& str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    return *this;
  }
  std::uint64_t value() const {
    return util::binio::fnv1a(bytes_.data(), bytes_.size());
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

net::ScalingParams params(std::size_t n, double alpha, double K, double M,
                          double R) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = alpha;
  p.with_bs = true;
  p.K = K;
  p.M = M;
  p.R = R;
  return p;
}

/// λ, pairs per slot, the packet audit and the S* counters.
void pin_slot(Digest& d, const sim::SlotSimResult& r, const sim::Metrics& m) {
  d.f64(r.mean_flow_rate).f64(r.min_flow_rate).f64(r.p10_flow_rate);
  d.f64(r.pairs_per_slot).u64(r.total_delivered);
  d.u64(r.injected).u64(r.delivered_lifetime).u64(r.queued_end).u64(r.dropped);
  d.u64(m.count(sim::Counter::kSchedCandidatePairs))
      .u64(m.count(sim::Counter::kSchedFeasiblePairs))
      .u64(m.count(sim::Counter::kSchedRangeRejected));
}

/// Every field and counter of a SlotSim run but state_bytes.
std::uint64_t behaviour_slot(const sim::SlotSimResult& r,
                             const sim::Metrics& m) {
  Digest d;
  pin_slot(d, r, m);
  d.u64(r.measured_slots).f64(r.mean_delay).f64(r.p95_delay);
  d.u64(r.dropped_bs_outage).u64(r.dropped_ms_churn);
  for (std::size_t c = 0; c < sim::kNumCounters; ++c)
    d.u64(m.count(static_cast<sim::Counter>(c)));
  return d.value();
}

/// Every field and counter of a SlotSim run.
std::uint64_t full_slot(const sim::SlotSimResult& r, const sim::Metrics& m) {
  return Digest().u64(behaviour_slot(r, m)).u64(r.state_bytes).value();
}

void pin_flow(Digest& d, const sim::FlowSimResult& r) {
  d.f64(r.mean_flow_rate).f64(r.min_flow_rate).f64(r.p10_flow_rate);
  d.f64(r.lambda_strict).f64(r.lambda_symmetric).u64(r.served_flows);
  d.u64(r.injected).u64(r.delivered_lifetime).u64(r.queued_end).u64(r.dropped);
}

void full_flow(Digest& d, const sim::FlowSimResult& r, const sim::Metrics& m) {
  pin_flow(d, r);
  d.u64(static_cast<std::uint64_t>(r.bottleneck)).str(r.bottleneck_label);
  d.u64(r.degenerate ? 1 : 0).u64(r.measured_slots).u64(r.state_bytes);
  for (std::size_t c = 0; c < sim::kNumCounters; ++c)
    d.u64(m.count(static_cast<sim::Counter>(c)));
}

/// The benchmark's own copy of the engines' conservation identity.
void check_audit(const char* what, std::uint64_t injected,
                 std::uint64_t delivered, std::uint64_t queued,
                 std::uint64_t dropped, std::vector<std::string>& errors) {
  if (injected == delivered + queued + dropped) return;
  std::ostringstream os;
  os << what << ": injected " << injected << " != delivered " << delivered
     << " + queued " << queued << " + dropped " << dropped;
  errors.push_back(os.str());
}

/// Bucket of `p` in a g×g spatial hash — the same arithmetic as
/// geom::SpatialHash, which keeps its own private.
std::int64_t bucket_of(geom::Point p, std::int64_t g) {
  const auto coord = [g](double v) {
    const auto c = static_cast<std::int64_t>(v * static_cast<double>(g));
    return std::min(std::max<std::int64_t>(c, 0), g - 1);
  };
  return coord(p.y) * g + coord(p.x);
}

std::string check_line(bool ok, const std::string& what) {
  return (ok ? "ok " : "FAIL ") + what;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each workload exists is in BENCHMARK.json and README.md.
  static const std::vector<Workload> list = [] {
    const sim::EngineOptions engine_defaults;
    const net::ScalingParams strong = params(100000, 0.35, 0.7, 1.0, 0.0);
    return std::vector<Workload>{
        // name, engine, params, placement, slots, warmup, checkpoint_every,
        // pinned digest at kDefaultSeed
        {"slotsim-b-uniform-1e5", Engine::kSlotSimB, strong,
         net::BsPlacement::kClusteredMatched, 40, 4, 0, 0xfe5ad321472c6b66ULL},
        {"slotsim-b-clustered-1e5", Engine::kSlotSimB,
         params(100000, 0.45, 0.75, 0.45, 0.35),
         net::BsPlacement::kClusteredMatched, 20, 2, 0, 0xcee69287996670c9ULL},
        {"flowsim-hybrid-1e5", Engine::kFlowSimHybrid, strong,
         sim::engine_placement(strong, false, engine_defaults.placement),
         engine_defaults.slots, engine_defaults.warmup, 0,
         0x86c971d6f05208dcULL},
        {"slotsim-c-ckpt-2e4", Engine::kSlotSimCResume,
         params(20000, 0.75, 0.6, 0.2, 0.3), net::BsPlacement::kClusterGrid,
         1000, 100, 300, 0x18c84a0ea0af38d7ULL},
    };
  }();
  return list;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> list = {
      {"net.build_s", "s"},
      {"mobility.shape_s", "s"},
      {"net.traffic_s", "s"},
      {"mobility.step_s", "s"},
      {"geom.hash_move_s", "s"},
      {"geom.rebucket_share", "ratio"},
      {"sched.lone_scan_s", "s"},
      {"sched.extract_s", "s"},
      {"sched.feasible_pairs", "count"},
      {"sched.candidate_pairs", "count"},
      {"sched.lone_yield", "ratio"},
      {"route_tables.serving_s", "s"},
      {"slotsim.forwarding_s", "s"},
      {"slotsim.delivered", "count"},
      {"slotsim.wired_credit_stall", "count"},
      {"slotsim.downlink_starved", "count"},
      {"slotsim.state_bytes_per_ms", "B"},
      {"ckpt.save_s", "s"},
      {"ckpt.bytes", "B"},
      {"ckpt.resume_s", "s"},
      {"routing.scheme_a_rows_s", "s"},
      {"routing.scheme_b_rows_s", "s"},
      {"routing.rows", "count"},
      {"routing.incidence_nnz", "count"},
      {"flowsim.alloc_epoch_s", "s"},
      {"flowsim.state_bytes_per_ms", "B"},
  };
  return list;
}

Instance build_instance(const Workload& w, std::uint64_t seed,
                        SpanLog* log) {
  const sim::EngineOptions engine_defaults;
  SpanScope setup(log, "setup");
  std::optional<net::Network> net;
  {
    SpanScope s(log, "net.build");
    net.emplace(net::Network::build(w.params, engine_defaults.shape,
                                    w.placement, seed));
  }
  if (log != nullptr) {
    // Network::build constructs this shape (its η table) internally.
    SpanScope s(log, "mobility.shape");
    const mobility::Shape shape(engine_defaults.shape,
                                w.params.shape_support);
    MANETCAP_CHECK(bits_equal(shape.eta0(), net->shape().eta0()));
  }
  std::vector<std::uint32_t> dest;
  {
    SpanScope s(log, "net.traffic");
    rng::Xoshiro256 g(sim::traffic_seed(seed));
    dest = net::permutation_traffic(w.params.n, g);
  }
  return Instance{std::move(*net), std::move(dest)};
}

Runner::Runner(const Workload& w, std::uint64_t seed, std::string scratch)
    : w_(w), seed_(seed) {
  if (w.engine == Engine::kSlotSimCResume)
    ckpt_path_ = scratch + "/" + w.name + "-" + std::to_string(::getpid()) +
                 ".ckpt";
}

Runner::~Runner() {
  if (!ckpt_path_.empty()) std::remove(ckpt_path_.c_str());
}

sim::SlotSimOptions Runner::slot_options() const {
  sim::SlotSimOptions o;
  o.scheme = w_.engine == Engine::kSlotSimB ? sim::SlotScheme::kSchemeB
                                            : sim::SlotScheme::kSchemeC;
  o.mobility = sim::SlotMobility::kIid;
  o.phy = phy::PhyKind::kProtocol;
  o.slots = w_.slots;
  o.warmup = w_.warmup;
  o.seed = seed_;
  o.shards = 1;
  o.check_conservation = true;
  return o;
}

sim::FlowSimOptions Runner::flow_options() const {
  // The fluid half of sim::measure_instance for a strong-regime instance
  // with BSs under the protocol model (no SINR derate).
  sim::FlowSimOptions o;
  o.slots = w_.slots;
  o.warmup = w_.warmup;
  o.grouping = routing::BsGrouping::kSquarelet;
  o.bandwidth_share = 1.0;
  o.seed = seed_;
  o.check_conservation = true;
  return o;
}

OpResult Runner::run_op(const Instance& inst, SpanLog* log) const {
  OpResult r;
  Digest full, pinned;
  switch (w_.engine) {
    case Engine::kSlotSimB: {
      sim::SlotSimOptions o = slot_options();
      o.metrics = &r.slot_audit;
      r.slot = sim::run_slot_sim(inst.net, inst.dest, o);
      pin_slot(pinned, r.slot, r.slot_audit);
      full.u64(full_slot(r.slot, r.slot_audit));
      r.lambda = r.slot.mean_flow_rate;
      break;
    }
    case Engine::kSlotSimCResume: {
      sim::SlotSimOptions o = slot_options();
      o.metrics = &r.slot_audit;
      o.checkpoint_every = w_.checkpoint_every;
      o.checkpoint_path = ckpt_path_;
      {
        SpanScope s(log, "engine.checkpointed");
        r.slot = sim::run_slot_sim(inst.net, inst.dest, o);
      }
      // Resume from the last checkpoint the run left behind.
      sim::Metrics resumed_audit;
      sim::SlotSimOptions ro = slot_options();
      ro.metrics = &resumed_audit;
      ro.resume_path = ckpt_path_;
      sim::SlotSimResult resumed;
      {
        SpanScope s(log, "ckpt.resume");
        resumed = sim::run_slot_sim(inst.net, inst.dest, ro);
      }
      check_audit("resumed run", resumed.injected, resumed.delivered_lifetime,
                  resumed.queued_end, resumed.dropped, r.errors);
      // state_bytes counts buffer capacities, which a restore may size
      // differently; every behavioural field must match.
      if (behaviour_slot(resumed, resumed_audit) !=
          behaviour_slot(r.slot, r.slot_audit))
        r.errors.push_back("resumed run differs from the uninterrupted one");
      pin_slot(pinned, r.slot, r.slot_audit);
      full.u64(full_slot(r.slot, r.slot_audit));
      r.lambda = r.slot.mean_flow_rate;
      break;
    }
    case Engine::kFlowSimHybrid: {
      sim::FlowSimOptions o = flow_options();
      sim::Metrics audit_a, audit_b;
      o.scheme = sim::FlowScheme::kSchemeA;
      o.metrics = &audit_a;
      r.flow_a = sim::run_flow_sim(inst.net, inst.dest, o);
      o.scheme = sim::FlowScheme::kSchemeB;
      o.metrics = &audit_b;
      r.flow_b = sim::run_flow_sim(inst.net, inst.dest, o);
      // measure_instance falls back to two-hop when scheme A degenerates;
      // this workload is sized so that it never does.
      if (r.flow_a.degenerate) r.errors.push_back("scheme A degenerate");
      check_audit("scheme A", r.flow_a.injected, r.flow_a.delivered_lifetime,
                  r.flow_a.queued_end, r.flow_a.dropped, r.errors);
      check_audit("scheme B", r.flow_b.injected, r.flow_b.delivered_lifetime,
                  r.flow_b.queued_end, r.flow_b.dropped, r.errors);
      r.lambda = r.flow_a.mean_flow_rate + r.flow_b.mean_flow_rate;
      pin_flow(pinned, r.flow_a);
      pin_flow(pinned, r.flow_b);
      pinned.f64(r.lambda);
      full_flow(full, r.flow_a, audit_a);
      full_flow(full, r.flow_b, audit_b);
      break;
    }
  }
  if (w_.engine != Engine::kFlowSimHybrid)
    check_audit("run", r.slot.injected, r.slot.delivered_lifetime,
                r.slot.queued_end, r.slot.dropped, r.errors);
  r.full_digest = full.value();
  r.pinned_digest = pinned.value();
  return r;
}

std::vector<std::string> Runner::run_checks(const OpResult& first) const {
  std::vector<std::string> lines;
  if (seed_ == kDefaultSeed) {
    lines.push_back(check_line(
        first.pinned_digest == w_.pinned_digest,
        "pinned digest at seed " + std::to_string(kDefaultSeed) + ": got " +
            hex(first.pinned_digest) + ", pinned " + hex(w_.pinned_digest)));
  } else {
    lines.push_back("ok pinned digest: not pinned at seed " +
                    std::to_string(seed_) + " (digest " +
                    hex(first.pinned_digest) + ")");
  }
  if (w_.engine == Engine::kFlowSimHybrid) {
    sim::EvalContext ctx;
    ctx.params = w_.params;
    ctx.seed = seed_;
    const double composed =
        sim::measure_instance(sim::EngineKind::kFluid, ctx, {});
    std::ostringstream os;
    os.precision(17);
    os << "lambda_A + lambda_B = " << first.lambda
       << " equals measure_instance(fluid) = " << composed << " bit for bit";
    lines.push_back(check_line(bits_equal(composed, first.lambda), os.str()));
  }
  return lines;
}

void Runner::replay(const Instance& inst, const OpResult& r, SpanLog& log,
                    std::uint32_t round, LayerValues& out,
                    std::vector<std::string>& checks) const {
  // Network::build contains the shape construction; report it apart.
  out["mobility.shape_s"] = log.total_seconds("mobility.shape", round);
  out["net.build_s"] =
      log.total_seconds("net.build", round) - out["mobility.shape_s"];
  out["net.traffic_s"] = log.total_seconds("net.traffic", round);
  switch (w_.engine) {
    case Engine::kSlotSimB:
      trace_slot_b(inst, r, log, round, out, checks);
      break;
    case Engine::kSlotSimCResume:
      trace_slot_c(inst, r, log, round, out, checks);
      break;
    case Engine::kFlowSimHybrid:
      trace_flow(inst, r, log, round, out, checks);
      break;
  }
}

namespace {

/// Counts every run of SlotSim reports for the slotsim layer.
void slot_counts(const OpResult& r, std::size_t n, LayerValues& out) {
  out["slotsim.delivered"] = static_cast<double>(r.slot.delivered_lifetime);
  out["slotsim.wired_credit_stall"] =
      static_cast<double>(r.slot_audit.count(sim::Counter::kWiredCreditStall));
  out["slotsim.downlink_starved"] =
      static_cast<double>(r.slot_audit.count(sim::Counter::kDownlinkStarved));
  out["slotsim.state_bytes_per_ms"] =
      static_cast<double>(r.slot.state_bytes) / static_cast<double>(n);
  out["sched.feasible_pairs"] = static_cast<double>(
      r.slot_audit.count(sim::Counter::kSchedFeasiblePairs));
  out["sched.candidate_pairs"] = static_cast<double>(
      r.slot_audit.count(sim::Counter::kSchedCandidatePairs));
}

}  // namespace

void Runner::trace_slot_b(const Instance& inst, const OpResult& r,
                          SpanLog& log, std::uint32_t round,
                          LayerValues& out,
                          std::vector<std::string>& checks) const {
  const std::size_t n = inst.net.num_ms();
  const std::size_t pop = n + inst.net.num_bs();
  const sim::SlotSimOptions o = slot_options();
  sched::ScheduleStats stats, extract_stats;
  std::uint64_t moves = 0, rebucketed = 0;
  {
    SpanScope replay(&log, "replay");
    {
      SpanScope s(&log, "route_tables.serving");
      const sim::ServingTables st =
          sim::build_scheme_b_serving(inst.net, o.ct, o.delta);
      MANETCAP_CHECK(st.serving_start.size() == n + 1);
    }
    // The engine's per-slot pipeline (SlotSim::run, serial path): hash
    // build or move, the S* scan, then the mobility draw for the next
    // slot. Forwarding and the wired step are not replayed; they are the
    // residual.
    const sched::SStarScheduler sstar(o.ct, o.delta);
    sched::SStarScheduler::Workspace ws;
    geom::SpatialHash hash((1.0 + o.delta) * sstar.range_for(pop), pop);
    const std::int64_t g = hash.grid_side();
    std::vector<geom::Point> pos(pop);
    std::copy(inst.net.bs_pos().begin(), inst.net.bs_pos().end(),
              pos.begin() + static_cast<std::ptrdiff_t>(n));
    std::optional<mobility::IidStationaryMobility> process;
    {
      SpanScope s(&log, "mobility.step");  // the initial draw
      process.emplace(inst.net.ms_home(), inst.net.shape(),
                      1.0 / inst.net.params().f(), o.seed);
    }
    for (std::size_t t = 0; t < o.slots; ++t) {
      SpanScope slot(&log, "slot");
      const std::vector<geom::Point>& mpos = process->positions();
      if (t > 0) {
        moves += n;
        for (std::size_t i = 0; i < n; ++i)
          rebucketed += bucket_of(pos[i], g) != bucket_of(mpos[i], g);
      }
      {
        SpanScope s(&log, "geom.hash_move");
        if (t == 0) {
          std::copy(mpos.begin(), mpos.end(), pos.begin());
          hash.build(pos);
        } else {
          for (std::uint32_t i = 0; i < n; ++i) {
            hash.move(i, pos[i], mpos[i]);
            pos[i] = mpos[i];
          }
        }
      }
      {
        // The engine's own call: the id-order lone scan, then the pair
        // extraction.
        SpanScope s(&log, "sched.scan");
        sstar.feasible_pairs_into(pos, hash, ws, &stats);
      }
      {
        // extract_pairs only reads the lone table, so running it again
        // times the extraction inside the scan on its own.
        SpanScope s(&log, "sched.extract");
        sstar.extract_pairs(pos, ws, &extract_stats);
      }
      {
        SpanScope s(&log, "mobility.step");
        process->step();
      }
    }
  }

  slot_counts(r, n, out);
  const std::uint64_t feasible =
      r.slot_audit.count(sim::Counter::kSchedFeasiblePairs);
  const std::uint64_t candidate =
      r.slot_audit.count(sim::Counter::kSchedCandidatePairs);
  checks.push_back(check_line(
      stats.feasible_pairs == feasible,
      "replayed S* feasible pairs " + std::to_string(stats.feasible_pairs) +
          " == engine sched_feasible_pairs " + std::to_string(feasible)));
  checks.push_back(check_line(
      stats.candidate_pairs == candidate,
      "replayed S* candidate pairs " + std::to_string(stats.candidate_pairs) +
          " == engine sched_candidate_pairs " + std::to_string(candidate)));

  out["mobility.step_s"] = log.self_seconds("mobility.step", round);
  out["geom.hash_move_s"] = log.self_seconds("geom.hash_move", round);
  out["sched.extract_s"] = log.self_seconds("sched.extract", round);
  out["sched.lone_scan_s"] =
      log.total_seconds("sched.scan", round) - out["sched.extract_s"];
  out["route_tables.serving_s"] =
      log.self_seconds("route_tables.serving", round);
  out["geom.rebucket_share"] =
      static_cast<double>(rebucketed) / static_cast<double>(moves);
  out["sched.lone_yield"] =
      2.0 * static_cast<double>(stats.feasible_pairs) /
      (static_cast<double>(pop) * static_cast<double>(o.slots));
  out["slotsim.forwarding_s"] =
      log.total_seconds("engine.run", round) - out["mobility.step_s"] -
      out["geom.hash_move_s"] - out["sched.lone_scan_s"] -
      out["sched.extract_s"] - out["route_tables.serving_s"];
}

void Runner::trace_slot_c(const Instance& inst, const OpResult& r,
                          SpanLog& log, std::uint32_t round,
                          LayerValues& out,
                          std::vector<std::string>& checks) const {
  out["ckpt.bytes"] =
      static_cast<double>(std::filesystem::file_size(ckpt_path_));

  // The same run without checkpoints: the difference is the save cost.
  sim::Metrics plain_audit;
  sim::SlotSimOptions o = slot_options();
  o.metrics = &plain_audit;
  sim::SlotSimResult plain;
  {
    SpanScope s(&log, "engine.run_nockpt");
    plain = sim::run_slot_sim(inst.net, inst.dest, o);
  }
  checks.push_back(check_line(
      full_slot(plain, plain_audit) == full_slot(r.slot, r.slot_audit),
      "run without checkpoints equals the checkpointed run"));

  const std::size_t n = inst.net.num_ms();
  {
    SpanScope replay(&log, "replay");
    {
      SpanScope s(&log, "route_tables.serving");
      const sim::ServingTables st = sim::build_scheme_c_association(inst.net);
      const sim::CellTables cells = sim::build_cells_and_colors(
          inst.net, st.serving_start, st.serving_ids, o.delta, nullptr);
      MANETCAP_CHECK(cells.members_start.size() == inst.net.num_bs() + 1);
    }
    // Scheme C never reads positions, but SlotSim::run still draws them
    // every slot.
    std::optional<mobility::IidStationaryMobility> process;
    {
      SpanScope s(&log, "mobility.step");
      process.emplace(inst.net.ms_home(), inst.net.shape(),
                      1.0 / inst.net.params().f(), o.seed);
    }
    for (std::size_t t = 0; t < o.slots; ++t) {
      SpanScope slot(&log, "slot");
      SpanScope s(&log, "mobility.step");
      process->step();
    }
  }

  slot_counts(r, n, out);
  out["mobility.step_s"] = log.self_seconds("mobility.step", round);
  out["route_tables.serving_s"] =
      log.self_seconds("route_tables.serving", round);
  out["slotsim.forwarding_s"] = log.total_seconds("engine.run_nockpt", round) -
                                out["mobility.step_s"] -
                                out["route_tables.serving_s"];
  out["ckpt.save_s"] = log.total_seconds("engine.checkpointed", round) -
                       log.total_seconds("engine.run_nockpt", round);
  out["ckpt.resume_s"] = log.total_seconds("ckpt.resume", round);
}

void Runner::trace_flow(const Instance& inst, const OpResult& r,
                        SpanLog& log, std::uint32_t round, LayerValues& out,
                        std::vector<std::string>& checks) const {
  // run_flow_sim's row construction, per scheme, then scheme B's serving
  // sets; rate allocation and the epoch loop are the residual.
  const sim::FlowSimOptions o = flow_options();
  routing::RateStructure rows_a, rows_b;
  routing::SchemeAResult a;
  routing::SchemeBResult b;
  {
    SpanScope replay(&log, "replay");
    {
      SpanScope s(&log, "routing.scheme_a_rows");
      a = routing::SchemeA().evaluate(inst.net, inst.dest, nullptr,
                                      o.bandwidth_share, &rows_a);
    }
    {
      SpanScope s(&log, "routing.scheme_b_rows");
      b = routing::SchemeB(o.grouping)
              .evaluate(inst.net, inst.dest, nullptr, o.bandwidth_share,
                        &rows_b);
    }
    {
      SpanScope s(&log, "route_tables.serving");
      const sim::ServingTables st =
          sim::build_scheme_b_serving(inst.net, o.ct, o.delta);
      MANETCAP_CHECK(st.serving_start.size() == inst.net.num_ms() + 1);
    }
  }
  checks.push_back(check_line(
      bits_equal(a.throughput.lambda, r.flow_a.lambda_strict) &&
          bits_equal(b.throughput.lambda, r.flow_b.lambda_strict),
      "replayed row solves equal the engine's lambda_strict (A and B)"));

  const auto n = static_cast<double>(inst.net.num_ms());
  out["routing.scheme_a_rows_s"] =
      log.self_seconds("routing.scheme_a_rows", round);
  out["routing.scheme_b_rows_s"] =
      log.self_seconds("routing.scheme_b_rows", round);
  out["route_tables.serving_s"] =
      log.self_seconds("route_tables.serving", round);
  out["routing.rows"] = static_cast<double>(rows_a.constraints.size() +
                                            rows_b.constraints.size());
  out["routing.incidence_nnz"] =
      static_cast<double>(rows_a.incid_cid.size() + rows_b.incid_cid.size());
  out["flowsim.alloc_epoch_s"] =
      log.total_seconds("engine.run", round) - out["routing.scheme_a_rows_s"] -
      out["routing.scheme_b_rows_s"] - out["route_tables.serving_s"];
  out["flowsim.state_bytes_per_ms"] =
      static_cast<double>(r.flow_a.state_bytes + r.flow_b.state_bytes) / n;
}

}  // namespace perfbench
