#include "sim/slotsim.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "analysis/stats.h"
#include "geom/spatial_hash.h"
#include "geom/tessellation.h"
#include "linkcap/link_capacity.h"
#include "mobility/process.h"
#include "sched/sstar.h"
#include "sim/route_tables.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "sim/wire_credit.h"
#include "util/binio.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace manetcap::sim {

std::string to_string(SlotScheme s) {
  switch (s) {
    case SlotScheme::kSchemeA:
      return "scheme-A";
    case SlotScheme::kTwoHop:
      return "two-hop";
    case SlotScheme::kSchemeB:
      return "scheme-B";
    case SlotScheme::kSchemeC:
      return "scheme-C";
  }
  return "?";
}

namespace {

std::unique_ptr<mobility::MobilityProcess> make_process(
    const net::Network& net, SlotMobility kind, std::uint64_t seed) {
  const double radius = net.mobility_radius();
  switch (kind) {
    case SlotMobility::kIid:
      return std::make_unique<mobility::IidStationaryMobility>(
          net.ms_home(), net.shape(), 1.0 / net.params().f(), seed);
    case SlotMobility::kWalk:
      return std::make_unique<mobility::BoundedRandomWalk>(net.ms_home(),
                                                           radius, seed);
    case SlotMobility::kPullHome:
      return std::make_unique<mobility::PullHomeMobility>(net.ms_home(),
                                                          radius, seed);
    case SlotMobility::kBrownian:
      return std::make_unique<mobility::BrownianTorusMobility>(net.ms_home(),
                                                               seed);
  }
  MANETCAP_CHECK(false);
  return nullptr;
}

/// Validates a run configuration up front with named errors — a zero
/// max_queue or inverted warmup/slots used to surface as undefined
/// behavior (or a cryptic check) deep inside the run.
void validate_options(const SlotSimOptions& opt) {
  // Shared (slots, warmup, phy, sinr) validation lives in the RunConfig
  // base — single point, named errors (sim/run_config.h).
  if (opt.phy != phy::PhyKind::kProtocol) {
    MANETCAP_CHECK_MSG(opt.scheme != SlotScheme::kSchemeC,
                       "SlotSimOptions: --phy " << phy::to_string(opt.phy)
                           << " applies to the S*-driven schemes (A, "
                              "two-hop, B); scheme C's TDMA schedule has "
                              "no per-slot geometry to evaluate");
  }
  opt.RunConfig::validate("SlotSimOptions");
  MANETCAP_CHECK_MSG(opt.max_queue >= 1,
                     "SlotSimOptions: max_queue must be >= 1");
  MANETCAP_CHECK_MSG(opt.ct > 0.0, "SlotSimOptions: ct must be > 0");
  MANETCAP_CHECK_MSG(opt.delta > 0.0, "SlotSimOptions: delta must be > 0");
  MANETCAP_CHECK_MSG(opt.source_backlog >= 1,
                     "SlotSimOptions: source_backlog must be >= 1");
  // Narrowing guards (large-n audit): every quantity below is carried in a
  // 32-bit field somewhere in the hot state (q_born, queue/window
  // counters) — reject configurations that would wrap instead of
  // simulating garbage. (The slots guard lives in RunConfig::validate.)
  MANETCAP_CHECK_MSG(opt.max_queue <= 0xffffffffULL,
                     "SlotSimOptions: max_queue must fit in 32 bits "
                     "(per-node queue sizes are uint32)");
  MANETCAP_CHECK_MSG(opt.source_backlog <= 0xffffffffULL,
                     "SlotSimOptions: source_backlog must fit in 32 bits "
                     "(per-flow windows are uint32)");
  MANETCAP_CHECK_MSG(opt.shards >= 1, "SlotSimOptions: shards must be >= 1");
  MANETCAP_CHECK_MSG(opt.checkpoint_every == 0 || !opt.checkpoint_path.empty(),
                     "SlotSimOptions: checkpoint_every requires a "
                     "checkpoint_path");
}

// WireState / WireCreditMap moved to sim/wire_credit.h so the flow-level
// engine shares the exact same token-bucket structure (key packing, bucket
// depth, accrual law).

/// Shared simulation state and per-scheme forwarding logic.
///
/// All mutable per-packet state is structure-of-arrays: every node's queue
/// is a fixed-capacity run inside three flat slabs (flow / hop / born),
/// FIFO order preserved by in-run compaction, so a slot touches contiguous
/// memory and allocates nothing. Routing structure (H-V paths, serving
/// sets, cell members) is flattened to CSR. Node positions live in one
/// persistent buffer indexed [0, n) for MSs and [n, n+k) for BSs, and the
/// S* cell list is rebuilt from it every slot (iid mobility moves nearly
/// every MS to a new bucket each slot, so a counting sort beats relinking).
/// Event order — and therefore every golden trace byte — is identical to
/// the legacy implementation preserved in slotsim_reference.cpp.
class SlotSim {
 public:
  SlotSim(const net::Network& net, const std::vector<std::uint32_t>& dest,
          const SlotSimOptions& opt,
          const std::vector<net::FlowDemand>* demands = nullptr)
      : net_(net),
        dest_(dest),
        opt_(opt),
        n_(net.num_ms()),
        k_(net.num_bs()),
        // Memory diet: queue slabs are sized per node class, not uniformly.
        // In the infrastructure schemes (B/C) packets live exclusively in
        // BS queues — every push targets a BS node (uplink try_inject,
        // wired forward), so MS runs get capacity 0. In the ad hoc schemes
        // (A/two-hop) the BS roles are inverted: transfer() early-returns
        // on any BS endpoint, so BS runs get capacity 0. At n = 10⁶ MSs
        // this is the difference between ~0.7 GB of dead MS slab and the
        // few MB the k BS queues actually need.
        ms_cap_(opt.scheme == SlotScheme::kSchemeB ||
                        opt.scheme == SlotScheme::kSchemeC
                    ? 0
                    : opt.max_queue),
        bs_cap_(opt.scheme == SlotScheme::kSchemeB ||
                        opt.scheme == SlotScheme::kSchemeC
                    ? opt.max_queue
                    : 0),
        q_flow_(n_ * ms_cap_ + k_ * bs_cap_),
        q_hop_(n_ * ms_cap_ + k_ * bs_cap_),
        q_born_(n_ * ms_cap_ + k_ * bs_cap_),
        q_size_(n_ + k_, 0),
        delivered_(n_, 0),
        count_own_(n_, 0),
        pos_all_(n_ + k_) {
    validate_options(opt);
    // The packet engine models the paper's single-antenna BS: a BS moves at
    // most one packet per direction per slot, and the golden traces pin
    // that event order. Antenna scaling (L > 0) is a fluid-engine feature.
    MANETCAP_CHECK_MSG(net.params().L == 0.0,
                       "SlotSim: the packet engine models single-antenna "
                       "BSs (L = 0); antenna scaling (L = "
                           << net.params().L
                           << ") needs the fluid engine (--engine fluid)");
    MANETCAP_CHECK_MSG(dest.size() == n_,
                       "SlotSimOptions: dest must hold one entry per MS");
    // Out-of-range or self-loop destinations used to be trusted (an id
    // ≥ n indexes past the serving CSR / per-flow state) — reject them
    // up front with a named error.
    net::validate_traffic_dest(dest, n_, "SlotSimOptions");
    MANETCAP_CHECK_MSG(n_ + k_ < geom::SpatialHash::kNone,
                       "SlotSim: population n + k must stay below the "
                       "uint32 id sentinel (2^32 - 1)");
    MANETCAP_CHECK_MSG(q_flow_.size() <= (std::size_t{1} << 38),
                       "SlotSim: queue slabs would exceed the addressable "
                       "budget — reduce max_queue or the population");
    if (demands != nullptr) {
      net::validate_demands(*demands, n_);
      // The default demand set (unlimited, always-on, start 0) gates
      // nothing — leave demands_ null so the legacy path stays
      // byte-identical without per-inject spec checks.
      bool gated = false;
      for (const net::FlowDemand& d : *demands)
        gated = gated || !d.unlimited() || d.start != 0 || !d.always_on();
      if (gated) {
        demands_ = demands;
        inj_count_.assign(n_, 0);
        for (const net::FlowDemand& d : *demands)
          has_onoff_ = has_onoff_ || !d.always_on();
        if (has_onoff_) {
          onoff_.resize(n_);
          for (std::uint32_t f = 0; f < n_; ++f) {
            const net::FlowDemand& d = (*demands)[f];
            if (!d.always_on())
              onoff_[f] = net::OnOffGate(d.on_mean, d.off_mean,
                                         trial_seed(opt_.seed, f, 5));
          }
        }
      }
    }
    if (opt_.faults != nullptr && !opt_.faults->empty()) {
      opt_.faults->validate(k_, opt_.slots, n_);
      if (opt_.faults->has_infra()) {
        MANETCAP_CHECK_MSG(opt_.scheme == SlotScheme::kSchemeB ||
                               opt_.scheme == SlotScheme::kSchemeC,
                           "FaultPlan: BS/wired faults require an "
                           "infrastructure scheme (B or C)");
        bs_alive_.assign(k_, 1);
      }
      MANETCAP_CHECK_MSG(!opt_.faults->has_shift() ||
                             (opt_.checkpoint_every == 0 &&
                              opt_.resume_path.empty()),
                         "SlotSimOptions: checkpointing is not supported "
                         "with mobility-shift events (the process type "
                         "changes mid-run)");
      // Every fault branch below guards on faults_ (or on bs_alive_ /
      // ms_alive_ being empty) — a null (or empty) plan takes exactly the
      // pre-fault code path, byte for byte.
      faults_ = opt_.faults;
      if (opt_.faults->has_churn()) {
        ms_alive_.assign(n_, 1);
        // An MS whose FIRST churn event is a join starts absent.
        std::vector<std::uint8_t> seen(n_, 0);
        for (const FaultEvent& e : opt_.faults->events) {
          if (e.kind != FaultKind::kMsLeave && e.kind != FaultKind::kMsJoin)
            continue;
          if (seen[e.ms] != 0) continue;
          seen[e.ms] = 1;
          if (e.kind == FaultKind::kMsJoin) ms_alive_[e.ms] = 0;
        }
        live_ms_ = 0;
        for (std::uint8_t a : ms_alive_) live_ms_ += a;
      }
    }
    live_bs_ = k_;
    std::copy(net_.bs_pos().begin(), net_.bs_pos().end(),
              pos_all_.begin() + static_cast<std::ptrdiff_t>(n_));
    // The audit always accumulates into the internal registry (the
    // conservation check needs the counters even without a caller sink);
    // the caller's Metrics absorbs it at end of run.
    if (opt_.metrics != nullptr && opt_.metrics->series_enabled())
      audit_.enable_series(opt_.slots, opt_.metrics->series_stride());
    if (opt_.scheme == SlotScheme::kSchemeA) init_scheme_a();
    if (opt_.scheme == SlotScheme::kSchemeB) init_scheme_b();
    if (opt_.scheme == SlotScheme::kSchemeC) init_scheme_c();
    // CSR offsets are uint32; at extreme n × path-length products the
    // flattened tables could outgrow them — fail at run start, not mid-run.
    MANETCAP_CHECK_MSG(path_cells_.size() <= 0xffffffffULL,
                       "SlotSim: scheme-A path table exceeds uint32 CSR "
                       "offsets");
    MANETCAP_CHECK_MSG(serving_ids_.size() <= 0xffffffffULL,
                       "SlotSim: serving table exceeds uint32 CSR offsets");
    if (opt_.trace != nullptr) capture_context(*opt_.trace);
  }

  SlotSimResult run() {
    auto process = make_process(net_, opt_.mobility, opt_.seed);
    sched::SStarScheduler sstar(opt_.ct, opt_.delta);
    sched::SStarScheduler::Workspace ws;
    // Constructed ONLY for a non-protocol backend: the default run never
    // touches the PHY layer, keeping protocol traces byte-identical by
    // construction rather than by care.
    std::unique_ptr<phy::InterferenceModel> phy_model;
    if (opt_.phy != phy::PhyKind::kProtocol)
      phy_model = phy::make_interference_model(opt_.phy, opt_.delta,
                                               opt_.sinr);
    // Same bucket geometry the legacy per-slot rebuild chose: hint = the
    // S* guard radius over the whole population.
    geom::SpatialHash hash((1.0 + opt_.delta) * sstar.range_for(n_ + k_),
                           n_ + k_);
    std::uint64_t pair_count = 0;
    std::size_t t0 = 0;
    if (!opt_.resume_path.empty())
      t0 = load_checkpoint(*process, pair_count);
    // Only the S*-driven pipeline (schemes A/two-hop/B) has a scan phase
    // to stripe; scheme C is static TDMA and runs serial.
    const std::size_t shards =
        opt_.scheme == SlotScheme::kSchemeC ? 1 : opt_.shards;

    for (std::size_t t = t0; t < opt_.slots; ++t) {
      // A checkpoint taken here captures "state as of the end of slot
      // t−1": everything the rest of this iteration reads. `t > t0` skips
      // a pointless immediate re-save on resume.
      if (opt_.checkpoint_every > 0 && t > t0 &&
          t % opt_.checkpoint_every == 0)
        save_checkpoint(t, *process, pair_count);
      const bool measure = t >= opt_.warmup;
      if (measure && !measuring_) {
        measuring_ = true;
        std::fill(delivered_.begin(), delivered_.end(), 0);
      }

      slot_ = static_cast<std::uint32_t>(t);
      // Faults take effect at the start of the slot, before scheduling /
      // TDMA: a BS downed at slot t serves nothing at slot t, an MS
      // departing at slot t is a ghost from slot t on.
      if (faults_ != nullptr) apply_faults(t, process);
      if (opt_.scheme == SlotScheme::kSchemeC) {
        // Static cellular TDMA (Definition 13): no S* — the active color
        // group serves; "pairs" counts active cells for reporting.
        const std::size_t served = scheme_c_slot(t);
        if (measure) pair_count += served;
        wired_step(t);
        process->step();
        audit_.sample_slot(slot_, in_network_, 0,
                           static_cast<std::uint32_t>(served),
                           static_cast<std::uint32_t>(live_bs_));
        continue;
      }

      // Rebuild the cell list from this slot's positions; the BS tail of
      // pos_all_ never changes.
      const std::vector<geom::Point>& mpos = process->positions();
      std::copy(mpos.begin(), mpos.end(), pos_all_.begin());
      hash.build(pos_all_);
      sched::ScheduleStats sstats;
      sstar.begin_scan(n_ + k_, ws);
      const std::int64_t g = hash.grid_side();
      bool stepped = false;
      if (shards > 1) {
        // Parallel phase: stripe the S* lone-neighbor scan over bucket-row
        // bands, and overlap next slot's mobility draw as one extra task —
        // step() mutates only process-internal state, and positions() is
        // not read again until the top of the next slot. Extraction stays
        // serial (id-ascending), so the pair list, and therefore every
        // transfer and trace byte, matches the serial path exactly.
        util::ThreadPool::shared().parallel_for(
            shards + 1, [&](std::size_t s) {
              if (s == shards) {
                process->step();
                return;
              }
              const auto ss = static_cast<std::int64_t>(s);
              const auto sn = static_cast<std::int64_t>(shards);
              sstar.lone_scan_rows(pos_all_, hash, ws, g * ss / sn,
                                   g * (ss + 1) / sn);
            });
        stepped = true;
      } else {
        sstar.lone_scan_rows(pos_all_, hash, ws, 0, g);
      }
      const auto& pairs =
          sstar.extract_pairs(pos_all_, ws, &sstats, phy_model.get());
      audit_.add(Counter::kSchedCandidatePairs, sstats.candidate_pairs);
      audit_.add(Counter::kSchedFeasiblePairs, sstats.feasible_pairs);
      audit_.add(Counter::kSchedRangeRejected, sstats.range_rejected);
      if (phy_model != nullptr) {
        audit_.add(Counter::kPhySinrRejected, sstats.phy_sinr_rejected);
        audit_.add(Counter::kPhyCsmaSuppressed, sstats.phy_csma_suppressed);
      }
      if (measure) pair_count += pairs.size();

      for (const auto& pr : pairs) {
        // Each S* meeting carries one packet per direction (the bandwidth
        // is split equally between the two directions, Definition 10).
        transfer(pr.tx, pr.rx);
        transfer(pr.rx, pr.tx);
      }
      if (opt_.scheme == SlotScheme::kSchemeB) wired_step(t);
      if (!stepped) process->step();
      audit_.sample_slot(slot_, in_network_,
                         static_cast<std::uint32_t>(pairs.size()), 0,
                         static_cast<std::uint32_t>(live_bs_));
    }

    SlotSimResult res;
    res.measured_slots = opt_.slots - opt_.warmup;
    std::vector<double> rates(n_);
    std::uint64_t total = 0;
    for (std::size_t f = 0; f < n_; ++f) {
      total += delivered_[f];
      rates[f] = static_cast<double>(delivered_[f]) /
                 static_cast<double>(res.measured_slots);
    }
    res.total_delivered = total;
    const auto summary = analysis::summarize(rates);
    res.mean_flow_rate = summary.mean;
    res.min_flow_rate = summary.min;
    res.p10_flow_rate = analysis::quantile(rates, 0.10);
    res.pairs_per_slot = static_cast<double>(pair_count) /
                         static_cast<double>(res.measured_slots);
    if (!delays_.empty()) {
      res.mean_delay = analysis::summarize(delays_).mean;
      res.p95_delay = analysis::quantile(delays_, 0.95);
    }
    res.state_bytes =
        vec_bytes(q_flow_) + vec_bytes(q_hop_) + vec_bytes(q_born_) +
        vec_bytes(q_size_) + vec_bytes(delivered_) + vec_bytes(count_own_) +
        vec_bytes(delays_) + vec_bytes(pos_all_) + vec_bytes(home_cell_) +
        vec_bytes(path_start_) + vec_bytes(path_cells_) +
        vec_bytes(serving_start_) + vec_bytes(serving_ids_) +
        vec_bytes(serving_is_fallback_) + vec_bytes(members_start_) +
        vec_bytes(members_ids_) + vec_bytes(cell_color_) +
        vec_bytes(rr_cell_) + vec_bytes(bs_alive_) +
        vec_bytes(ms_alive_) + vec_bytes(inj_count_) + vec_bytes(ws.lone) +
        vec_bytes(ws.pairs) + hash.memory_bytes() +
        wire_credit_.memory_bytes();

    std::uint64_t queued = 0;
    for (std::uint32_t q : q_size_) queued += q;
    res.injected = audit_.count(Counter::kInjected);
    res.delivered_lifetime = audit_.count(Counter::kDelivered);
    res.queued_end = queued;
    res.dropped = audit_.count(Counter::kDropped);
    res.dropped_bs_outage = audit_.count(Counter::kDroppedBsOutage);
    res.dropped_ms_churn = audit_.count(Counter::kDroppedMsChurn);
    if (opt_.check_conservation) {
      MANETCAP_CHECK_MSG(in_network_ == queued,
                         "packet accounting drift: in-network counter "
                         "disagrees with actual queue occupancy");
      MANETCAP_CHECK_MSG(
          res.injected == res.delivered_lifetime + queued + res.dropped,
          "packet conservation violated: injected != delivered + queued + "
          "dropped");
      std::uint64_t window = 0;
      for (std::uint32_t w : count_own_) window += w;
      MANETCAP_CHECK_MSG(
          window == res.injected - res.delivered_lifetime - res.dropped,
          "flow-control window drift: sum of per-flow "
          "windows != packets in flight");
    }
    if (opt_.metrics != nullptr) opt_.metrics->absorb(std::move(audit_));
    if (opt_.trace != nullptr) {
      opt_.trace->footer.injected = res.injected;
      opt_.trace->footer.delivered = res.delivered_lifetime;
      opt_.trace->footer.dropped = res.dropped;
    }
    return res;
  }

 private:
  /// Copies the run configuration and the routing structure the forwarding
  /// code will use into the trace, so verify_trace replays against exactly
  /// the tables this run consulted (no network rebuild, no FP involved).
  /// The CSR tables are re-expanded to the nested form the codec stores.
  void capture_context(Trace& trace) const {
    TraceContext& ctx = trace.context;
    ctx.scheme = opt_.scheme;
    ctx.mobility = opt_.mobility;
    ctx.n = static_cast<std::uint32_t>(n_);
    ctx.k = static_cast<std::uint32_t>(k_);
    ctx.slots = static_cast<std::uint32_t>(opt_.slots);
    ctx.warmup = static_cast<std::uint32_t>(opt_.warmup);
    ctx.max_queue = static_cast<std::uint32_t>(opt_.max_queue);
    ctx.source_backlog = static_cast<std::uint32_t>(opt_.source_backlog);
    ctx.seed = opt_.seed;
    ctx.wired_c = k_ > 0 ? net_.params().c() : 0.0;
    ctx.dest = dest_;
    ctx.home_cell = home_cell_;
    if (!path_start_.empty()) {
      ctx.paths.assign(n_, {});
      for (std::uint32_t s = 0; s < n_; ++s)
        ctx.paths[s].assign(path_cells_.begin() + path_start_[s],
                            path_cells_.begin() + path_start_[s + 1]);
    }
    const std::size_t ns = serving_start_.empty() ? 0 : n_;
    ctx.serving.assign(ns, {});
    for (std::size_t i = 0; i < ns; ++i) {
      ctx.serving[i].reserve(serving_start_[i + 1] - serving_start_[i]);
      for (std::uint32_t s = serving_start_[i]; s < serving_start_[i + 1];
           ++s)
        ctx.serving[i].push_back(static_cast<std::uint32_t>(n_) +
                                 serving_ids_[s]);
    }
  }

  // --- queue slabs ---------------------------------------------------------
  /// Start of node's run inside the slabs. MSs occupy [0, n·ms_cap_) at
  /// ms_cap_ apiece, BSs the tail at bs_cap_ apiece; the class whose cap is
  /// 0 for the active scheme is provably never pushed to (see the ctor).
  std::size_t q_base(std::uint32_t node) const {
    return node < n_ ? node * ms_cap_
                     : n_ * ms_cap_ + (node - n_) * bs_cap_;
  }
  std::size_t q_cap(std::uint32_t node) const {
    return node < n_ ? ms_cap_ : bs_cap_;
  }

  void push_packet(std::uint32_t node, std::uint32_t flow, std::uint32_t hop,
                   std::uint32_t born) {
    const std::size_t at = q_base(node) + q_size_[node]++;
    q_flow_[at] = flow;
    q_hop_[at] = hop;
    q_born_[at] = born;
  }

  /// Removes the packet at queue position `idx`, shifting the tail down —
  /// exactly the deque::erase order semantics, on contiguous storage.
  void erase_packet(std::uint32_t node, std::size_t idx) {
    const std::size_t base = q_base(node);
    const std::size_t last = --q_size_[node];
    for (std::size_t j = idx; j < last; ++j) {
      q_flow_[base + j] = q_flow_[base + j + 1];
      q_hop_[base + j] = q_hop_[base + j + 1];
      q_born_[base + j] = q_born_[base + j + 1];
    }
  }

  // --- scheme A ------------------------------------------------------------
  void init_scheme_a() {
    SchemeARouteTables t = build_scheme_a_tables(net_, dest_);
    tess_ = std::make_unique<geom::SquareTessellation>(t.tess);
    home_cell_ = std::move(t.home_cell);
    path_start_ = std::move(t.path_start);
    path_cells_ = std::move(t.path_cells);
  }

  // --- scheme B ------------------------------------------------------------
  void init_scheme_b() {
    ServingTables t = build_scheme_b_serving(net_, opt_.ct, opt_.delta);
    contact_ = t.contact;  // re-homing under faults reuses the same rule
    serving_start_ = std::move(t.serving_start);
    serving_ids_ = std::move(t.serving_ids);
    serving_is_fallback_ = std::move(t.serving_is_fallback);
  }

  // --- scheme C ------------------------------------------------------------
  void init_scheme_c() {
    // Association: nearest BS (with cluster-grid placement this is the
    // hexagonal cell of Definition 13). The serving table holds one BS per
    // MS so the wired phase can reuse the scheme-B machinery.
    ServingTables t = build_scheme_c_association(net_);
    serving_start_ = std::move(t.serving_start);
    serving_ids_ = std::move(t.serving_ids);
    serving_is_fallback_ = std::move(t.serving_is_fallback);
    rebuild_members_and_colors();
    rr_cell_.assign(k_, 0);
  }

  /// Rebuilds the member CSR, cell radii and TDMA coloring from the
  /// current association (serving_ids_). Called at init (all cells live)
  /// and after every fault-driven re-association; dead cells get color −1
  /// so the rotation never activates them.
  void rebuild_members_and_colors() {
    CellTables t = build_cells_and_colors(net_, serving_start_, serving_ids_,
                                          opt_.delta, &bs_alive_);
    members_start_ = std::move(t.members_start);
    members_ids_ = std::move(t.members_ids);
    cell_color_ = std::move(t.cell_color);
    num_colors_ = t.num_colors;
  }

  // --- fault injection -----------------------------------------------------
  /// True when BS `l` is serving. Without a fault plan bs_alive_ stays
  /// empty and every BS is live (the branch predicts perfectly).
  bool bs_is_live(std::uint32_t l) const {
    return bs_alive_.empty() || bs_alive_[l] != 0;
  }

  std::uint32_t node_of_bs(std::uint32_t l) const {
    return static_cast<std::uint32_t>(n_) + l;
  }

  /// Applies every fault event scheduled at or before slot `t`. Events are
  /// validated non-decreasing, so this is a cursor walk. `process` is
  /// passed through so a mobility-shift event can swap the process.
  void apply_faults(std::size_t t,
                    std::unique_ptr<mobility::MobilityProcess>& process) {
    const auto& ev = faults_->events;
    while (next_fault_ < ev.size() && ev[next_fault_].slot <= t) {
      apply_fault(ev[next_fault_], process);
      ++next_fault_;
    }
  }

  void apply_fault(const FaultEvent& e,
                   std::unique_ptr<mobility::MobilityProcess>& process) {
    switch (e.kind) {
      case FaultKind::kBsDown:
        apply_bs_down({e.bs});
        break;
      case FaultKind::kBsUp:
        apply_bs_up(e.bs);
        break;
      case FaultKind::kWireScale:
        apply_wire_scale(e);
        break;
      case FaultKind::kRegional: {
        // Resolve the disk to concrete BS ids sim-side, so the trace
        // timeline (and therefore the replay checker) never touches
        // geometry or floating point.
        std::vector<std::uint32_t> downs;
        for (std::uint32_t l = 0; l < k_; ++l)
          if (bs_alive_[l] != 0 &&
              geom::torus_dist(net_.bs_pos()[l], e.center) < e.radius)
            downs.push_back(l);
        apply_bs_down(downs);
        break;
      }
      case FaultKind::kMsLeave:
        apply_ms_leave(e.ms);
        break;
      case FaultKind::kMsJoin:
        apply_ms_join(e.ms);
        break;
      case FaultKind::kMobilityShift:
        apply_mobility_shift(e, process);
        break;
    }
  }

  // --- node churn ----------------------------------------------------------
  /// True when MS `i` is present. Without churn events ms_alive_ stays
  /// empty and every MS is present (same discipline as bs_is_live).
  bool ms_is_present(std::uint32_t i) const {
    return ms_alive_.empty() || ms_alive_[i] != 0;
  }

  /// MS `ms` departs: mark it absent, drop every packet it holds (its own
  /// and any relayed traffic — the holder is gone) and every in-flight
  /// packet addressed to it anywhere in the network. The node keeps its
  /// position and keeps moving — S* can still schedule a meeting with the
  /// ghost, which is simply wasted, exactly the dead-BS semantics.
  void apply_ms_leave(std::uint32_t ms) {
    if (ms_alive_[ms] == 0) return;  // leave on an absent MS: no-op
    ms_alive_[ms] = 0;
    --live_ms_;
    audit_.inc(Counter::kMsLeft);
    TraceFault* tf = open_trace_fault(TraceFault::kKindMsLeave);
    if (tf != nullptr) {
      tf->bs.push_back(ms);  // subject list reused; raw MS id (< n)
      opt_.trace->record(TraceEventKind::kMsLeave, slot_, 0, 0, ms, ms);
    }
    drop_all_at(ms, Counter::kDroppedMsChurn);
    drop_packets_to(ms);
  }

  void apply_ms_join(std::uint32_t ms) {
    if (ms_alive_[ms] != 0) return;  // join on a present MS: no-op
    ms_alive_[ms] = 1;
    ++live_ms_;
    audit_.inc(Counter::kMsJoined);
    TraceFault* tf = open_trace_fault(TraceFault::kKindMsJoin);
    if (tf != nullptr) {
      tf->bs.push_back(ms);
      opt_.trace->record(TraceEventKind::kMsJoin, slot_, 0, 0, ms, ms);
    }
  }

  /// Swaps the mobility process for the shifted regime. The new process
  /// re-initializes motion from the home points with a slot-derived seed,
  /// so the shift is deterministic and shard-invariant; the next S* phase
  /// rebuilds its cell list from the new positions like any other slot's.
  void apply_mobility_shift(
      const FaultEvent& e,
      std::unique_ptr<mobility::MobilityProcess>& process) {
    const auto kind = static_cast<SlotMobility>(e.mobility);
    process = make_process(net_, kind, trial_seed(opt_.seed, slot_, 7));
    audit_.inc(Counter::kMobilityShifts);
    TraceFault* tf = open_trace_fault(TraceFault::kKindShift);
    if (tf != nullptr) {
      tf->scale = static_cast<double>(e.mobility);
      opt_.trace->record(TraceEventKind::kMobilityShift, slot_, 0, 0, 0, 0);
    }
  }

  /// Drops every in-flight packet addressed to `ms`, wherever it is
  /// queued: nodes ascending, FIFO within each queue (single compaction
  /// pass). Each drop releases its flow-control window slot so the
  /// conservation identity closes.
  void drop_packets_to(std::uint32_t ms) {
    for (std::uint32_t node = 0; node < n_ + k_; ++node) {
      const std::size_t qs = q_size_[node];
      if (qs == 0) continue;
      const std::size_t base = q_base(node);
      std::size_t w = 0;
      for (std::size_t r = 0; r < qs; ++r) {
        const std::uint32_t flow = q_flow_[base + r];
        if (dest_[flow] == ms) {
          --count_own_[flow];
          --in_network_;
          audit_.inc(Counter::kDropped);
          audit_.inc(Counter::kDroppedMsChurn);
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kDrop, slot_, flow,
                               q_hop_[base + r], node, node);
          continue;
        }
        if (w != r) {
          q_flow_[base + w] = q_flow_[base + r];
          q_hop_[base + w] = q_hop_[base + r];
          q_born_[base + w] = q_born_[base + r];
        }
        ++w;
      }
      q_size_[node] = w;
    }
  }

  /// Opens a timeline entry in the trace context (null when not tracing).
  TraceFault* open_trace_fault(std::uint8_t kind) {
    if (opt_.trace == nullptr) return nullptr;
    opt_.trace->context.faults.push_back({});
    TraceFault& tf = opt_.trace->context.faults.back();
    tf.slot = slot_;
    tf.kind = kind;
    return &tf;
  }

  /// Kills every (still live) BS in `downs`: stream markers, queue drops,
  /// re-homing, hop-1 demotions, scheme-C recoloring — in that order, all
  /// deterministic (BSs ascending, queues FIFO).
  void apply_bs_down(const std::vector<std::uint32_t>& downs) {
    std::vector<std::uint32_t> fresh;
    for (std::uint32_t l : downs)
      if (bs_alive_[l] != 0) fresh.push_back(l);  // down on dead BS: no-op
    if (fresh.empty()) return;
    MANETCAP_CHECK_MSG(live_bs_ > fresh.size(),
                       "FaultPlan: fault plan leaves no live base station "
                       "at slot " << slot_);
    TraceFault* tf = open_trace_fault(TraceFault::kKindBsDown);
    for (std::uint32_t l : fresh) {
      bs_alive_[l] = 0;
      --live_bs_;
      if (tf != nullptr) {
        tf->bs.push_back(node_of_bs(l));
        opt_.trace->record(TraceEventKind::kBsDown, slot_, 0, 0,
                           node_of_bs(l), node_of_bs(l));
      }
    }
    for (std::uint32_t l : fresh) drop_queue(l);
    rebuild_serving(tf);
  }

  void apply_bs_up(std::uint32_t l) {
    if (bs_alive_[l] != 0) return;  // up on a live BS: no-op
    bs_alive_[l] = 1;
    ++live_bs_;
    TraceFault* tf = open_trace_fault(TraceFault::kKindBsUp);
    if (tf != nullptr) {
      tf->bs.push_back(node_of_bs(l));
      opt_.trace->record(TraceEventKind::kBsUp, slot_, 0, 0, node_of_bs(l),
                         node_of_bs(l));
    }
    rebuild_serving(tf);
  }

  /// Drops a dying BS's entire queue, FIFO order.
  void drop_queue(std::uint32_t l) {
    drop_all_at(node_of_bs(l), Counter::kDroppedBsOutage);
  }

  /// Drops every packet queued at `node` (a dying BS or a departing MS),
  /// FIFO order. The simulator's only loss sources: each packet counts
  /// under kDropped AND the cause counter `reason` and releases its
  /// flow-control window slot, so the conservation identity
  /// (injected == delivered + queued + dropped) still closes.
  void drop_all_at(std::uint32_t node, Counter reason) {
    const std::size_t base = q_base(node);
    const std::size_t qs = q_size_[node];
    for (std::size_t idx = 0; idx < qs; ++idx) {
      const std::uint32_t flow = q_flow_[base + idx];
      --count_own_[flow];
      --in_network_;
      audit_.inc(Counter::kDropped);
      audit_.inc(reason);
      if (opt_.trace != nullptr)
        opt_.trace->record(TraceEventKind::kDrop, slot_, flow,
                           q_hop_[base + idx], node, node);
    }
    q_size_[node] = 0;
  }

  /// Re-scales one wired edge's accrual rate. Credit earned at the old
  /// scale is settled through the fault slot first (token-bucket cap
  /// included), so a later top-up cannot retroactively apply the new rate
  /// to slots already elapsed; severing (scale 0) also dumps the bucket.
  void apply_wire_scale(const FaultEvent& e) {
    const std::uint32_t a = std::min(e.bs, e.bs2);
    const std::uint32_t b = std::max(e.bs, e.bs2);
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    auto [wire, first_use] = wire_credit_.try_emplace(key);
    if (first_use) wire->last_topup = slot_;
    const double c = net_.params().c();
    if (wire->last_topup < slot_) {
      wire->credit += (c * wire->scale) *
                      static_cast<double>(slot_ - wire->last_topup);
      wire->credit = std::min(wire->credit, std::max(1.0, 4.0 * c));
    }
    wire->last_topup = slot_;
    wire->scale = e.scale;
    if (e.scale == 0.0) wire->credit = 0.0;
    TraceFault* tf = open_trace_fault(TraceFault::kKindWireScale);
    if (tf != nullptr) {
      tf->bs = {node_of_bs(a), node_of_bs(b)};
      tf->scale = e.scale;
      opt_.trace->record(TraceEventKind::kWireScale, slot_, 0, 0,
                         node_of_bs(a), node_of_bs(b));
    }
  }

  /// Nearest live BS to `p` (ties break to the lowest id — deterministic).
  std::uint32_t nearest_live_bs(const geom::Point& p) const {
    std::uint32_t best = geom::SpatialHash::kNone;
    double best_d2 = 0.0;
    for (std::uint32_t l = 0; l < k_; ++l) {
      if (bs_alive_[l] == 0) continue;
      const double d2 = geom::torus_dist2(p, net_.bs_pos()[l]);
      if (best == geom::SpatialHash::kNone || d2 < best_d2) {
        best = l;
        best_d2 = d2;
      }
    }
    MANETCAP_CHECK_MSG(best != geom::SpatialHash::kNone,
                       "fault re-homing found no live BS");
    return best;
  }

  /// Recomputes every MS's serving set over the live BSs — the same rule
  /// init used (scheme B: all BSs within the contact distance, nearest-BS
  /// fallback when none; scheme C: nearest BS) restricted to live ones.
  /// An MS whose membership is unchanged as a set keeps its old list
  /// verbatim (order included), so an untouched region of the network sees
  /// zero behavioral difference. Changed MSs are the "affected" set: their
  /// new lists are recorded in the trace timeline, and hop-1 packets parked
  /// at a BS that no longer serves their destination are demoted to hop 0
  /// (they re-forward over the wired backbone).
  void rebuild_serving(TraceFault* tf) {
    std::vector<std::uint32_t> new_start(n_ + 1, 0);
    std::vector<std::uint32_t> new_ids;
    new_ids.reserve(serving_ids_.size());
    std::vector<std::uint8_t> new_fallback(n_, 0);
    std::vector<std::uint8_t> changed(n_, 0);
    const double contact2 = contact_ * contact_;
    for (std::uint32_t i = 0; i < n_; ++i) {
      const geom::Point home = net_.ms_home()[i];
      const std::size_t mark = new_ids.size();
      if (opt_.scheme == SlotScheme::kSchemeB) {
        // Same inclusive predicate SpatialHash::visit_disk applies
        // (dist² <= contact²), so boundary MSs are not spuriously rehomed.
        for (std::uint32_t l = 0; l < k_; ++l)
          if (bs_alive_[l] != 0 &&
              geom::torus_dist2(home, net_.bs_pos()[l]) <= contact2)
            new_ids.push_back(l);
        if (new_ids.size() == mark) {
          new_ids.push_back(nearest_live_bs(home));
          new_fallback[i] = 1;
        }
      } else {
        new_ids.push_back(nearest_live_bs(home));
      }
      const std::uint32_t ob = serving_start_[i], oe = serving_start_[i + 1];
      bool same = oe - ob == new_ids.size() - mark &&
                  new_fallback[i] == serving_is_fallback_[i];
      for (std::uint32_t s = ob; same && s < oe; ++s) {
        bool found = false;
        for (std::size_t j = mark; j < new_ids.size() && !found; ++j)
          found = new_ids[j] == serving_ids_[s];
        same = found;
      }
      if (same) {
        std::copy(serving_ids_.begin() + ob, serving_ids_.begin() + oe,
                  new_ids.begin() + static_cast<std::ptrdiff_t>(mark));
      } else {
        changed[i] = 1;
        audit_.inc(Counter::kMsRehomed);
        if (tf != nullptr) {
          tf->rehomed_ms.push_back(i);
          auto& list = tf->rehomed_serving.emplace_back(
              new_ids.begin() + static_cast<std::ptrdiff_t>(mark),
              new_ids.end());
          for (std::uint32_t& v : list) v += static_cast<std::uint32_t>(n_);
        }
      }
      new_start[i + 1] = static_cast<std::uint32_t>(new_ids.size());
    }
    serving_start_.swap(new_start);
    serving_ids_.swap(new_ids);
    serving_is_fallback_.swap(new_fallback);

    // Demote stranded hop-1 packets: their BS no longer serves the
    // destination, so the downlink contract would never fire. Hop 0 lets
    // wired_step re-forward them to the new serving set. BSs ascending,
    // FIFO within a queue.
    for (std::uint32_t l = 0; l < k_; ++l) {
      if (bs_alive_[l] == 0) continue;
      const std::uint32_t node = node_of_bs(l);
      const std::size_t base = q_base(node);
      for (std::size_t idx = 0; idx < q_size_[node]; ++idx) {
        if (q_hop_[base + idx] != 1) continue;
        const std::uint32_t d = dest_[q_flow_[base + idx]];
        if (changed[d] == 0) continue;
        bool serves = false;
        for (std::uint32_t s = serving_start_[d];
             s < serving_start_[d + 1] && !serves; ++s)
          serves = serving_ids_[s] == l;
        if (serves) continue;
        q_hop_[base + idx] = 0;
        audit_.inc(Counter::kHop1Demoted);
        if (opt_.trace != nullptr)
          opt_.trace->record(TraceEventKind::kRehome, slot_,
                             q_flow_[base + idx], 0, node, node);
      }
    }

    if (opt_.scheme == SlotScheme::kSchemeC) rebuild_members_and_colors();
  }

  /// One TDMA slot of scheme C: every cell of the active color serves one
  /// uplink and one downlink on its two symmetric channels. Returns the
  /// number of active cells (the concurrency statistic).
  std::size_t scheme_c_slot(std::size_t t) {
    const int active = static_cast<int>(t % num_colors_);
    std::size_t served = 0;
    for (std::uint32_t l = 0; l < k_; ++l) {
      const std::uint32_t mb = members_start_[l], me = members_start_[l + 1];
      if (cell_color_[l] != active || mb == me) continue;
      ++served;
      const std::uint32_t node = static_cast<std::uint32_t>(n_) + l;
      const std::size_t base = q_base(node);
      // Uplink channel: the round-robin member injects one packet.
      const std::uint32_t i = members_ids_[mb + rr_cell_[l]++ % (me - mb)];
      try_inject(i, node);
      // Downlink channel: deliver one wired-arrived packet whose
      // destination lives in this cell. The scan must cover the whole
      // queue, not a bounded prefix: hop-0 packets stalled on wired
      // credit keep their positions at the head, so a kScanDepth-limited
      // scan permanently starves every deliverable hop-1 packet queued
      // behind ≥ kScanDepth of them.
      bool delivered_one = false;
      for (std::size_t idx = 0; idx < q_size_[node]; ++idx) {
        if (q_hop_[base + idx] != 1) continue;
        const std::uint32_t d = dest_[q_flow_[base + idx]];
        if (serving_ids_[serving_start_[d]] == l) {
          const std::uint32_t flow = q_flow_[base + idx];
          const std::uint32_t hop = q_hop_[base + idx];
          const std::uint32_t born = q_born_[base + idx];
          erase_packet(node, idx);
          deliver(flow, hop, born, node);
          delivered_one = true;
          break;
        }
      }
      if (!delivered_one && q_size_[node] > 0)
        audit_.inc(Counter::kDownlinkStarved);
    }
    return served;
  }

  bool is_bs(std::uint32_t id) const { return id >= n_; }

  /// Moves at most one packet from `from` to `to` for the active scheme.
  void transfer(std::uint32_t from, std::uint32_t to) {
    switch (opt_.scheme) {
      case SlotScheme::kSchemeA:
        transfer_scheme_a(from, to);
        break;
      case SlotScheme::kTwoHop:
        transfer_two_hop(from, to);
        break;
      case SlotScheme::kSchemeB:
        transfer_scheme_b(from, to);
        break;
      case SlotScheme::kSchemeC:
        break;  // scheme C never uses S* pairs (static TDMA)
    }
  }

  void deliver(std::uint32_t flow, std::uint32_t hop, std::uint32_t born,
               std::uint32_t holder) {
    ++delivered_[flow];
    --count_own_[flow];  // release the flow-control window slot
    --in_network_;
    audit_.inc(Counter::kDelivered);
    if (opt_.trace != nullptr)
      opt_.trace->record(TraceEventKind::kDeliver, slot_, flow, hop, holder,
                         dest_[flow]);
    if (measuring_ && opt_.track_delays && born >= opt_.warmup)
      delays_.push_back(static_cast<double>(slot_ - born));
  }

  /// Source injection under the flow-control window: pushes one packet of
  /// `flow`'s own traffic into node `node`'s queue, counting every
  /// rejection — a full queue used to no-op silently, making the offered
  /// load unknowable.
  void try_inject(std::uint32_t flow, std::uint32_t node) {
    // Traffic-model arrival gate (null for the legacy saturated-CBR
    // path): a flow that has not started, has exhausted its size, or is
    // in an off-gap offers nothing this meeting. The on-off gate advances
    // lazily per flow, so its state at a slot is independent of which
    // earlier slots were queried — a requirement for shard bit-identity.
    if (demands_ != nullptr) {
      const net::FlowDemand& d = (*demands_)[flow];
      if (slot_ < d.start || inj_count_[flow] >= d.size ||
          (has_onoff_ && !onoff_[flow].on_at(slot_))) {
        audit_.inc(Counter::kInjectGatedTraffic);
        return;
      }
    }
    // Churn gate: an absent source offers nothing; traffic toward an
    // absent destination is refused at the source (it would be dropped on
    // arrival anyway).
    if (!ms_alive_.empty() &&
        (ms_alive_[flow] == 0 || ms_alive_[dest_[flow]] == 0)) {
      audit_.inc(Counter::kInjectBlockedChurn);
      return;
    }
    if (count_own_[flow] >= opt_.source_backlog) {
      audit_.inc(Counter::kInjectRejectWindowFull);
      return;
    }
    if (q_size_[node] >= q_cap(node)) {
      audit_.inc(Counter::kInjectRejectQueueFull);
      return;
    }
    push_packet(node, flow, 0, slot_);
    ++count_own_[flow];
    ++in_network_;
    if (demands_ != nullptr) ++inj_count_[flow];
    audit_.inc(Counter::kInjected);
    if (opt_.trace != nullptr)
      opt_.trace->record(TraceEventKind::kInject, slot_, flow, 0, flow, node);
  }

  // Scheme A: a relay in squarelet path[h] hands the packet to a node whose
  // home squarelet is path[h+1], or directly to the destination.
  void transfer_scheme_a(std::uint32_t from, std::uint32_t to) {
    if (is_bs(from) || is_bs(to)) return;  // pure ad hoc scheme
    // A departed MS still occupies its position, so S* can schedule a
    // meeting with the ghost — the meeting is simply wasted (the dead-BS
    // semantics applied to churn).
    if (!ms_alive_.empty() && (ms_alive_[from] == 0 || ms_alive_[to] == 0))
      return;

    // Source injection: keep the head of the pipeline saturated.
    try_inject(from, from);

    const std::size_t base = q_base(from);
    const std::size_t scan = std::min<std::size_t>(q_size_[from], kScanDepth);
    for (std::size_t idx = 0; idx < scan; ++idx) {
      const std::uint32_t flow = q_flow_[base + idx];
      const std::uint32_t hop = q_hop_[base + idx];
      if (to == dest_[flow]) {
        // The destination itself can take delivery from any path position
        // at or next to its own squarelet; with H-V routing the packet is
        // only ever co-located with the destination at the final cells, so
        // accept delivery whenever they meet.
        const std::uint32_t born = q_born_[base + idx];
        erase_packet(from, idx);
        deliver(flow, hop, born, from);
        return;
      }
      // At the last path cell only the destination itself can take the
      // packet (handled above). `to` cannot be a BS here — the early
      // return already excluded BS endpoints.
      if (hop + 1 >= path_start_[flow + 1] - path_start_[flow]) continue;
      if (home_cell_[to] == path_cells_[path_start_[flow] + hop + 1]) {
        if (q_size_[to] < q_cap(to)) {
          const std::uint32_t born = q_born_[base + idx];
          erase_packet(from, idx);
          push_packet(to, flow, hop + 1, born);
          audit_.inc(Counter::kRelayed);
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kRelay, slot_, flow, hop + 1,
                               from, to);
          return;
        }
        audit_.inc(Counter::kRelayRejectQueueFull);
      }
    }
  }

  // Two-hop: source → any relay → destination.
  void transfer_two_hop(std::uint32_t from, std::uint32_t to) {
    if (is_bs(from) || is_bs(to)) return;
    if (!ms_alive_.empty() && (ms_alive_[from] == 0 || ms_alive_[to] == 0))
      return;  // ghost meeting (see transfer_scheme_a)
    try_inject(from, from);
    const std::size_t base = q_base(from);
    const std::size_t scan = std::min<std::size_t>(q_size_[from], kScanDepth);
    for (std::size_t idx = 0; idx < scan; ++idx) {
      const std::uint32_t flow = q_flow_[base + idx];
      if (to == dest_[flow]) {
        const std::uint32_t hop = q_hop_[base + idx];
        const std::uint32_t born = q_born_[base + idx];
        erase_packet(from, idx);
        deliver(flow, hop, born, from);
        return;
      }
      // Only the source hands off to a relay (exactly two hops). The relay
      // hand-off advances hop to 1, so "a third hop would be needed" is
      // visible in the packet state (and in the trace).
      if (flow == from) {
        if (q_size_[to] < q_cap(to)) {
          const std::uint32_t born = q_born_[base + idx];
          erase_packet(from, idx);
          push_packet(to, flow, 1, born);
          audit_.inc(Counter::kRelayed);
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kRelay, slot_, flow, 1, from,
                               to);
          return;
        }
        audit_.inc(Counter::kRelayRejectQueueFull);
      }
    }
  }

  // Scheme B: MS→BS uplink; BS queues drain over the wired backbone in
  // wired_step(); BS→MS downlink on meeting the destination.
  void transfer_scheme_b(std::uint32_t from, std::uint32_t to) {
    if (!is_bs(from) && is_bs(to)) {
      if (!bs_is_live(to - static_cast<std::uint32_t>(n_))) {
        // A dead BS still occupies its position, so S* can schedule a
        // meeting with it — the meeting is simply wasted.
        audit_.inc(Counter::kUplinkBlockedBsDown);
        return;
      }
      // Uplink: inject one packet of `from`'s own flow (within the
      // flow-control window).
      try_inject(from, to);
      return;
    }
    if (is_bs(from) && !is_bs(to)) {
      // Downlink: deliver a packet destined to `to`, if this BS holds one.
      const std::size_t base = q_base(from);
      const std::size_t scan =
          std::min<std::size_t>(q_size_[from], kScanDepth);
      for (std::size_t idx = 0; idx < scan; ++idx) {
        if (dest_[q_flow_[base + idx]] == to && q_hop_[base + idx] == 1) {
          const std::uint32_t flow = q_flow_[base + idx];
          const std::uint32_t born = q_born_[base + idx];
          erase_packet(from, idx);
          deliver(flow, 1, born, from);
          return;
        }
      }
    }
  }

  // Wired phase: every edge accrues c(n) units of credit per slot (lazily,
  // from the slot of its last use); a BS forwards each uplink packet
  // (hop 0) to a BS serving the destination once the edge holds a full
  // unit of credit.
  void wired_step(std::size_t slot) {
    const double c = net_.params().c();
    for (std::uint32_t l = 0; l < k_; ++l) {
      if (!bs_is_live(l)) continue;  // a dead BS's queue was dropped
      const std::uint32_t node = static_cast<std::uint32_t>(n_) + l;
      const std::size_t base = q_base(node);
      // Single compaction pass: read cursor `r` visits every packet in the
      // original order (so the rr_ round-robin and credit decisions are
      // made in exactly the sequence the old erase-in-place loop made
      // them), write cursor `w` keeps the survivors.
      const std::size_t qs = q_size_[node];
      std::size_t w = 0;
      for (std::size_t r = 0; r < qs; ++r) {
        const auto keep = [&] {
          if (w != r) {
            q_flow_[base + w] = q_flow_[base + r];
            q_hop_[base + w] = q_hop_[base + r];
            q_born_[base + w] = q_born_[base + r];
          }
          ++w;
        };
        if (q_hop_[base + r] != 0) {
          keep();
          continue;
        }
        const std::uint32_t flow = q_flow_[base + r];
        const std::uint32_t d = dest_[flow];
        const std::uint32_t sb = serving_start_[d], se = serving_start_[d + 1];
        if (se == sb) {
          // Unreachable since init_scheme_b/_c guarantee a serving BS per
          // MS; counted defensively so a future association change that
          // reintroduces orphans fails the audit instead of stalling.
          audit_.inc(Counter::kUndeliverable);
          keep();
          continue;
        }
        // Round-robin over the destination's serving BSs.
        const std::uint32_t target = serving_ids_[sb + rr_++ % (se - sb)];
        if (target == l) {
          q_hop_[base + r] = 1;  // already at a serving BS
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kWiredForward,
                               static_cast<std::uint32_t>(slot), flow, 1,
                               node, node);
          keep();
          continue;
        }
        const std::uint64_t key =
            (static_cast<std::uint64_t>(std::min(l, target)) << 32) |
            std::max(l, target);
        auto [wire, first_use] = wire_credit_.try_emplace(key);
        // A fresh edge starts accruing at its first-use slot — crediting
        // retroactively from slot 0 would let low-c(n) edges burst a full
        // bucket at first touch and inflate early infra throughput.
        if (first_use) wire->last_topup = slot;
        if (wire->last_topup < slot + 1) {
          // scale is exactly 1.0 outside a fault plan, so c·scale·Δ is
          // bit-identical to the historical c·Δ accrual.
          wire->credit += (c * wire->scale) *
                          static_cast<double>(slot + 1 - wire->last_topup);
          // Token bucket with depth scaled to the wire rate (4 slots of
          // credit, but never below one packet so low-c edges still
          // transmit): an idle edge cannot burst arbitrarily later.
          wire->credit = std::min(wire->credit, std::max(1.0, 4.0 * c));
          wire->last_topup = slot + 1;
        }
        if (wire->credit < 1.0) {
          audit_.inc(Counter::kWiredCreditStall);
          keep();
        } else if (q_size_[n_ + target] >= bs_cap_) {
          audit_.inc(Counter::kWiredRejectQueueFull);
          keep();
        } else {
          wire->credit -= 1.0;
          push_packet(static_cast<std::uint32_t>(n_) + target, flow, 1,
                      q_born_[base + r]);
          audit_.inc(Counter::kWiredForwarded);
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kWiredForward,
                               static_cast<std::uint32_t>(slot), flow, 1,
                               node,
                               static_cast<std::uint32_t>(n_ + target));
        }
      }
      q_size_[node] = w;
    }
  }

  // --- checkpoint / restore (MCCKPT1, docs/SCALE.md) -----------------------
  /// Fingerprints bind a checkpoint to the run that wrote it: the exact
  /// traffic pattern, network geometry and fault timeline — anything the
  /// config echo (n, k, seed, …) cannot distinguish.
  std::uint64_t dest_fingerprint() const {
    std::vector<std::uint8_t> buf;
    buf.reserve(dest_.size() * 5);
    for (std::uint32_t d : dest_) util::binio::put_varint(buf, d);
    return util::binio::fnv1a(buf.data(), buf.size());
  }

  std::uint64_t geometry_fingerprint() const {
    std::vector<std::uint8_t> buf;
    buf.reserve((net_.ms_home().size() + net_.bs_pos().size()) * 16);
    for (const geom::Point& p : net_.ms_home()) {
      util::binio::put_f64(buf, p.x);
      util::binio::put_f64(buf, p.y);
    }
    for (const geom::Point& p : net_.bs_pos()) {
      util::binio::put_f64(buf, p.x);
      util::binio::put_f64(buf, p.y);
    }
    return util::binio::fnv1a(buf.data(), buf.size());
  }

  std::uint64_t faults_fingerprint() const {
    if (faults_ == nullptr) return 0;
    std::vector<std::uint8_t> buf;
    for (const FaultEvent& e : faults_->events) {
      util::binio::put_varint(buf, e.slot);
      buf.push_back(static_cast<std::uint8_t>(e.kind));
      util::binio::put_varint(buf, e.bs);
      util::binio::put_varint(buf, e.bs2);
      util::binio::put_f64(buf, e.scale);
      util::binio::put_f64(buf, e.center.x);
      util::binio::put_f64(buf, e.center.y);
      util::binio::put_f64(buf, e.radius);
      util::binio::put_varint(buf, e.ms);
      buf.push_back(e.mobility);
    }
    return util::binio::fnv1a(buf.data(), buf.size());
  }

  /// Binds a checkpoint to the full demand set (the dest fingerprint only
  /// covers destinations): sizes, starts and on-off means. 0 for the
  /// legacy saturated-CBR path.
  std::uint64_t traffic_fingerprint() const {
    if (demands_ == nullptr) return 0;
    std::vector<std::uint8_t> buf;
    buf.reserve(demands_->size() * 24);
    for (const net::FlowDemand& d : *demands_) {
      util::binio::put_varint(buf, d.dst);
      util::binio::put_u64_fixed(buf, d.size);
      util::binio::put_varint(buf, d.start);
      util::binio::put_f64(buf, d.on_mean);
      util::binio::put_f64(buf, d.off_mean);
    }
    return util::binio::fnv1a(buf.data(), buf.size());
  }

  /// Serializes the full simulator state as of the top of slot `t_next`
  /// (i.e. end of slot t_next − 1) and atomically replaces
  /// opt_.checkpoint_path (tmp + rename — a crash mid-write never corrupts
  /// the previous checkpoint).
  void save_checkpoint(std::size_t t_next,
                       const mobility::MobilityProcess& process,
                       std::uint64_t pair_count) const {
    using util::binio::put_f64;
    using util::binio::put_id_list;
    using util::binio::put_u64_fixed;
    using util::binio::put_varint;
    std::vector<std::uint8_t> out;
    out.reserve(64 + (n_ + k_) * 24);
    for (int i = 0; i < 8; ++i)  // magic, byte-wise (see trace.cpp)
      out.push_back(static_cast<std::uint8_t>(kCkptMagic[i]));
    // Config echo — every knob that shapes the trajectory.
    out.push_back(static_cast<std::uint8_t>(opt_.scheme));
    out.push_back(static_cast<std::uint8_t>(opt_.mobility));
    put_varint(out, n_);
    put_varint(out, k_);
    put_varint(out, opt_.slots);
    put_varint(out, opt_.warmup);
    put_varint(out, opt_.max_queue);
    put_varint(out, opt_.source_backlog);
    put_varint(out, opt_.seed);
    put_f64(out, opt_.ct);
    put_f64(out, opt_.delta);
    // PHY backend + parameters: a checkpoint written under one
    // interference model must not resume under another.
    out.push_back(static_cast<std::uint8_t>(opt_.phy));
    put_f64(out, opt_.sinr.path_loss);
    put_f64(out, opt_.sinr.beta);
    put_f64(out, opt_.sinr.snr_edge);
    put_f64(out, opt_.sinr.power);
    put_f64(out, opt_.sinr.field_radius);
    put_f64(out, opt_.sinr.cca);
    put_f64(out, k_ > 0 ? net_.params().c() : 0.0);
    put_u64_fixed(out, dest_fingerprint());
    put_u64_fixed(out, geometry_fingerprint());
    put_u64_fixed(out, faults_fingerprint());
    put_u64_fixed(out, traffic_fingerprint());
    // Cursor + scalar state.
    put_varint(out, t_next);
    out.push_back(measuring_ ? 1 : 0);
    // Legacy "S* hash built" flag: true from the first S* slot on, which
    // every checkpoint of an S* scheme follows (checkpoints land at t ≥ 1).
    // The cell list is rebuilt every slot, so nothing reads it back.
    out.push_back(opt_.scheme != SlotScheme::kSchemeC ? 1 : 0);
    put_varint(out, pair_count);
    put_varint(out, in_network_);
    put_varint(out, rr_);
    put_varint(out, next_fault_);
    put_varint(out, live_bs_);
    put_varint(out, bs_alive_.size());
    out.insert(out.end(), bs_alive_.begin(), bs_alive_.end());
    // Churn + traffic-model state (empty/absent on the legacy path).
    put_varint(out, ms_alive_.size());
    out.insert(out.end(), ms_alive_.begin(), ms_alive_.end());
    put_varint(out, live_ms_);
    out.push_back(demands_ != nullptr ? 1 : 0);
    if (demands_ != nullptr) {
      for (std::uint64_t cnt : inj_count_) put_varint(out, cnt);
      out.push_back(has_onoff_ ? 1 : 0);
      if (has_onoff_) {
        for (const net::OnOffGate& gate : onoff_) {
          put_u64_fixed(out, gate.until());
          out.push_back(gate.is_on() ? 1 : 0);
          for (std::uint64_t s : gate.rng_state()) put_u64_fixed(out, s);
        }
      }
    }
    // Positions (the S* cell list is rebuilt from these, not serialized).
    for (const geom::Point& p : pos_all_) {
      put_f64(out, p.x);
      put_f64(out, p.y);
    }
    for (std::uint64_t d : delivered_) put_varint(out, d);
    for (std::uint32_t w : count_own_) put_varint(out, w);
    // Queues: occupied prefixes only — a near-empty 10⁶-node run
    // checkpoints in kilobytes, not the slab size.
    for (std::uint32_t node = 0; node < n_ + k_; ++node) {
      const std::size_t base = q_base(node);
      put_varint(out, q_size_[node]);
      for (std::size_t j = 0; j < q_size_[node]; ++j) {
        put_varint(out, q_flow_[base + j]);
        put_varint(out, q_hop_[base + j]);
        put_varint(out, q_born_[base + j]);
      }
    }
    // Serving CSR — faults mutate it mid-run, so the ctor's version is not
    // authoritative.
    put_id_list(out, serving_start_);
    put_id_list(out, serving_ids_);
    put_varint(out, serving_is_fallback_.size());
    out.insert(out.end(), serving_is_fallback_.begin(),
               serving_is_fallback_.end());
    put_varint(out, rr_cell_.size());
    for (std::size_t v : rr_cell_) put_varint(out, v);
    put_varint(out, wire_credit_.size());
    wire_credit_.for_each_sorted([&](std::uint64_t key, const WireState& w) {
      put_u64_fixed(out, key);
      put_f64(out, w.credit);
      put_varint(out, w.last_topup);
      put_f64(out, w.scale);
    });
    // Audit registry + series + delay log.
    for (std::size_t c = 0; c < kNumCounters; ++c)
      put_varint(out, audit_.count(static_cast<Counter>(c)));
    put_varint(out, audit_.series().size());
    for (const SlotSample& s : audit_.series()) {
      put_varint(out, s.slot);
      put_varint(out, s.queued);
      put_varint(out, s.scheduled_pairs);
      put_varint(out, s.active_cells);
      put_varint(out, s.live_bs);
    }
    put_varint(out, delays_.size());
    for (double d : delays_) put_f64(out, d);
    // Mobility (RNG streams + evolving coordinates).
    process.save_state(out);
    // In-flight trace, so a resumed traced run emits the identical file.
    if (opt_.trace != nullptr) {
      out.push_back(1);
      encode_faults(out, opt_.trace->context.faults);
      encode_events(out, opt_.trace->events);
    } else {
      out.push_back(0);
    }
    put_u64_fixed(out, util::binio::fnv1a(out.data(), out.size()));

    const std::string tmp = opt_.checkpoint_path + ".tmp";
    {
      std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
      MANETCAP_CHECK_MSG(f.good(),
                         "checkpoint: cannot open for write: " << tmp);
      f.write(reinterpret_cast<const char*>(out.data()),
              static_cast<std::streamsize>(out.size()));
      f.flush();
      MANETCAP_CHECK_MSG(f.good(), "checkpoint: write failed: " << tmp);
    }
    MANETCAP_CHECK_MSG(
        std::rename(tmp.c_str(), opt_.checkpoint_path.c_str()) == 0,
        "checkpoint: atomic rename failed: " << opt_.checkpoint_path);
  }

  /// Restores state from opt_.resume_path. Validates the config echo and
  /// fingerprints against this run's configuration, then loads everything
  /// save_checkpoint wrote and rebuilds the derived structures (scheme-C
  /// members/colors from the restored association; the S* cell list is
  /// rebuilt every slot anyway). Returns the slot to resume at.
  std::size_t load_checkpoint(mobility::MobilityProcess& process,
                              std::uint64_t& pair_count) {
    using util::binio::get_f64;
    using util::binio::get_id_list;
    std::ifstream in(opt_.resume_path, std::ios::binary | std::ios::ate);
    MANETCAP_CHECK_MSG(in.good(),
                       "checkpoint: cannot open for read: " << opt_.resume_path);
    const std::streamsize fsize = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(fsize));
    in.read(reinterpret_cast<char*>(bytes.data()), fsize);
    MANETCAP_CHECK_MSG(in.good(),
                       "checkpoint: read failed: " << opt_.resume_path);
    MANETCAP_CHECK_MSG(bytes.size() >= 16, "checkpoint: file too small");
    MANETCAP_CHECK_MSG(std::memcmp(bytes.data(), kCkptMagic, 8) == 0,
                       "checkpoint: bad magic (not an MCCKPT1 file)");
    const std::size_t body = bytes.size() - 8;
    MANETCAP_CHECK_MSG(util::binio::get_u64_fixed(bytes, body) ==
                           util::binio::fnv1a(bytes.data(), body),
                       "checkpoint: checksum mismatch (truncated or "
                       "corrupted file)");
    util::binio::ByteReader r{bytes, 8, body, "checkpoint"};

    MANETCAP_CHECK_MSG(r.u8() == static_cast<std::uint8_t>(opt_.scheme),
                       "checkpoint: scheme mismatch");
    MANETCAP_CHECK_MSG(r.u8() == static_cast<std::uint8_t>(opt_.mobility),
                       "checkpoint: mobility model mismatch");
    MANETCAP_CHECK_MSG(r.varint() == n_, "checkpoint: n mismatch");
    MANETCAP_CHECK_MSG(r.varint() == k_, "checkpoint: k mismatch");
    MANETCAP_CHECK_MSG(r.varint() == opt_.slots, "checkpoint: slots mismatch");
    MANETCAP_CHECK_MSG(r.varint() == opt_.warmup,
                       "checkpoint: warmup mismatch");
    MANETCAP_CHECK_MSG(r.varint() == opt_.max_queue,
                       "checkpoint: max_queue mismatch");
    MANETCAP_CHECK_MSG(r.varint() == opt_.source_backlog,
                       "checkpoint: source_backlog mismatch");
    MANETCAP_CHECK_MSG(r.varint() == opt_.seed, "checkpoint: seed mismatch");
    MANETCAP_CHECK_MSG(get_f64(r) == opt_.ct, "checkpoint: ct mismatch");
    MANETCAP_CHECK_MSG(get_f64(r) == opt_.delta,
                       "checkpoint: delta mismatch");
    MANETCAP_CHECK_MSG(r.u8() == static_cast<std::uint8_t>(opt_.phy),
                       "checkpoint: phy backend mismatch");
    // The six SINR parameters are always serialized (uniform layout) but
    // only binding when a non-protocol backend is active — under the
    // protocol model they are ignored by the run, so they must not be
    // able to block a resume.
    const double ck_sinr[6] = {get_f64(r), get_f64(r), get_f64(r),
                               get_f64(r), get_f64(r), get_f64(r)};
    if (opt_.phy != phy::PhyKind::kProtocol) {
      const double now_sinr[6] = {opt_.sinr.path_loss,    opt_.sinr.beta,
                                  opt_.sinr.snr_edge,     opt_.sinr.power,
                                  opt_.sinr.field_radius, opt_.sinr.cca};
      for (int i = 0; i < 6; ++i)
        MANETCAP_CHECK_MSG(ck_sinr[i] == now_sinr[i],
                           "checkpoint: SINR parameter mismatch");
    }
    MANETCAP_CHECK_MSG(get_f64(r) == (k_ > 0 ? net_.params().c() : 0.0),
                       "checkpoint: wired capacity c(n) mismatch");
    MANETCAP_CHECK_MSG(r.u64_fixed() == dest_fingerprint(),
                       "checkpoint: traffic pattern (dest) fingerprint "
                       "mismatch");
    MANETCAP_CHECK_MSG(r.u64_fixed() == geometry_fingerprint(),
                       "checkpoint: network geometry fingerprint mismatch");
    MANETCAP_CHECK_MSG(r.u64_fixed() == faults_fingerprint(),
                       "checkpoint: fault plan fingerprint mismatch");
    MANETCAP_CHECK_MSG(r.u64_fixed() == traffic_fingerprint(),
                       "checkpoint: traffic demand fingerprint mismatch");

    const std::size_t t_next = r.varint();
    MANETCAP_CHECK_MSG(t_next <= opt_.slots,
                       "checkpoint: resume slot beyond the horizon");
    measuring_ = r.u8() != 0;
    r.u8();  // legacy "S* hash built" flag, see save_checkpoint
    pair_count = r.varint();
    in_network_ = r.varint();
    rr_ = r.varint();
    next_fault_ = r.varint();
    MANETCAP_CHECK_MSG(
        faults_ == nullptr || next_fault_ <= faults_->events.size(),
        "checkpoint: fault cursor out of range");
    live_bs_ = r.varint();
    MANETCAP_CHECK_MSG(r.varint() == bs_alive_.size(),
                       "checkpoint: BS liveness table size mismatch");
    for (auto& b : bs_alive_) b = r.u8();
    MANETCAP_CHECK_MSG(r.varint() == ms_alive_.size(),
                       "checkpoint: MS presence table size mismatch");
    for (auto& b : ms_alive_) b = r.u8();
    live_ms_ = r.varint();
    MANETCAP_CHECK_MSG(live_ms_ <= n_,
                       "checkpoint: live MS count out of range");
    MANETCAP_CHECK_MSG((r.u8() != 0) == (demands_ != nullptr),
                       "checkpoint: traffic-model state presence mismatch");
    if (demands_ != nullptr) {
      for (auto& cnt : inj_count_) cnt = r.varint();
      MANETCAP_CHECK_MSG((r.u8() != 0) == has_onoff_,
                         "checkpoint: on-off gate state presence mismatch");
      if (has_onoff_) {
        for (net::OnOffGate& gate : onoff_) {
          const std::uint64_t until = r.u64_fixed();
          const bool on = r.u8() != 0;
          std::array<std::uint64_t, 4> s{};
          for (std::uint64_t& w : s) w = r.u64_fixed();
          gate.restore(until, on, s);
        }
      }
    }
    for (geom::Point& p : pos_all_) {
      p.x = get_f64(r);
      p.y = get_f64(r);
    }
    for (auto& d : delivered_) d = r.varint();
    for (auto& w : count_own_) w = r.u32v();
    for (std::uint32_t node = 0; node < n_ + k_; ++node) {
      const std::uint32_t qs = r.u32v();
      MANETCAP_CHECK_MSG(qs <= q_cap(node),
                         "checkpoint: queue size exceeds capacity at node "
                             << node);
      q_size_[node] = qs;
      const std::size_t base = q_base(node);
      for (std::size_t j = 0; j < qs; ++j) {
        q_flow_[base + j] = r.u32v();
        q_hop_[base + j] = r.u32v();
        q_born_[base + j] = r.u32v();
      }
    }
    serving_start_ = get_id_list(r);
    serving_ids_ = get_id_list(r);
    MANETCAP_CHECK_MSG(
        serving_start_.empty() || (serving_start_.size() == n_ + 1 &&
                                   serving_start_.back() ==
                                       serving_ids_.size()),
        "checkpoint: serving CSR is inconsistent");
    MANETCAP_CHECK_MSG(r.varint() == serving_is_fallback_.size(),
                       "checkpoint: fallback table size mismatch");
    for (auto& b : serving_is_fallback_) b = r.u8();
    MANETCAP_CHECK_MSG(r.varint() == rr_cell_.size(),
                       "checkpoint: cell round-robin table size mismatch");
    for (auto& v : rr_cell_) v = r.varint();
    const std::uint64_t n_edges = r.varint();
    MANETCAP_CHECK_MSG(n_edges <= static_cast<std::uint64_t>(k_) * k_,
                       "checkpoint: wired edge count out of range");
    for (std::uint64_t e = 0; e < n_edges; ++e) {
      const std::uint64_t key = r.u64_fixed();
      auto [wire, first_use] = wire_credit_.try_emplace(key);
      MANETCAP_CHECK_MSG(first_use, "checkpoint: duplicate wired edge key");
      wire->credit = get_f64(r);
      wire->last_topup = r.varint();
      wire->scale = get_f64(r);
    }
    for (std::size_t c = 0; c < kNumCounters; ++c)
      audit_.add(static_cast<Counter>(c), r.varint());  // fresh registry: add == set
    const std::uint64_t n_samples = r.count(5, "series sample");
    MANETCAP_CHECK_MSG(n_samples <= opt_.slots,
                       "checkpoint: series sample count out of range");
    std::vector<SlotSample> samples(n_samples);
    for (SlotSample& s : samples) {
      s.slot = r.u32v();
      s.queued = r.varint();
      s.scheduled_pairs = r.u32v();
      s.active_cells = r.u32v();
      s.live_bs = r.u32v();
    }
    audit_.restore_series(std::move(samples));
    delays_.resize(r.count(8, "delay log"));  // one f64 per delay
    for (double& d : delays_) d = get_f64(r);
    process.load_state(r);
    const std::uint8_t has_trace = r.u8();
    if (has_trace != 0) {
      MANETCAP_CHECK_MSG(opt_.trace != nullptr,
                         "checkpoint: file carries trace state but no "
                         "trace sink is attached to this run");
      opt_.trace->context.faults = decode_faults(r);
      opt_.trace->events = decode_events(r, 11);
    } else {
      MANETCAP_CHECK_MSG(opt_.trace == nullptr,
                         "checkpoint: a trace sink is attached but the "
                         "file carries no trace state");
    }
    MANETCAP_CHECK_MSG(r.pos == r.end, "checkpoint: trailing bytes");

    // Derived state. Scheme C re-derives members and colors from the
    // restored association + liveness, exactly as rebuild_serving would.
    if (opt_.scheme == SlotScheme::kSchemeC) rebuild_members_and_colors();
    return t_next;
  }

  template <class T>
  static std::uint64_t vec_bytes(const std::vector<T>& v) {
    return v.capacity() * sizeof(T);
  }

  static constexpr char kCkptMagic[8] = {'M', 'C', 'C', 'K', 'P', 'T', '1',
                                         '\0'};

  static constexpr std::size_t kScanDepth = 16;

  const net::Network& net_;
  const std::vector<std::uint32_t>& dest_;
  SlotSimOptions opt_;
  std::size_t n_;
  std::size_t k_;

  // Queue slabs (SoA): node q's packets occupy
  // [q_base(q), q_base(q) + q_size_[q]) in each of the three parallel
  // arrays, in FIFO order. Per-class capacities (one of them 0 for every
  // scheme) keep the slabs proportional to the queues actually used;
  // uint32 sizes/windows halve the per-node bookkeeping at large n.
  std::size_t ms_cap_;
  std::size_t bs_cap_;
  std::vector<std::uint32_t> q_flow_;
  std::vector<std::uint32_t> q_hop_;
  std::vector<std::uint32_t> q_born_;
  std::vector<std::uint32_t> q_size_;

  std::vector<std::uint64_t> delivered_;
  std::vector<std::uint32_t> count_own_;
  std::vector<double> delays_;  // per delivered packet, measurement window
  std::uint32_t slot_ = 0;      // current slot (delay bookkeeping)
  bool measuring_ = false;

  // Persistent position buffer: MSs at [0, n), BSs at [n, n+k). The BS
  // tail never changes after construction.
  std::vector<geom::Point> pos_all_;

  // Audit state: the metrics registry (absorbed into opt_.metrics at end
  // of run) and a running count of packets resident in any queue — kept
  // incrementally so per-slot sampling is O(1), then cross-checked against
  // the actual queue occupancy by the conservation invariant.
  Metrics audit_;
  std::uint64_t in_network_ = 0;

  // Scheme A state (paths in CSR: flow s's squarelet path is
  // path_cells_[path_start_[s] .. path_start_[s+1])).
  std::unique_ptr<geom::SquareTessellation> tess_;
  std::vector<std::uint32_t> home_cell_;
  std::vector<std::uint32_t> path_start_;
  std::vector<std::uint32_t> path_cells_;

  // Scheme B/C serving sets in CSR (BS indices 0..k).
  std::vector<std::uint32_t> serving_start_;
  std::vector<std::uint32_t> serving_ids_;
  WireCreditMap wire_credit_;
  std::size_t rr_ = 0;

  // Scheme C state (cell members in CSR).
  std::vector<std::uint32_t> members_start_;
  std::vector<std::uint32_t> members_ids_;
  std::vector<int> cell_color_;
  std::size_t num_colors_ = 1;
  std::vector<std::size_t> rr_cell_;

  // Fault-injection state. faults_ stays null for a fault-free run: every
  // fault branch is guarded on it (or on bs_alive_ being empty), so the
  // no-fault code path — and its golden trace bytes — are unchanged.
  const FaultPlan* faults_ = nullptr;
  std::size_t next_fault_ = 0;          // cursor into faults_->events
  std::vector<std::uint8_t> bs_alive_;  // per-BS liveness; empty = all live
  std::size_t live_bs_ = 0;
  double contact_ = 0.0;  // scheme B MS–BS contact distance (re-homing rule)
  std::vector<std::uint8_t> serving_is_fallback_;  // nearest-BS fallback MSs

  // Traffic-model state (tentpole). demands_ stays null for the default
  // saturated-CBR spec — every traffic branch is guarded on it, same
  // discipline as faults_, so the legacy path and its golden trace bytes
  // are unchanged.
  const std::vector<net::FlowDemand>* demands_ = nullptr;
  std::vector<std::uint64_t> inj_count_;  // packets injected per flow
  std::vector<net::OnOffGate> onoff_;     // per-flow burst gates
  bool has_onoff_ = false;

  // MS churn state; empty = everyone present for the whole run.
  std::vector<std::uint8_t> ms_alive_;
  std::size_t live_ms_ = 0;

};

}  // namespace

SlotSimResult run_slot_sim(const net::Network& net,
                           const std::vector<std::uint32_t>& dest,
                           const SlotSimOptions& options) {
  SlotSim sim(net, dest, options);
  return sim.run();
}

SlotSimResult run_slot_sim(const net::Network& net,
                           const std::vector<net::FlowDemand>& demands,
                           const SlotSimOptions& options) {
  net::validate_demands(demands, net.num_ms());
  // The sim holds dest by reference; this wrapper owns the derived map
  // for the sim's lifetime.
  const std::vector<std::uint32_t> dest = net::dest_of(demands);
  SlotSim sim(net, dest, options, &demands);
  return sim.run();
}

}  // namespace manetcap::sim
