// Frozen copy of the pre-overhaul simulator (see slotsim_reference.h).
// Deliberately byte-for-byte the legacy algorithm: deque queues, per-slot
// spatial-hash rebuild inside S*, std::map wired credit. Do not "improve"
// this file — its whole value is staying behaviorally identical to the
// simulator the golden traces were captured with.
#include "sim/slotsim_reference.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "analysis/stats.h"
#include "geom/spatial_hash.h"
#include "geom/tessellation.h"
#include "linkcap/link_capacity.h"
#include "mobility/process.h"
#include "sched/sstar.h"
#include "sim/trace.h"
#include "util/check.h"

namespace manetcap::sim {

namespace {

/// A packet in flight: `flow` identifies the (source, destination) pair;
/// `hop` is the index into the flow's squarelet path (scheme A) or the
/// wired-phase marker (scheme B); `born` is the injection slot (delay).
struct Packet {
  std::uint32_t flow = 0;
  std::uint32_t hop = 0;
  std::uint32_t born = 0;
};

/// Frozen copy of the pre-overhaul spatial query + S* pair selection: CSR
/// grid rebuilt from scratch on every call, type-erased per-candidate
/// callback, and the old one-extra-ring covering span. The shared
/// geom::SpatialHash has since tightened all three; keeping the legacy
/// profile here is what makes bench/slotsim_hotpath's before/after an
/// honest measurement. The pair list and stats are identical to
/// SStarScheduler::feasible_pairs — only the constant factors differ.
class LegacyPairFinder {
 public:
  LegacyPairFinder(double ct, double delta) : ct_(ct), delta_(delta) {}

  std::vector<phy::Transmission> feasible_pairs(
      const std::vector<geom::Point>& pos,
      sched::ScheduleStats* stats) const {
    const std::size_t n = pos.size();
    const double rt = ct_ / std::sqrt(static_cast<double>(n));
    const double rt2 = rt * rt;
    const double guard = (1.0 + delta_) * rt;

    // Per-slot grid rebuild (the pre-overhaul cadence).
    int g = static_cast<int>(std::floor(1.0 / guard));
    g = std::max(1, std::min(g, 4096));
    const int cap =
        static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))) * 2;
    g = std::min(g, std::max(1, cap));
    const std::size_t nb = static_cast<std::size_t>(g) * g;
    auto coord = [g](double v) {
      return std::min(static_cast<int>(v * g), g - 1);
    };
    auto bidx = [g](int bx, int by) {
      auto m = [g](int v) {
        int w = v % g;
        return w < 0 ? w + g : w;
      };
      return m(by) * g + m(bx);
    };
    std::vector<std::uint32_t> start(nb + 1, 0), ids(n);
    for (const auto& p : pos) ++start[bidx(coord(p.x), coord(p.y)) + 1];
    for (std::size_t b = 0; b < nb; ++b) start[b + 1] += start[b];
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (std::uint32_t id = 0; id < n; ++id)
      ids[cursor[bidx(coord(pos[id].x), coord(pos[id].y))]++] = id;

    const std::function<void(geom::Point, std::uint32_t, std::uint32_t&,
                             int&)>
        scan = [&](geom::Point center, std::uint32_t self,
                   std::uint32_t& found, int& count) {
          const double r2 = guard * guard;
          int span = static_cast<int>(std::ceil(guard * g)) + 1;
          span = std::min(span, g / 2 + 1);
          const int cx = coord(center.x), cy = coord(center.y);
          const int lo = -span,
                    hi = (2 * span + 1 >= g) ? g - 1 - span : span;
          for (int dy = lo; dy <= hi; ++dy) {
            for (int dx = lo; dx <= hi; ++dx) {
              const int b = bidx(cx + dx, cy + dy);
              for (std::uint32_t k = start[b]; k < start[b + 1]; ++k) {
                const std::uint32_t id = ids[k];
                if (torus_dist2(center, pos[id]) > r2 || id == self) continue;
                ++count;
                found = id;
              }
            }
          }
        };

    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::vector<std::uint32_t> lone(n, kNone);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t found = kNone;
      int count = 0;
      scan(pos[i], i, found, count);
      if (count == 1) lone[i] = found;
    }

    std::vector<phy::Transmission> out;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t j = lone[i];
      if (j == kNone || j <= i) continue;
      if (lone[j] != i) continue;
      if (stats) ++stats->candidate_pairs;
      if (geom::torus_dist2(pos[i], pos[j]) >= rt2) {
        if (stats) ++stats->range_rejected;
        continue;
      }
      out.push_back({i, j});
    }
    if (stats) stats->feasible_pairs += out.size();
    return out;
  }

 private:
  double ct_;
  double delta_;
};

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

/// Shared simulation state and per-scheme forwarding logic.
class SlotSim {
 public:
  SlotSim(const net::Network& net, const std::vector<std::uint32_t>& dest,
          const SlotSimOptions& opt)
      : net_(net),
        dest_(dest),
        opt_(opt),
        n_(net.num_ms()),
        k_(net.num_bs()),
        queues_(n_ + k_),
        delivered_(n_, 0),
        count_own_(n_, 0) {
    MANETCAP_CHECK(dest.size() == n_);
    MANETCAP_CHECK(opt.warmup < opt.slots);
    // The audit always accumulates into the internal registry (the
    // conservation check needs the counters even without a caller sink);
    // the caller's Metrics absorbs it at end of run.
    if (opt_.metrics != nullptr && opt_.metrics->series_enabled())
      audit_.enable_series(opt_.slots);
    if (opt_.scheme == Scheme::kSchemeA) init_scheme_a();
    if (opt_.scheme == Scheme::kSchemeB) init_scheme_b();
    if (opt_.scheme == Scheme::kSchemeC) init_scheme_c();
    if (opt_.trace != nullptr) capture_context(*opt_.trace);
  }

  SlotSimResult run() {
    auto process = make_process(net_, opt_.mobility, opt_.seed);
    LegacyPairFinder sstar(opt_.ct, opt_.delta);
    std::uint64_t pair_count = 0;

    for (std::size_t t = 0; t < opt_.slots; ++t) {
      const bool measure = t >= opt_.warmup;
      if (measure && !measuring_) {
        measuring_ = true;
        std::fill(delivered_.begin(), delivered_.end(), 0);
      }

      slot_ = static_cast<std::uint32_t>(t);
      if (opt_.scheme == Scheme::kSchemeC) {
        // Static cellular TDMA (Definition 13): no S* — the active color
        // group serves; "pairs" counts active cells for reporting.
        const std::size_t served = scheme_c_slot(t);
        if (measure) pair_count += served;
        wired_step(t);
        process->step();
        audit_.sample_slot(slot_, in_network_, 0,
                           static_cast<std::uint32_t>(served));
        continue;
      }

      std::vector<geom::Point> pos = process->positions();
      pos.insert(pos.end(), net_.bs_pos().begin(), net_.bs_pos().end());
      sched::ScheduleStats sstats;
      const auto pairs = sstar.feasible_pairs(pos, &sstats);
      audit_.add(Counter::kSchedCandidatePairs, sstats.candidate_pairs);
      audit_.add(Counter::kSchedFeasiblePairs, sstats.feasible_pairs);
      audit_.add(Counter::kSchedRangeRejected, sstats.range_rejected);
      if (measure) pair_count += pairs.size();

      for (const auto& pr : pairs) {
        // Each S* meeting carries one packet per direction (the bandwidth
        // is split equally between the two directions, Definition 10).
        transfer(pr.tx, pr.rx);
        transfer(pr.rx, pr.tx);
      }
      if (opt_.scheme == Scheme::kSchemeB) wired_step(t);
      process->step();
      audit_.sample_slot(slot_, in_network_,
                         static_cast<std::uint32_t>(pairs.size()), 0);
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

    std::uint64_t queued = 0;
    for (const auto& q : queues_) queued += q.size();
    res.injected = audit_.count(Counter::kInjected);
    res.delivered_lifetime = audit_.count(Counter::kDelivered);
    res.queued_end = queued;
    res.dropped = audit_.count(Counter::kDropped);
    if (opt_.check_conservation) {
      MANETCAP_CHECK_MSG(in_network_ == queued,
                         "packet accounting drift: in-network counter "
                         "disagrees with actual queue occupancy");
      MANETCAP_CHECK_MSG(
          res.injected == res.delivered_lifetime + queued + res.dropped,
          "packet conservation violated: injected != delivered + queued + "
          "dropped");
      std::uint64_t window = 0;
      for (std::size_t w : count_own_) window += w;
      MANETCAP_CHECK_MSG(window == res.injected - res.delivered_lifetime,
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
    ctx.paths = paths_;
    ctx.serving.assign(serving_.size(), {});
    for (std::size_t i = 0; i < serving_.size(); ++i) {
      ctx.serving[i].reserve(serving_[i].size());
      for (std::uint32_t l : serving_[i])
        ctx.serving[i].push_back(static_cast<std::uint32_t>(n_) + l);
    }
  }
  // --- scheme A ------------------------------------------------------------
  void init_scheme_a() {
    const double side = 0.8 * net_.mobility_radius();
    tess_ = std::make_unique<geom::SquareTessellation>(
        geom::SquareTessellation::with_cell_side(std::min(side, 1.0)));
    home_cell_.resize(n_);
    for (std::uint32_t i = 0; i < n_; ++i)
      home_cell_[i] = tess_->index_of(tess_->cell_of(net_.ms_home()[i]));
    paths_.resize(n_);
    for (std::uint32_t s = 0; s < n_; ++s) {
      const auto cells = tess_->hv_path(tess_->cell_at(home_cell_[s]),
                                        tess_->cell_at(home_cell_[dest_[s]]));
      paths_[s].reserve(cells.size());
      for (const auto& c : cells)
        paths_[s].push_back(static_cast<std::uint32_t>(tess_->index_of(c)));
    }
  }

  // --- scheme B ------------------------------------------------------------
  void init_scheme_b() {
    MANETCAP_CHECK_MSG(k_ >= 1, "scheme B slot sim needs base stations");
    linkcap::LinkCapacityModel mu(net_.shape(), net_.params().f(), n_ + k_,
                                  opt_.ct, opt_.delta);
    const double contact = mu.max_contact_dist_ms_bs();
    geom::SpatialHash bs_hash(std::max(contact, 1e-4), k_);
    bs_hash.build(net_.bs_pos());
    serving_.resize(n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      bs_hash.for_each_in_disk(
          net_.ms_home()[i], contact,
          [&](std::uint32_t l) { serving_[i].push_back(l); });
      if (serving_[i].empty()) {
        // Sparse-BS fallback: an MS whose home point sees no BS within the
        // contact distance must still have a serving BS — packets addressed
        // to it would otherwise sit at hop 0 in BS queues forever
        // (wired_step has nowhere to forward them), permanently pinning
        // max_queue slots and throttling every other flow through that BS.
        const std::uint32_t l = bs_hash.nearest(net_.ms_home()[i]);
        MANETCAP_CHECK_MSG(l != geom::SpatialHash::kNone,
                           "scheme B: nearest-BS fallback found no BS");
        serving_[i].push_back(l);
      }
    }
  }

  // --- scheme C ------------------------------------------------------------
  void init_scheme_c() {
    MANETCAP_CHECK_MSG(k_ >= 1, "scheme C slot sim needs base stations");
    // Association: nearest BS (with cluster-grid placement this is the
    // hexagonal cell of Definition 13). serving_ holds one BS per MS so
    // the wired phase can reuse the scheme-B machinery.
    geom::SpatialHash bs_hash(
        std::max(1.0 / std::sqrt(static_cast<double>(k_)), 1e-4), k_);
    bs_hash.build(net_.bs_pos());
    serving_.assign(n_, {});
    std::vector<double> cell_radius(k_, 0.0);
    cell_members_.assign(k_, {});
    for (std::uint32_t i = 0; i < n_; ++i) {
      const std::uint32_t l = bs_hash.nearest(net_.ms_home()[i]);
      MANETCAP_CHECK_MSG(l != geom::SpatialHash::kNone,
                         "scheme C: BS association found no BS");
      serving_[i].push_back(l);
      cell_members_[l].push_back(i);
      cell_radius[l] = std::max(
          cell_radius[l],
          geom::torus_dist(net_.ms_home()[i], net_.bs_pos()[l]));
    }
    const double wobble = 2.0 * net_.mobility_radius();
    for (auto& r : cell_radius) r += wobble;

    // Greedy coloring of the cell interference graph (Theorem 9's
    // bounded-degree coloring).
    cell_color_.assign(k_, 0);
    num_colors_ = 1;
    for (std::uint32_t a = 0; a < k_; ++a) {
      std::vector<bool> used(num_colors_ + 1, false);
      for (std::uint32_t b = 0; b < a; ++b) {
        const double d = geom::torus_dist(net_.bs_pos()[a], net_.bs_pos()[b]);
        if (d < cell_radius[a] + (1.0 + opt_.delta) * cell_radius[b] ||
            d < cell_radius[b] + (1.0 + opt_.delta) * cell_radius[a]) {
          if (cell_color_[b] < static_cast<int>(used.size()))
            used[cell_color_[b]] = true;
        }
      }
      int c = 0;
      while (c < static_cast<int>(used.size()) && used[c]) ++c;
      cell_color_[a] = c;
      num_colors_ = std::max(num_colors_, static_cast<std::size_t>(c) + 1);
    }
    rr_cell_.assign(k_, 0);
  }

  /// One TDMA slot of scheme C: every cell of the active color serves one
  /// uplink and one downlink on its two symmetric channels. Returns the
  /// number of active cells (the concurrency statistic).
  std::size_t scheme_c_slot(std::size_t t) {
    const int active = static_cast<int>(t % num_colors_);
    std::size_t served = 0;
    for (std::uint32_t l = 0; l < k_; ++l) {
      if (cell_color_[l] != active || cell_members_[l].empty()) continue;
      ++served;
      auto& q = queues_[n_ + l];
      // Uplink channel: the round-robin member injects one packet.
      const auto& members = cell_members_[l];
      const std::uint32_t i = members[rr_cell_[l]++ % members.size()];
      try_inject(i, static_cast<std::uint32_t>(n_ + l));
      // Downlink channel: deliver one wired-arrived packet whose
      // destination lives in this cell. The scan must cover the whole
      // queue, not a bounded prefix: hop-0 packets stalled on wired
      // credit keep their positions at the head, so a kScanDepth-limited
      // scan permanently starves every deliverable hop-1 packet queued
      // behind ≥ kScanDepth of them.
      bool delivered_one = false;
      for (std::size_t idx = 0; idx < q.size(); ++idx) {
        if (q[idx].hop != 1) continue;
        const std::uint32_t d = dest_[q[idx].flow];
        if (serving_[d].front() == l) {
          const Packet p = q[idx];
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
          deliver(p, static_cast<std::uint32_t>(n_ + l));
          delivered_one = true;
          break;
        }
      }
      if (!delivered_one && !q.empty())
        audit_.inc(Counter::kDownlinkStarved);
    }
    return served;
  }

  bool is_bs(std::uint32_t id) const { return id >= n_; }

  /// Moves at most one packet from `from` to `to` for the active scheme.
  void transfer(std::uint32_t from, std::uint32_t to) {
    switch (opt_.scheme) {
      case Scheme::kSchemeA:
        transfer_scheme_a(from, to);
        break;
      case Scheme::kTwoHop:
        transfer_two_hop(from, to);
        break;
      case Scheme::kSchemeB:
        transfer_scheme_b(from, to);
        break;
      case Scheme::kSchemeC:
      case Scheme::kStaticMultihop:
        break;  // scheme C never uses S* pairs (static TDMA)
    }
  }

  void deliver(const Packet& p, std::uint32_t holder) {
    ++delivered_[p.flow];
    --count_own_[p.flow];  // release the flow-control window slot
    --in_network_;
    audit_.inc(Counter::kDelivered);
    if (opt_.trace != nullptr)
      opt_.trace->record(TraceEventKind::kDeliver, slot_, p.flow, p.hop,
                         holder, dest_[p.flow]);
    if (measuring_ && p.born >= opt_.warmup)
      delays_.push_back(static_cast<double>(slot_ - p.born));
  }

  /// Source injection under the flow-control window: pushes one packet of
  /// `flow`'s own traffic into node `node`'s queue, counting every
  /// rejection — a full queue used to no-op silently, making the offered
  /// load unknowable.
  void try_inject(std::uint32_t flow, std::uint32_t node) {
    auto& q = queues_[node];
    if (count_own_[flow] >= opt_.source_backlog) {
      audit_.inc(Counter::kInjectRejectWindowFull);
      return;
    }
    if (q.size() >= opt_.max_queue) {
      audit_.inc(Counter::kInjectRejectQueueFull);
      return;
    }
    q.push_back({flow, 0, slot_});
    ++count_own_[flow];
    ++in_network_;
    audit_.inc(Counter::kInjected);
    if (opt_.trace != nullptr)
      opt_.trace->record(TraceEventKind::kInject, slot_, flow, 0, flow, node);
  }

  // Scheme A: a relay in squarelet path[h] hands the packet to a node whose
  // home squarelet is path[h+1], or directly to the destination.
  void transfer_scheme_a(std::uint32_t from, std::uint32_t to) {
    if (is_bs(from) || is_bs(to)) return;  // pure ad hoc scheme
    auto& q = queues_[from];

    // Source injection: keep the head of the pipeline saturated.
    try_inject(from, from);

    const std::size_t scan = std::min<std::size_t>(q.size(), kScanDepth);
    for (std::size_t idx = 0; idx < scan; ++idx) {
      Packet p = q[idx];
      const auto& path = paths_[p.flow];
      const bool at_last_cell = p.hop + 1 >= path.size();
      if (to == dest_[p.flow]) {
        // The destination itself can take delivery from any path position
        // at or next to its own squarelet; with H-V routing the packet is
        // only ever co-located with the destination at the final cells, so
        // accept delivery whenever they meet.
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
        deliver(p, from);
        return;
      }
      // At the last path cell only the destination itself can take the
      // packet (handled above). `to` cannot be a BS here — the early
      // return already excluded BS endpoints.
      if (at_last_cell) continue;
      if (home_cell_[to] == path[p.hop + 1]) {
        if (queues_[to].size() < opt_.max_queue) {
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
          queues_[to].push_back({p.flow, p.hop + 1, p.born});
          audit_.inc(Counter::kRelayed);
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kRelay, slot_, p.flow,
                               p.hop + 1, from, to);
          return;
        }
        audit_.inc(Counter::kRelayRejectQueueFull);
      }
    }
  }

  // Two-hop: source → any relay → destination.
  void transfer_two_hop(std::uint32_t from, std::uint32_t to) {
    if (is_bs(from) || is_bs(to)) return;
    auto& q = queues_[from];
    try_inject(from, from);
    const std::size_t scan = std::min<std::size_t>(q.size(), kScanDepth);
    for (std::size_t idx = 0; idx < scan; ++idx) {
      Packet p = q[idx];
      if (to == dest_[p.flow]) {
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
        deliver(p, from);
        return;
      }
      // Only the source hands off to a relay (exactly two hops). The relay
      // hand-off advances hop to 1, so "a third hop would be needed" is
      // visible in the packet state (and in the trace).
      if (p.flow == from) {
        if (queues_[to].size() < opt_.max_queue) {
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
          queues_[to].push_back({p.flow, 1, p.born});
          audit_.inc(Counter::kRelayed);
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kRelay, slot_, p.flow, 1,
                               from, to);
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
      // Uplink: inject one packet of `from`'s own flow (within the
      // flow-control window).
      try_inject(from, to);
      return;
    }
    if (is_bs(from) && !is_bs(to)) {
      // Downlink: deliver a packet destined to `to`, if this BS holds one.
      auto& q = queues_[from];
      const std::size_t scan = std::min<std::size_t>(q.size(), kScanDepth);
      for (std::size_t idx = 0; idx < scan; ++idx) {
        if (dest_[q[idx].flow] == to && q[idx].hop == 1) {
          const Packet p = q[idx];
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
          deliver(p, from);
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
      auto& q = queues_[n_ + l];
      // Single compaction pass: read cursor `r` visits every packet in the
      // original order (so the rr_ round-robin and credit decisions are
      // made in exactly the sequence the old erase-in-place loop made
      // them), write cursor `w` keeps the survivors. This turns a queue
      // drain from O(|q|²) deque memmoves into O(|q|).
      std::size_t w = 0;
      for (std::size_t r = 0; r < q.size(); ++r) {
        const auto keep = [&] {
          if (w != r) q[w] = q[r];
          ++w;
        };
        if (q[r].hop != 0) {
          keep();
          continue;
        }
        const std::uint32_t d = dest_[q[r].flow];
        if (serving_[d].empty()) {
          // Unreachable since init_scheme_b/_c guarantee a serving BS per
          // MS; counted defensively so a future association change that
          // reintroduces orphans fails the audit instead of stalling.
          audit_.inc(Counter::kUndeliverable);
          keep();
          continue;
        }
        // Round-robin over the destination's serving BSs.
        const std::uint32_t target =
            serving_[d][rr_++ % serving_[d].size()];
        if (target == l) {
          q[r].hop = 1;  // already at a serving BS
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kWiredForward,
                               static_cast<std::uint32_t>(slot), q[r].flow,
                               1, static_cast<std::uint32_t>(n_ + l),
                               static_cast<std::uint32_t>(n_ + l));
          keep();
          continue;
        }
        auto key = std::minmax(l, target);
        auto [wit, first_use] =
            wire_credit_.try_emplace({key.first, key.second});
        WireState& wire = wit->second;
        // A fresh edge starts accruing at its first-use slot — crediting
        // retroactively from slot 0 would let low-c(n) edges burst a full
        // bucket at first touch and inflate early infra throughput.
        if (first_use) wire.last_topup = slot;
        if (wire.last_topup < slot + 1) {
          wire.credit += c * static_cast<double>(slot + 1 - wire.last_topup);
          // Token bucket with depth scaled to the wire rate (4 slots of
          // credit, but never below one packet so low-c edges still
          // transmit): an idle edge cannot burst arbitrarily later.
          wire.credit = std::min(wire.credit, std::max(1.0, 4.0 * c));
          wire.last_topup = slot + 1;
        }
        if (wire.credit < 1.0) {
          audit_.inc(Counter::kWiredCreditStall);
          keep();
        } else if (queues_[n_ + target].size() >= opt_.max_queue) {
          audit_.inc(Counter::kWiredRejectQueueFull);
          keep();
        } else {
          wire.credit -= 1.0;
          Packet p = q[r];
          p.hop = 1;
          queues_[n_ + target].push_back(p);
          audit_.inc(Counter::kWiredForwarded);
          if (opt_.trace != nullptr)
            opt_.trace->record(TraceEventKind::kWiredForward,
                               static_cast<std::uint32_t>(slot), p.flow, 1,
                               static_cast<std::uint32_t>(n_ + l),
                               static_cast<std::uint32_t>(n_ + target));
        }
      }
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(w), q.end());
    }
  }

  static constexpr std::size_t kScanDepth = 16;

  const net::Network& net_;
  const std::vector<std::uint32_t>& dest_;
  SlotSimOptions opt_;
  std::size_t n_;
  std::size_t k_;

  std::vector<std::deque<Packet>> queues_;
  std::vector<std::uint64_t> delivered_;
  std::vector<std::size_t> count_own_;
  std::vector<double> delays_;  // per delivered packet, measurement window
  std::uint32_t slot_ = 0;      // current slot (delay bookkeeping)
  bool measuring_ = false;

  // Audit state: the metrics registry (absorbed into opt_.metrics at end
  // of run) and a running count of packets resident in any queue — kept
  // incrementally so per-slot sampling is O(1), then cross-checked against
  // the actual queue occupancy by the conservation invariant.
  Metrics audit_;
  std::uint64_t in_network_ = 0;

  // Scheme A state.
  std::unique_ptr<geom::SquareTessellation> tess_;
  std::vector<std::uint32_t> home_cell_;
  std::vector<std::vector<std::uint32_t>> paths_;

  // Scheme B state.
  struct WireState {
    double credit = 0.0;
    std::size_t last_topup = 0;
  };
  std::vector<std::vector<std::uint32_t>> serving_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, WireState> wire_credit_;
  std::size_t rr_ = 0;

  // Scheme C state.
  std::vector<std::vector<std::uint32_t>> cell_members_;
  std::vector<int> cell_color_;
  std::size_t num_colors_ = 1;
  std::vector<std::size_t> rr_cell_;
};

}  // namespace

SlotSimResult run_slot_sim_reference(const net::Network& net,
                                     const std::vector<std::uint32_t>& dest,
                                     const SlotSimOptions& options) {
  // The frozen simulator predates fault injection; it exists to certify
  // the fault-free hot path, so a non-empty plan is a usage error rather
  // than something to backport.
  MANETCAP_CHECK_MSG(options.faults == nullptr || options.faults->empty(),
                     "run_slot_sim_reference does not support fault plans");
  SlotSim sim(net, dest, options);
  return sim.run();
}

}  // namespace manetcap::sim
