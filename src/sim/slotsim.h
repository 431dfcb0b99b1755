// Slot-level packet simulation — validates that the fluid capacity numbers
// are achievable by a real schedule (Definition 5's feasibility is about
// actual spatio-temporal schedules, not fluid bounds).
//
// Time is slotted. Each slot: the mobility process advances, policy S*
// selects the feasible wireless pairs, and the active routing scheme moves
// packets (one packet per direction per scheduled pair; wired backbone
// edges accumulate c(n) units of credit per slot). Sources are saturated;
// delivered throughput per flow is the measurement.
//
// Schemes: A (squarelet H-V relay), two-hop relay, B (uplink → wired →
// downlink) and C (static cellular TDMA: cells activate by color, the
// active cell serves one uplink and one downlink per slot on its two
// symmetric channels, Definition 13).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "phy/interference.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "sim/run_config.h"
#include "sim/scheme.h"

namespace manetcap::sim {

class Trace;  // sim/trace.h — per-packet event capture

enum class SlotMobility { kIid, kWalk, kPullHome, kBrownian };

/// Run options. The shared (slots, warmup, phy, sinr) quartet lives in the
/// RunConfig base (sim/run_config.h) — defaults 4000/400 — so `opt.slots`
/// etc. keep their flat spelling. Under a non-protocol `phy` the
/// S*-scheduled pairs are re-evaluated per docs/PHY.md; kProtocol — the
/// default — takes the historical code path exactly (no model is even
/// constructed), so protocol runs stay byte-identical. The SINR backends
/// apply to the S*-driven schemes (A / two-hop / B); scheme C is
/// TDMA-scheduled without instantaneous geometry and rejects a
/// non-protocol backend with a named error.
struct SlotSimOptions : RunConfig {
  Scheme scheme = Scheme::kSchemeA;  // every scheme but static multihop
  SlotMobility mobility = SlotMobility::kIid;
  double ct = 0.3;              // S* constant c_T (see LinkCapacityModel)
  double delta = 1.0;           // guard factor Δ
  std::size_t max_queue = 64;   // per-node relay queue bound (backpressure)
  /// In-flight packets each source keeps outstanding. The default 4
  /// saturates the pipeline (throughput measurement); 1 probes the
  /// lightly-loaded end-to-end delay without queueing.
  std::size_t source_backlog = 4;
  std::uint64_t seed = 1;
  /// Optional audit sink. Counters (and, when metrics->enable_series() was
  /// called before the run, the per-slot time series) are accumulated into
  /// it at end of run. Null keeps the audit internal: the conservation
  /// check below still runs, nothing is exported.
  Metrics* metrics = nullptr;
  /// Optional per-packet event sink (sim/trace.h). When set, every
  /// inject / relay / wired-forward / delivery is appended with its slot,
  /// flow, hop and endpoints, and the routing context (H-V paths, serving
  /// sets, wired credit rate) is captured so verify_trace can replay the
  /// run without rebuilding the network. Null (the default) costs one
  /// untaken branch per event.
  Trace* trace = nullptr;
  /// Optional runtime fault/churn timeline (sim/faults.h): BS
  /// outages/revivals, wired-edge degradation, regional outages, MS
  /// leave/join churn and mobility-regime shifts. Validated against the
  /// run shape at start. Infrastructure events require scheme B or C
  /// (churn and shifts run under any scheme); schemes degrade gracefully —
  /// affected MSs re-home to the nearest live BS, scheme-C cells re-color
  /// over the live set, and a dying BS's queue (or a departing MS's
  /// packets) is dropped with an explicit counter so the conservation
  /// identity still closes. Null or an empty plan is exactly a fault-free
  /// run (byte-identical traces). See docs/FAULTS.md.
  const FaultPlan* faults = nullptr;
  /// End-of-run packet-conservation audit:
  ///   injected == delivered + queued_end + dropped,
  /// the running in-network count must match the actual queue occupancy,
  /// and the flow-control windows must equal injected − delivered. One
  /// O(n + k) pass; disable only to reproduce a historical buggy run.
  bool check_conservation = true;

  // --- single-run scale knobs (docs/SCALE.md) ------------------------------
  /// Spatial stripes the per-slot S* lone-neighbor scan (with the next
  /// slot's mobility step overlapped as one extra task) fans out over on
  /// util::ThreadPool::shared(). 1 = the serial path. Results — traces, metrics, every result field — are
  /// bit-identical for every value; scheme C has no S* phase and ignores
  /// the knob.
  std::size_t shards = 1;
  /// Record per-packet end-to-end delays (the delay vector grows with the
  /// delivered count). Off drops mean_delay/p95_delay from the result in
  /// exchange for a flat memory profile on very long horizons.
  bool track_delays = true;
  /// Checkpointing: every `checkpoint_every` slots (0 = never) the full
  /// simulator state — queues, flow windows, positions, RNG streams, wired
  /// credits, fault cursor, audit, in-flight trace — is written atomically
  /// (tmp + rename) to `checkpoint_path` in the MCCKPT1 format.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Resume: restore state from this MCCKPT1 file (written by a previous
  /// run with the identical configuration — validated by fingerprint) and
  /// continue mid-horizon. The completed run is byte-identical to an
  /// uninterrupted one.
  std::string resume_path;
};

struct SlotSimResult {
  double mean_flow_rate = 0.0;   // mean over flows, packets/slot
  double min_flow_rate = 0.0;
  double p10_flow_rate = 0.0;    // robust lower measure
  double pairs_per_slot = 0.0;   // avg #S*-scheduled pairs
  std::uint64_t total_delivered = 0;
  std::size_t measured_slots = 0;

  // End-to-end delay (injection slot → delivery slot) over packets
  // delivered during the measurement window. The capacity–delay tradeoff
  // is the paper's companion axis (refs [9], [11], [12]).
  double mean_delay = 0.0;
  double p95_delay = 0.0;

  // Lifetime packet audit (whole run, warmup included; total_delivered
  // above counts the measurement window only). The conservation identity
  //   injected == delivered_lifetime + queued_end + dropped
  // holds for every scheme and is checked at end of run unless
  // SlotSimOptions::check_conservation is false.
  std::uint64_t injected = 0;
  std::uint64_t delivered_lifetime = 0;
  std::uint64_t queued_end = 0;  // packets resident in queues at the end
  /// Packets removed without delivery. 0 unless a fault plan is active:
  /// the simulator models backpressure, never loss, except for queues lost
  /// with a dying BS or packets orphaned by node churn.
  std::uint64_t dropped = 0;
  /// Of `dropped`, packets lost to a BS outage.
  std::uint64_t dropped_bs_outage = 0;
  /// Of `dropped`, packets lost to MS churn (a departing MS's own queue
  /// plus every in-flight packet addressed to it).
  std::uint64_t dropped_ms_churn = 0;

  /// Resident bytes of per-run simulator state at end of run (queue slabs,
  /// positions, routing CSR, spatial hash, wired credits, scratch, delay
  /// log) — the numerator of the bytes-per-MS scaling metric
  /// bench/slotsim_scale gates.
  std::uint64_t state_bytes = 0;
};

/// Runs the simulation for permutation traffic `dest` on `net` — the
/// historical saturated-CBR entry point (every flow unlimited, always on,
/// windowed by source_backlog).
SlotSimResult run_slot_sim(const net::Network& net,
                           const std::vector<std::uint32_t>& dest,
                           const SlotSimOptions& options);

/// Runs the simulation for a traffic-model demand set (net/traffic.h):
/// one flow per MS with its own destination, optional finite size,
/// start slot and on-off arrival process. Injection is gated per flow by
/// the demand's arrival process on top of the source_backlog window;
/// everything else — scheduling, routing, the conservation audit — is
/// shared with the permutation entry point, and a default demand set
/// (dest_of(demands) permutation, unlimited, always-on, start 0) is
/// byte-identical to it.
SlotSimResult run_slot_sim(const net::Network& net,
                           const std::vector<net::FlowDemand>& demands,
                           const SlotSimOptions& options);

}  // namespace manetcap::sim
