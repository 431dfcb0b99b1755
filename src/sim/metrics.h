// Packet-conservation metrics for the slot simulator.
//
// A lightweight counter/gauge registry threaded through SlotSim,
// SStarScheduler (via sched::ScheduleStats) and run_sweep. The hot path is
// header-only: counter increments are plain uint64 adds, and the per-slot
// time series costs a single predictable branch per slot unless
// enable_series() was called. CSV flushing (the cold path) lives in
// metrics.cpp and writes under util::artifact_path, so every recorded
// experiment ships its audit trail next to its figure data.
//
// The audit exists to enforce the packet-conservation invariant
//
//     injected == delivered + queued_end + dropped
//
// at end of run for every scheme — a stalled, double-counted or silently
// dropped packet shows up as a counter mismatch instead of a quietly wrong
// λ(n). See docs/METRICS.md for the schema.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/binio.h"

namespace manetcap::sim {

enum class Counter : std::size_t {
  kInjected = 0,           // packets accepted into the network at a source
  kDelivered,              // packets handed to their destination (lifetime)
  kRelayed,                // successful MS→MS relay hand-offs
  kInjectRejectQueueFull,  // source had window space but the queue was full
  kInjectRejectWindowFull, // flow-control window closed (backpressure, not loss)
  kRelayRejectQueueFull,   // relay hand-off blocked by a full next-hop queue
  kWiredForwarded,         // BS→BS transfers over the wired backbone
  kWiredCreditStall,       // wired edge lacked a full credit unit (token bucket)
  kWiredRejectQueueFull,   // wired forward blocked by a full remote BS queue
  kUndeliverable,          // packet whose destination has no serving BS
  kDropped,                // packets removed without delivery (must stay 0)
  kSchedCandidatePairs,    // mutual-lone S* pairs before the range check
  kSchedFeasiblePairs,     // pairs S* actually scheduled
  kSchedRangeRejected,     // mutual-lone pairs failing d < R_T
  kDownlinkStarved,        // scheme C active cell whose downlink channel
                           // found no deliverable hop-1 packet despite a
                           // non-empty BS queue (wasted downlink slot)
  kDroppedBsOutage,        // packets lost with a dying BS's queue (the only
                           // drop source; also counted under kDropped so
                           // the conservation identity stays one equation)
  kMsRehomed,              // MS serving-set recomputations after a BS
                           // outage/revival (failover events)
  kHop1Demoted,            // hop-1 packets demoted to hop 0 because their
                           // BS stopped serving the destination (they
                           // re-forward over the wired backbone)
  kUplinkBlockedBsDown,    // S* scheduled an uplink to a dead BS (wasted
                           // meeting under an active fault)
  kPhySinrRejected,        // S* pairs cut by the SINR backend (a direction
                           // below β; 0 under the protocol model)
  kPhyCsmaSuppressed,      // S* pairs backed off by the CSMA CCA pass
                           // before SINR (sinr-csma backend only)
  kInjectGatedTraffic,     // source idle by its traffic model: flow not yet
                           // started, size exhausted, or in an off-burst
                           // (intentional silence, not backpressure)
  kInjectBlockedChurn,     // injection refused because the source or its
                           // destination has left the network
  kDroppedMsChurn,         // packets dropped with a departing MS — its own
                           // queue plus every in-flight packet addressed to
                           // it (also counted under kDropped, same single-
                           // equation discipline as kDroppedBsOutage)
  kMsLeft,                 // MS departure events applied (leave@SLOT:MS)
  kMsJoined,               // MS arrival events applied (join@SLOT:MS)
  kMobilityShifts,         // mobility-regime changes applied (shift@SLOT:R)
};

inline constexpr std::size_t kNumCounters = 27;

/// Stable snake-case name used as the CSV `counter` column.
const char* to_string(Counter c);

/// One per-slot sample of the simulator's occupancy/concurrency gauges.
struct SlotSample {
  std::uint32_t slot = 0;
  std::uint64_t queued = 0;           // packets resident in any queue
  std::uint32_t scheduled_pairs = 0;  // S* pairs this slot (0 for scheme C)
  std::uint32_t active_cells = 0;     // scheme C active cells (0 otherwise)
  std::uint32_t live_bs = 0;          // BSs alive this slot (fault injection)
};

/// Counter registry plus optional per-slot time series. Cheap to construct,
/// copy and merge; safe to reuse across runs via absorb() aggregation.
class Metrics {
 public:
  void inc(Counter c) { counters_[static_cast<std::size_t>(c)] += 1; }
  void add(Counter c, std::uint64_t d) {
    counters_[static_cast<std::size_t>(c)] += d;
  }
  std::uint64_t count(Counter c) const {
    return counters_[static_cast<std::size_t>(c)];
  }

  /// Upper bound on the upfront series reservation (samples, not slots).
  /// enable_series used to reserve the full horizon: a multi-week run
  /// (10⁹+ slots) pre-committed gigabytes before the first sample landed.
  /// Growth past the cap still works — it just pays amortized push_back.
  static constexpr std::size_t kMaxSeriesReserve = std::size_t{1} << 20;

  /// Turns on per-slot sampling of every slot; `reserve_slots` is the
  /// caller's horizon hint. The reservation is capped at kMaxSeriesReserve.
  void enable_series(std::size_t reserve_slots) {
    series_enabled_ = true;
    series_.reserve(std::min(reserve_slots + 1, kMaxSeriesReserve));
  }
  bool series_enabled() const { return series_enabled_; }

  void sample_slot(std::uint32_t slot, std::uint64_t queued,
                   std::uint32_t scheduled_pairs, std::uint32_t active_cells,
                   std::uint32_t live_bs = 0) {
    if (!series_enabled_) return;
    series_.push_back({slot, queued, scheduled_pairs, active_cells, live_bs});
  }
  const std::vector<SlotSample>& series() const { return series_; }

  /// Checkpoint support: walks the counters, then the recorded series
  /// (the enabled flag comes from enable_series). Reading
  /// replaces both and rejects more than `max_samples` samples.
  void walk_state(util::binio::Walker& w, std::size_t max_samples) {
    for (std::uint64_t& c : counters_) w.varint(c);
    w.count(series_, 5, "series sample");
    MANETCAP_CHECK_MSG(series_.size() <= max_samples,
                       w.label() << ": series sample count out of range");
    for (SlotSample& s : series_) {
      w.u32(s.slot);
      w.varint(s.queued);
      w.u32(s.scheduled_pairs);
      w.u32(s.active_cells);
      w.u32(s.live_bs);
    }
  }

  /// Adds `other`'s counters into this registry and appends its series —
  /// the fixed-order reduction run_sweep uses to aggregate per-cell audits.
  void absorb(Metrics&& other);

  void reset();

  /// Writes `<name>_counters.csv` (scheme,counter,value) under the bench
  /// artifact directory; returns the path written.
  std::string write_counters_csv(const std::string& name,
                                 const std::string& scheme) const;

  /// Writes `<name>_series.csv` (slot,queued,scheduled_pairs,active_cells);
  /// returns the path written (empty series still writes the header).
  std::string write_series_csv(const std::string& name) const;

 private:
  std::array<std::uint64_t, kNumCounters> counters_{};
  bool series_enabled_ = false;
  std::vector<SlotSample> series_;
};

}  // namespace manetcap::sim
