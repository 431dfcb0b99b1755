// Deterministic per-packet event trace for the slot simulator, and the
// replay checker that re-validates every packet's lifecycle against the
// paper's per-scheme routing contracts.
//
// The packet-conservation audit (sim/metrics.h) proves *aggregate*
// identities — injected == delivered + queued + dropped — but cannot see
// per-packet routing legality: a packet that skips a squarelet on its H-V
// path (Theorem 5), takes a third hop in the two-hop scheme, or is
// delivered by a BS that does not serve its destination (Definitions
// 12–13) still conserves counts. `Trace` records every inject / relay /
// wired-forward / deliver / drop with its slot, flow, hop and endpoints;
// `verify_trace` replays the log against the routing structure captured
// alongside it (destination map, scheme-A H-V paths, serving-BS sets,
// wired credit rate) and reports each violated invariant by name.
//
// The binary codec is self-contained: a trace file embeds everything the
// checker needs, so replay is exact on any platform — no floating-point
// network reconstruction is involved. Golden traces for tier-1 sizes live
// under tests/golden/ and are re-verified in CI (tools/trace_check).
// See docs/TRACE.md for the format and the invariant list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/slotsim.h"
#include "util/binio.h"

namespace manetcap::sim {

enum class TraceEventKind : std::uint8_t {
  kInject = 0,        // source packet accepted into a queue
  kRelay = 1,         // MS→MS hand-off (schemes A and two-hop)
  kWiredForward = 2,  // BS→BS over the wired backbone (from==to: the
                      // packet was already at a serving BS, hop 0→1
                      // promotion without credit spend)
  kDeliver = 3,       // packet handed to its destination
  kDrop = 4,          // packet lost with a dying BS's queue (from==to: the
                      // BS). Legal only at a slot where the fault timeline
                      // downs that BS; the checker flags any other kDrop.
  // Fault markers (MCTRACE2): flow and hop are 0, from==to names the BS
  // (kWireScale: from/to are the edge's endpoints). The checker
  // cross-checks them against TraceContext::faults; the timeline, not the
  // marker stream, drives the replay state.
  kBsDown = 5,        // BS went down at the start of this slot
  kBsUp = 6,          // BS revived at the start of this slot
  kWireScale = 7,     // wired edge (from,to) accrual rate re-scaled
  kRehome = 8,        // hop-1 packet demoted to hop 0 at from(==to): its
                      // BS stopped serving the destination after a fault
  // Churn / mobility markers (flow and hop are 0). For kMsLeave/kMsJoin
  // from==to names the MS (an id < n, unlike the BS markers); a leave is
  // followed by kDrop events for every packet lost with it. For
  // kMobilityShift all four id fields are 0 — the timeline entry carries
  // the new regime.
  kMsLeave = 9,        // MS departed at the start of this slot
  kMsJoin = 10,        // MS (re)joined at the start of this slot
  kMobilityShift = 11, // mobility regime changed at the start of this slot
};

const char* to_string(TraceEventKind k);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kInject;
  std::uint32_t slot = 0;
  std::uint32_t flow = 0;
  std::uint32_t hop = 0;   // the packet's hop AFTER the event
  std::uint32_t from = 0;  // node relinquishing the packet (== flow at inject)
  std::uint32_t to = 0;    // node receiving it (the destination at deliver)

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// One applied fault, as the simulator resolved it — regional outages are
/// already expanded to concrete BS ids and every re-homed MS's new serving
/// set is embedded, so the checker replays the infrastructure timeline
/// with zero geometry or floating point.
struct TraceFault {
  static constexpr std::uint8_t kKindBsDown = 0;
  static constexpr std::uint8_t kKindBsUp = 1;
  static constexpr std::uint8_t kKindWireScale = 2;
  // Churn/mobility kinds reuse the existing fields — `bs` holds the MS id
  // (< n) for leave/join, `scale` holds the regime ordinal for shift — so
  // the MCTRACE2 fault-record byte layout is unchanged.
  static constexpr std::uint8_t kKindMsLeave = 3;
  static constexpr std::uint8_t kKindMsJoin = 4;
  static constexpr std::uint8_t kKindShift = 5;

  std::uint32_t slot = 0;    // faults apply at the start of this slot
  std::uint8_t kind = kKindBsDown;
  /// Subject BSs as absolute node ids (≥ n). Down: every BS killed by the
  /// event (one for `down@`, the whole disk for `region@`), ascending.
  /// Up: the single revived BS. Wire scale: the edge's two endpoints,
  /// min first.
  std::vector<std::uint32_t> bs;
  double scale = 1.0;  // wire-scale events only (0 = severed)
  /// MSs whose serving set changed, ascending, with their new serving
  /// lists (absolute BS node ids) in the parallel table below.
  std::vector<std::uint32_t> rehomed_ms;
  std::vector<std::vector<std::uint32_t>> rehomed_serving;

  friend bool operator==(const TraceFault&, const TraceFault&) = default;
};

/// Everything the checker needs to re-validate a trace without rebuilding
/// the network: per-scheme routing structure plus the run configuration.
/// Captured by SlotSim at construction from the same state the forwarding
/// code uses.
struct TraceContext {
  Scheme scheme = Scheme::kSchemeA;
  SlotMobility mobility = SlotMobility::kIid;
  std::uint32_t n = 0;  // mobile stations; node ids [0, n)
  std::uint32_t k = 0;  // base stations; node ids [n, n+k)
  std::uint32_t slots = 0;
  std::uint32_t warmup = 0;
  std::uint32_t max_queue = 0;
  std::uint32_t source_backlog = 0;
  std::uint64_t seed = 0;
  double wired_c = 0.0;  // per-edge wired credit rate c(n)

  std::vector<std::uint32_t> dest;  // flow f's destination MS (size n)
  // Scheme A: per-MS home squarelet and per-flow H-V squarelet path.
  std::vector<std::uint32_t> home_cell;
  std::vector<std::vector<std::uint32_t>> paths;
  // Schemes B/C: serving BS ids (absolute node ids ≥ n) per MS. Scheme C
  // associations hold exactly one BS. This is the slot-0 state; faults
  // below override it from their slot onward.
  std::vector<std::vector<std::uint32_t>> serving;
  // Fault timeline, in application order (slots non-decreasing). Empty for
  // a fault-free run — such traces encode to the legacy MCTRACE1 bytes.
  std::vector<TraceFault> faults;

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// End-of-run totals, cross-checked against the replayed event stream.
struct TraceFooter {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;

  friend bool operator==(const TraceFooter&, const TraceFooter&) = default;
};

/// The capture sink SlotSim writes through SlotSimOptions::trace, and the
/// unit the codec round-trips. Recording is a bounds-unchecked push_back —
/// the cost when attached is one branch plus one 24-byte append per event,
/// and a single untaken branch per event when detached.
class Trace {
 public:
  TraceContext context;
  std::vector<TraceEvent> events;
  TraceFooter footer;

  void record(TraceEventKind kind, std::uint32_t slot, std::uint32_t flow,
              std::uint32_t hop, std::uint32_t from, std::uint32_t to) {
    events.push_back({kind, slot, flow, hop, from, to});
  }

  /// Serializes to the MCTRACE1 binary format (varint-packed, FNV-1a
  /// checksummed), or MCTRACE2 when the context carries a fault timeline —
  /// fault-free traces stay byte-identical to pre-fault builds.
  /// Deterministic: equal traces encode to equal bytes.
  std::vector<std::uint8_t> encode() const;

  /// Parses bytes produced by encode(). Throws manetcap::CheckError on a
  /// malformed buffer, bad magic, out-of-range field or checksum mismatch.
  static Trace decode(const std::vector<std::uint8_t>& bytes);

  /// File convenience wrappers around encode()/decode(); load throws
  /// manetcap::CheckError when the file cannot be read.
  void save(const std::string& path) const;
  static Trace load(const std::string& path);
};

/// The walks of the fault timeline and the event stream, which the
/// simulator checkpoint (MCCKPT1) embeds in exactly the bytes the golden
/// traces freeze: a count, then the per-entry fields. Reading validates
/// kinds and slot ranges and throws manetcap::CheckError on malformed
/// input. `max_kind` caps the accepted TraceEventKind (4 for MCTRACE1
/// bodies, 11 when fault/churn markers are legal).
void walk_faults(util::binio::Walker& w, std::vector<TraceFault>& faults);
void walk_events(util::binio::Walker& w, std::vector<TraceEvent>& events,
                 std::uint8_t max_kind);

/// One violated invariant. `invariant` is a stable name from the list in
/// docs/TRACE.md (e.g. "hop_monotone", "serving_bs", "wired_credit");
/// `event_index` is the offending event's position in Trace::events
/// (events.size() for end-of-trace violations like footer_totals).
struct TraceViolation {
  std::string invariant;
  std::uint64_t event_index = 0;
  std::string detail;
};

struct TraceVerifyOptions {
  /// Worker threads for the per-flow lifecycle checks. 1 = serial;
  /// 0 = util::ThreadPool::default_num_threads(). The verdict — including
  /// violation order and summary text — is bit-identical for every value:
  /// per-flow results land in pre-allocated slots and are merged serially
  /// in flow order (the run_sweep absorb discipline).
  std::size_t num_threads = 1;
};

struct TraceVerdict {
  bool ok = true;
  /// Ascending event_index; the first 64 only (a corrupted trace can
  /// cascade).
  std::vector<TraceViolation> violations;
  // Replayed totals (entire event stream).
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t relayed = 0;
  std::uint64_t wired_forwarded = 0;
  std::uint64_t dropped = 0;  // BS-outage drops (0 for fault-free traces)

  /// Deterministic multi-line report ("PASS …" / "FAIL …" + one line per
  /// violation) — the string two thread counts must agree on bit-for-bit.
  std::string summary() const;
};

/// Replays `trace` against its embedded context and checks every invariant:
/// slot monotonicity, packet existence/location, queue bounds, flow-window
/// bounds, scheme-A H-V hop monotonicity + path adjacency, the two-hop
/// ≤2-hop contract, scheme B/C hop-phase legality and serving-BS
/// membership, wired-credit feasibility, and footer totals.
TraceVerdict verify_trace(const Trace& trace,
                          const TraceVerifyOptions& options = {});

/// A golden-trace case: fixed instance + run configuration whose captured
/// trace is stored under tests/golden/ and replayed in CI. All seeds
/// derive from sim::trial_seed so regeneration is deterministic.
struct GoldenTraceSpec {
  std::string name;  // file stem, e.g. "scheme_a" → scheme_a.trace
  Scheme scheme = Scheme::kSchemeA;
  net::ScalingParams params;
  net::BsPlacement placement = net::BsPlacement::kUniform;
  std::size_t slots = 0;
  std::size_t warmup = 0;
  std::uint64_t net_seed = 0;
  std::uint64_t traffic_seed = 0;
  std::uint64_t sim_seed = 0;
};

/// The four tier-1 golden cases (one per scheme).
std::vector<GoldenTraceSpec> golden_trace_specs();

/// Builds the spec's network + permutation traffic, runs the slot
/// simulator with a trace attached, and returns the captured trace.
Trace capture_trace(const GoldenTraceSpec& spec);

}  // namespace manetcap::sim
