#include "sim/trace.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/sweep.h"
#include "util/binio.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace manetcap::sim {

const char* to_string(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kInject:
      return "inject";
    case TraceEventKind::kRelay:
      return "relay";
    case TraceEventKind::kWiredForward:
      return "wired_forward";
    case TraceEventKind::kDeliver:
      return "deliver";
    case TraceEventKind::kDrop:
      return "drop";
    case TraceEventKind::kBsDown:
      return "bs_down";
    case TraceEventKind::kBsUp:
      return "bs_up";
    case TraceEventKind::kWireScale:
      return "wire_scale";
    case TraceEventKind::kRehome:
      return "rehome";
    case TraceEventKind::kMsLeave:
      return "ms_leave";
    case TraceEventKind::kMsJoin:
      return "ms_join";
    case TraceEventKind::kMobilityShift:
      return "mobility_shift";
  }
  return "?";
}

namespace {

// Version 1 has no fault section and allows event kinds 0..4 only; a trace
// whose context carries a fault timeline encodes as version 2. Fault-free
// traces therefore stay byte-identical to pre-fault builds.
constexpr char kMagic[8] = {'M', 'C', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr char kMagic2[8] = {'M', 'C', 'T', 'R', 'A', 'C', 'E', '2'};

// Codec lives in util/binio.h (shared with the checkpoint format); the
// byte layout it produces is frozen by the golden traces.
using util::binio::ByteReader;
using util::binio::fnv1a;
using util::binio::get_id_list;
using util::binio::get_id_lists;
using util::binio::get_u64_fixed;
using util::binio::put_id_list;
using util::binio::put_id_lists;
using util::binio::put_u64_fixed;
using util::binio::put_varint;
using util::binio::unzigzag;
using util::binio::zigzag;

}  // namespace

void encode_faults(std::vector<std::uint8_t>& out,
                   const std::vector<TraceFault>& faults) {
  put_varint(out, faults.size());
  for (const TraceFault& f : faults) {
    out.push_back(f.kind);
    put_varint(out, f.slot);
    put_id_list(out, f.bs);
    put_u64_fixed(out, std::bit_cast<std::uint64_t>(f.scale));
    put_id_list(out, f.rehomed_ms);
    put_id_lists(out, f.rehomed_serving);
  }
}

std::vector<TraceFault> decode_faults(util::binio::ByteReader& r) {
  // A fault entry takes at least 13 bytes: kind, slot, two empty id
  // lists, the f64 scale and an empty id table.
  std::vector<TraceFault> faults(r.count(13, "fault timeline"));
  for (auto& f : faults) {
    f.kind = r.u8();
    MANETCAP_CHECK_MSG(f.kind <= TraceFault::kKindShift,
                       r.label << ": invalid fault kind");
    f.slot = r.u32v();
    f.bs = get_id_list(r);
    f.scale = util::binio::get_f64(r);
    f.rehomed_ms = get_id_list(r);
    f.rehomed_serving = get_id_lists(r);
  }
  return faults;
}

void encode_events(std::vector<std::uint8_t>& out,
                   const std::vector<TraceEvent>& events) {
  put_varint(out, events.size());
  std::uint32_t prev_slot = 0;
  for (const TraceEvent& e : events) {
    out.push_back(static_cast<std::uint8_t>(e.kind));
    put_varint(out, zigzag(static_cast<std::int64_t>(e.slot) -
                           static_cast<std::int64_t>(prev_slot)));
    prev_slot = e.slot;
    put_varint(out, e.flow);
    put_varint(out, e.hop);
    put_varint(out, e.from);
    put_varint(out, e.to);
  }
}

std::vector<TraceEvent> decode_events(util::binio::ByteReader& r,
                                      std::uint8_t max_kind) {
  // An event takes at least 6 bytes: its kind and five varints.
  std::vector<TraceEvent> events(r.count(6, "event"));
  std::int64_t prev_slot = 0;
  for (auto& e : events) {
    const std::uint8_t kind = r.u8();
    MANETCAP_CHECK_MSG(kind <= max_kind, r.label << ": invalid event kind");
    e.kind = static_cast<TraceEventKind>(kind);
    const std::int64_t slot = prev_slot + unzigzag(r.varint());
    MANETCAP_CHECK_MSG(slot >= 0 && slot <= 0xffffffffLL,
                       r.label << ": event slot out of range");
    e.slot = static_cast<std::uint32_t>(slot);
    prev_slot = slot;
    e.flow = r.u32v();
    e.hop = r.u32v();
    e.from = r.u32v();
    e.to = r.u32v();
  }
  return events;
}

std::vector<std::uint8_t> Trace::encode() const {
  const bool v2 = !context.faults.empty();
  std::vector<std::uint8_t> out;
  out.reserve(64 + events.size() * 6);
  const char* magic = v2 ? kMagic2 : kMagic;
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(magic[i]));
  out.push_back(static_cast<std::uint8_t>(context.scheme));
  out.push_back(static_cast<std::uint8_t>(context.mobility));
  put_varint(out, context.n);
  put_varint(out, context.k);
  put_varint(out, context.slots);
  put_varint(out, context.warmup);
  put_varint(out, context.max_queue);
  put_varint(out, context.source_backlog);
  put_varint(out, context.seed);
  put_u64_fixed(out, std::bit_cast<std::uint64_t>(context.wired_c));
  put_id_list(out, context.dest);
  put_id_list(out, context.home_cell);
  put_id_lists(out, context.paths);
  put_id_lists(out, context.serving);
  if (v2) encode_faults(out, context.faults);

  encode_events(out, events);
  put_varint(out, footer.injected);
  put_varint(out, footer.delivered);
  put_varint(out, footer.dropped);
  put_u64_fixed(out, fnv1a(out.data(), out.size()));
  return out;
}

Trace Trace::decode(const std::vector<std::uint8_t>& bytes) {
  MANETCAP_CHECK_MSG(bytes.size() >= 8 + 8, "trace: buffer too small");
  const bool v2 = std::memcmp(bytes.data(), kMagic2, 8) == 0;
  MANETCAP_CHECK_MSG(v2 || std::memcmp(bytes.data(), kMagic, 8) == 0,
                     "trace: bad magic (not an MCTRACE1/MCTRACE2 file)");
  const std::size_t body = bytes.size() - 8;
  MANETCAP_CHECK_MSG(get_u64_fixed(bytes, body) == fnv1a(bytes.data(), body),
                     "trace: checksum mismatch (corrupted trace)");

  Trace t;
  ByteReader r{bytes, 8, body, "trace"};
  const std::uint8_t scheme = r.u8();
  MANETCAP_CHECK_MSG(scheme <= 3, "trace: invalid scheme id");
  t.context.scheme = static_cast<SlotScheme>(scheme);
  const std::uint8_t mobility = r.u8();
  MANETCAP_CHECK_MSG(mobility <= 3, "trace: invalid mobility id");
  t.context.mobility = static_cast<SlotMobility>(mobility);
  t.context.n = r.u32v();
  t.context.k = r.u32v();
  t.context.slots = r.u32v();
  t.context.warmup = r.u32v();
  t.context.max_queue = r.u32v();
  t.context.source_backlog = r.u32v();
  t.context.seed = r.varint();
  t.context.wired_c = std::bit_cast<double>(get_u64_fixed(bytes, r.pos));
  r.pos += 8;
  t.context.dest = get_id_list(r);
  t.context.home_cell = get_id_list(r);
  t.context.paths = get_id_lists(r);
  t.context.serving = get_id_lists(r);
  if (v2) t.context.faults = decode_faults(r);

  t.events = decode_events(r, v2 ? 11 : 4);
  t.footer.injected = r.varint();
  t.footer.delivered = r.varint();
  t.footer.dropped = r.varint();
  MANETCAP_CHECK_MSG(r.pos == r.end, "trace: trailing bytes after footer");
  return t;
}

void Trace::save(const std::string& path) const {
  const auto bytes = encode();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MANETCAP_CHECK_MSG(out.good(), "trace: cannot open for write: " << path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  MANETCAP_CHECK_MSG(out.good(), "trace: write failed: " << path);
}

Trace Trace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  MANETCAP_CHECK_MSG(in.good(), "trace: cannot open for read: " << path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  MANETCAP_CHECK_MSG(in.good(), "trace: read failed: " << path);
  return decode(bytes);
}

// --- replay checker -------------------------------------------------------

namespace {

/// Token-bucket slack: the simulator accrues credit incrementally across
/// attempt slots while the checker accrues it in one step per forward, so
/// the two sums can differ in the last few ulps. Any real infeasibility
/// (double spend, burst past the bucket) differs by ≥ 1 full credit unit.
constexpr double kCreditSlack = 1e-6;

struct ViolationSink {
  std::vector<TraceViolation>& out;
  void add(const char* invariant, std::uint64_t event_index,
           std::string detail) {
    out.push_back({invariant, event_index, std::move(detail)});
  }
};

std::string describe_event(const TraceEvent& e) {
  std::ostringstream os;
  os << to_string(e.kind) << " slot=" << e.slot << " flow=" << e.flow
     << " hop=" << e.hop << " from=" << e.from << " to=" << e.to;
  return os.str();
}

/// The infrastructure timeline derived from TraceContext::faults, in the
/// query shapes the replay needs. Built once per verification; all state
/// the checker applies comes from here (the timeline), never from the
/// stream's fault markers — so a corrupted marker is caught by comparison
/// without desynchronizing the replay. Empty timeline = everything always
/// live, serving sets never change: exactly the pre-fault checker.
struct FaultModel {
  std::uint32_t n = 0;
  /// Per-BS (index = node − n) liveness transitions (slot, went_down),
  /// slots ascending.
  std::vector<std::vector<std::pair<std::uint32_t, bool>>> transitions;
  /// (slot, BS node) pairs at which a BS went down — the only positions a
  /// kDrop is legal.
  std::set<std::pair<std::uint32_t, std::uint32_t>> down_at;
  /// Per-MS serving-set versions (from_slot, list), slots ascending; the
  /// base version is TraceContext::serving.
  std::vector<std::vector<
      std::pair<std::uint32_t, const std::vector<std::uint32_t>*>>>
      serving_versions;
  /// Per-edge accrual-scale changes (slot, scale), slots ascending.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::vector<std::pair<std::uint32_t, double>>>
      scale_changes;
  /// MS churn: per-MS presence transitions (slot, present_after), slots
  /// ascending; empty = everyone present throughout. An MS whose first
  /// churn event is a join starts the run absent (the simulator's rule).
  std::vector<std::vector<std::pair<std::uint32_t, bool>>> ms_transitions;
  std::vector<std::uint8_t> ms_initially_absent;
  /// (slot, MS) pairs at which an MS departed — the churn positions a
  /// kDrop is legal (the leaver's own queue, or packets addressed to it).
  std::set<std::pair<std::uint32_t, std::uint32_t>> ms_leave_at;
  /// The exact fault-marker events the stream must contain, in order.
  std::vector<TraceEvent> markers;

  bool is_down(std::uint32_t node, std::uint32_t slot) const {
    if (transitions.empty() || node < n) return false;
    const std::size_t l = node - n;
    if (l >= transitions.size()) return false;
    bool down = false;
    for (const auto& [at, went_down] : transitions[l]) {
      if (at > slot) break;
      down = went_down;
    }
    return down;
  }

  bool ms_absent(std::uint32_t ms, std::uint32_t slot) const {
    if (ms_transitions.empty() || ms >= ms_transitions.size()) return false;
    bool present = ms_initially_absent[ms] == 0;
    for (const auto& [at, present_after] : ms_transitions[ms]) {
      if (at > slot) break;
      present = present_after;
    }
    return !present;
  }

  const std::vector<std::uint32_t>& serving_at(const TraceContext& c,
                                               std::uint32_t ms,
                                               std::uint32_t slot) const {
    const std::vector<std::uint32_t>* best = &c.serving[ms];
    if (!serving_versions.empty()) {
      for (const auto& [from, list] : serving_versions[ms]) {
        if (from > slot) break;
        best = list;
      }
    }
    return *best;
  }
};

/// Precondition: context_ok passed (fault fields are in range). The
/// pointers into `c.faults` stay valid for the verification's lifetime.
FaultModel build_fault_model(const TraceContext& c) {
  FaultModel fm;
  fm.n = c.n;
  if (c.faults.empty()) return fm;
  fm.transitions.resize(c.k);
  fm.serving_versions.resize(c.n);
  for (const TraceFault& tf : c.faults) {
    switch (tf.kind) {
      case TraceFault::kKindBsDown:
        for (std::uint32_t b : tf.bs) {
          fm.transitions[b - c.n].push_back({tf.slot, true});
          fm.down_at.insert({tf.slot, b});
          fm.markers.push_back(
              {TraceEventKind::kBsDown, tf.slot, 0, 0, b, b});
        }
        break;
      case TraceFault::kKindBsUp:
        for (std::uint32_t b : tf.bs) {
          fm.transitions[b - c.n].push_back({tf.slot, false});
          fm.markers.push_back({TraceEventKind::kBsUp, tf.slot, 0, 0, b, b});
        }
        break;
      case TraceFault::kKindWireScale: {
        const auto key = std::minmax(tf.bs[0], tf.bs[1]);
        fm.scale_changes[{key.first, key.second}].push_back(
            {tf.slot, tf.scale});
        fm.markers.push_back({TraceEventKind::kWireScale, tf.slot, 0, 0,
                              key.first, key.second});
        break;
      }
      case TraceFault::kKindMsLeave: {
        const std::uint32_t ms = tf.bs[0];
        if (fm.ms_transitions.empty()) {
          fm.ms_transitions.resize(c.n);
          fm.ms_initially_absent.assign(c.n, 0);
        }
        fm.ms_transitions[ms].push_back({tf.slot, false});
        fm.ms_leave_at.insert({tf.slot, ms});
        fm.markers.push_back({TraceEventKind::kMsLeave, tf.slot, 0, 0, ms, ms});
        break;
      }
      case TraceFault::kKindMsJoin: {
        const std::uint32_t ms = tf.bs[0];
        if (fm.ms_transitions.empty()) {
          fm.ms_transitions.resize(c.n);
          fm.ms_initially_absent.assign(c.n, 0);
        }
        if (fm.ms_transitions[ms].empty()) fm.ms_initially_absent[ms] = 1;
        fm.ms_transitions[ms].push_back({tf.slot, true});
        fm.markers.push_back({TraceEventKind::kMsJoin, tf.slot, 0, 0, ms, ms});
        break;
      }
      case TraceFault::kKindShift:
        fm.markers.push_back(
            {TraceEventKind::kMobilityShift, tf.slot, 0, 0, 0, 0});
        break;
      default:
        break;
    }
    for (std::size_t j = 0; j < tf.rehomed_ms.size(); ++j)
      fm.serving_versions[tf.rehomed_ms[j]].push_back(
          {tf.slot, &tf.rehomed_serving[j]});
  }
  return fm;
}

/// Context sanity: sizes and id ranges the rest of the checker indexes
/// with. A trace failing here is rejected before replay.
bool context_ok(const TraceContext& c, ViolationSink& sink) {
  std::ostringstream os;
  const auto fail = [&](const std::string& what) {
    sink.add("context_invalid", 0, what);
    return false;
  };
  if (c.n == 0) return fail("n == 0");
  if (c.slots == 0 || c.warmup >= c.slots) return fail("bad slots/warmup");
  if (c.max_queue == 0 || c.source_backlog == 0)
    return fail("bad queue/backlog bounds");
  if (c.dest.size() != c.n) return fail("dest size != n");
  for (std::uint32_t d : c.dest)
    if (d >= c.n) return fail("dest id out of range");
  const bool infra =
      c.scheme == SlotScheme::kSchemeB || c.scheme == SlotScheme::kSchemeC;
  if (c.scheme == SlotScheme::kSchemeA) {
    if (c.home_cell.size() != c.n) return fail("home_cell size != n");
    if (c.paths.size() != c.n) return fail("paths size != n");
    for (const auto& p : c.paths)
      if (p.empty()) return fail("empty H-V path");
  }
  if (infra) {
    if (c.k == 0) return fail("infrastructure scheme with k == 0");
    if (c.serving.size() != c.n) return fail("serving size != n");
    for (const auto& s : c.serving) {
      if (s.empty()) return fail("MS with empty serving set");
      for (std::uint32_t l : s)
        if (l < c.n || l >= c.n + c.k) return fail("serving id not a BS");
    }
    if (c.scheme == SlotScheme::kSchemeC)
      for (const auto& s : c.serving)
        if (s.size() != 1) return fail("scheme C association must be 1 BS");
  }
  if (!c.faults.empty()) {
    // Churn (leave/join) and mobility-shift entries are legal on any
    // scheme; infrastructure entries (BS outage/revival, wire scaling)
    // still require one.
    std::uint32_t prev = 0;
    for (const TraceFault& tf : c.faults) {
      if (tf.slot < prev)
        return fail("fault timeline slots must be non-decreasing");
      prev = tf.slot;
      if (tf.slot >= c.slots) return fail("fault slot out of range");
      if (tf.kind > TraceFault::kKindShift)
        return fail("invalid fault kind");
      if (tf.kind == TraceFault::kKindMsLeave ||
          tf.kind == TraceFault::kKindMsJoin) {
        if (tf.bs.size() != 1 || tf.bs[0] >= c.n)
          return fail("churn subject must be a single MS id");
        if (!tf.rehomed_ms.empty())
          return fail("churn entry cannot re-home MSs");
        continue;
      }
      if (tf.kind == TraceFault::kKindShift) {
        if (!tf.bs.empty()) return fail("shift entry carries no subject ids");
        if (!(tf.scale >= 0.0 && tf.scale <= 3.0))
          return fail("shift regime ordinal out of range");
        if (!tf.rehomed_ms.empty())
          return fail("shift entry cannot re-home MSs");
        continue;
      }
      if (!infra)
        return fail("fault timeline without an infrastructure scheme");
      if (tf.bs.empty()) return fail("fault with no subject BS");
      for (std::uint32_t b : tf.bs)
        if (b < c.n || b >= c.n + c.k) return fail("fault subject not a BS");
      if (tf.kind == TraceFault::kKindWireScale) {
        if (tf.bs.size() != 2 || tf.bs[0] == tf.bs[1])
          return fail("wire fault needs two distinct BS endpoints");
        if (!(tf.scale >= 0.0 && tf.scale <= 1.0))
          return fail("wire scale outside [0, 1]");
        if (!tf.rehomed_ms.empty())
          return fail("wire fault cannot re-home MSs");
      }
      if (tf.rehomed_ms.size() != tf.rehomed_serving.size())
        return fail("re-home tables disagree in length");
      for (std::size_t j = 0; j < tf.rehomed_ms.size(); ++j) {
        if (tf.rehomed_ms[j] >= c.n) return fail("rehomed MS out of range");
        if (tf.rehomed_serving[j].empty())
          return fail("re-home to an empty serving set");
        for (std::uint32_t b : tf.rehomed_serving[j])
          if (b < c.n || b >= c.n + c.k)
            return fail("rehomed serving id not a BS");
        if (c.scheme == SlotScheme::kSchemeC &&
            tf.rehomed_serving[j].size() != 1)
          return fail("scheme C re-home must be exactly 1 BS");
      }
    }
  }
  return true;
}

/// Serial structural replay: slot monotonicity, packet existence/location,
/// queue bounds, fault-timeline consistency and wired-credit feasibility
/// are global properties of the interleaved stream, so they run once on
/// the calling thread.
void replay_global(const Trace& trace, const FaultModel& fm,
                   TraceVerdict& verdict, ViolationSink& sink) {
  const TraceContext& c = trace.context;
  const std::uint32_t num_nodes = c.n + c.k;

  struct Pkt {
    std::uint32_t flow;
  };
  std::vector<std::deque<Pkt>> queues(num_nodes);
  struct Edge {
    double credit = 0.0;
    std::uint64_t last = 0;
    double scale = 1.0;
    std::size_t next_change = 0;  // cursor into fm.scale_changes entry
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, Edge> wires;
  const double cap = std::max(1.0, 4.0 * c.wired_c);
  std::size_t marker_cursor = 0;

  // Piecewise credit accrual through the end of `slot`, honoring every
  // scale change the timeline schedules up to it (a change at slot t
  // applies from t onward; severing dumps the bucket, as the simulator
  // does). With no changes this reduces to the historical one-step
  // accrual — a sound upper bound on the simulator's credit, which starts
  // accruing only at first use.
  const auto accrue = [&](Edge& w, const std::pair<std::uint32_t,
                                                   std::uint32_t>& key,
                          std::uint32_t slot) {
    const auto it = fm.scale_changes.find(key);
    if (it != fm.scale_changes.end()) {
      const auto& changes = it->second;
      while (w.next_change < changes.size() &&
             changes[w.next_change].first <= slot) {
        const std::uint64_t at = changes[w.next_change].first;
        if (at > w.last) {
          w.credit = std::min(
              cap, w.credit + c.wired_c * w.scale *
                       static_cast<double>(at - w.last));
          w.last = at;
        }
        w.scale = changes[w.next_change].second;
        if (w.scale == 0.0) w.credit = 0.0;
        ++w.next_change;
      }
    }
    const std::uint64_t now = static_cast<std::uint64_t>(slot) + 1;
    if (now > w.last) {
      w.credit = std::min(cap, w.credit + c.wired_c * w.scale *
                                   static_cast<double>(now - w.last));
      w.last = now;
    }
  };

  // Removes the FIFO-first packet of `flow` at `node`; false if absent.
  const auto take = [&](std::uint32_t node, std::uint32_t flow) {
    auto& q = queues[node];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->flow == flow) {
        q.erase(it);
        return true;
      }
    }
    return false;
  };
  const auto put = [&](std::uint32_t node, std::uint32_t flow,
                       std::uint64_t i) {
    if (queues[node].size() >= c.max_queue)
      sink.add("queue_overflow", i,
               "queue at node " + std::to_string(node) + " exceeds max_queue");
    queues[node].push_back({flow});
  };

  std::uint32_t prev_slot = 0;
  for (std::uint64_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    if (e.slot < prev_slot)
      sink.add("slot_monotone", i,
               "slot " + std::to_string(e.slot) + " after slot " +
                   std::to_string(prev_slot));
    prev_slot = std::max(prev_slot, e.slot);
    if (e.slot >= c.slots || e.flow >= c.n) {
      sink.add("event_range", i, describe_event(e));
      continue;
    }
    switch (e.kind) {
      case TraceEventKind::kInject:
        if (e.to >= num_nodes || e.from >= num_nodes) {
          sink.add("event_range", i, describe_event(e));
          break;
        }
        if (fm.is_down(e.to, e.slot))
          sink.add("dead_bs", i,
                   "inject targets a BS the timeline has down: " +
                       describe_event(e));
        if (fm.ms_absent(e.flow, e.slot) ||
            fm.ms_absent(c.dest[e.flow], e.slot))
          sink.add("absent_ms", i,
                   "inject while the source or its destination is absent: " +
                       describe_event(e));
        put(e.to, e.flow, i);
        ++verdict.injected;
        break;
      case TraceEventKind::kRelay:
        if (e.from >= c.n || e.to >= c.n) {
          sink.add("event_range", i,
                   "relay endpoint is not an MS: " + describe_event(e));
          break;
        }
        if (fm.ms_absent(e.from, e.slot) || fm.ms_absent(e.to, e.slot))
          sink.add("absent_ms", i,
                   "relay touches an MS the timeline has absent: " +
                       describe_event(e));
        if (!take(e.from, e.flow)) {
          sink.add("packet_not_at_node", i, describe_event(e));
          break;
        }
        put(e.to, e.flow, i);
        ++verdict.relayed;
        break;
      case TraceEventKind::kWiredForward: {
        if (e.from < c.n || e.from >= num_nodes || e.to < c.n ||
            e.to >= num_nodes) {
          sink.add("wired_endpoint", i,
                   "wired endpoint is not a BS: " + describe_event(e));
          break;
        }
        if (!take(e.from, e.flow)) {
          sink.add("packet_not_at_node", i, describe_event(e));
          break;
        }
        if (fm.is_down(e.from, e.slot) || fm.is_down(e.to, e.slot))
          sink.add("dead_bs", i,
                   "wired forward touches a BS the timeline has down: " +
                       describe_event(e));
        if (e.from != e.to) {
          // Feasibility bound: the most credit the edge can legally hold
          // is continuous accrual since slot 0 (piecewise over the
          // timeline's scale changes), clamped by the bucket. The
          // simulator is stricter (accrual starts at first use), so
          // every honestly captured trace passes; a forward the bucket
          // could never have funded fails.
          const auto mm = std::minmax(e.from, e.to);
          const std::pair<std::uint32_t, std::uint32_t> key{mm.first,
                                                            mm.second};
          Edge& w = wires[key];
          accrue(w, key, e.slot);
          if (w.credit < 1.0 - kCreditSlack) {
            std::ostringstream os;
            os << "edge (" << key.first << "," << key.second
               << ") credit " << w.credit << " < 1 at " << describe_event(e);
            sink.add("wired_credit", i, os.str());
            w.credit = 0.0;
          } else {
            w.credit -= 1.0;
          }
          put(e.to, e.flow, i);
        } else {
          // In-place hop-0 → hop-1 promotion at a serving BS: no queue
          // move, no credit spend.
          queues[e.from].push_back({e.flow});
        }
        ++verdict.wired_forwarded;
        break;
      }
      case TraceEventKind::kDeliver:
        if (e.from >= num_nodes || e.to >= c.n) {
          sink.add("event_range", i, describe_event(e));
          break;
        }
        if (fm.is_down(e.from, e.slot))
          sink.add("dead_bs", i,
                   "delivery from a BS the timeline has down: " +
                       describe_event(e));
        if (fm.ms_absent(e.to, e.slot))
          sink.add("absent_ms", i,
                   "delivery to an MS the timeline has absent: " +
                       describe_event(e));
        if (!take(e.from, e.flow)) {
          sink.add("packet_not_at_node", i, describe_event(e));
          break;
        }
        ++verdict.delivered;
        break;
      case TraceEventKind::kDrop: {
        // Legal as queue loss at a BS the timeline downs this slot, or as
        // churn loss: the dropping node is an MS leaving this slot (its
        // whole queue goes), or the packet's destination is.
        const bool bs_ok =
            fm.down_at.find({e.slot, e.from}) != fm.down_at.end();
        const bool churn_ok =
            fm.ms_leave_at.count({e.slot, e.from}) != 0 ||
            fm.ms_leave_at.count({e.slot, c.dest[e.flow]}) != 0;
        if (e.from != e.to || (!bs_ok && !churn_ok))
          sink.add("drop_forbidden", i,
                   "a drop is legal only at a BS going down or an MS "
                   "leaving this slot: " +
                       describe_event(e));
        if (!take(e.from, e.flow))
          sink.add("packet_not_at_node", i, describe_event(e));
        ++verdict.dropped;
        break;
      }
      case TraceEventKind::kBsDown:
      case TraceEventKind::kBsUp:
      case TraceEventKind::kWireScale:
      case TraceEventKind::kMsLeave:
      case TraceEventKind::kMsJoin:
      case TraceEventKind::kMobilityShift:
        // Markers must reproduce the timeline exactly, in order. State is
        // applied from the timeline, so a corrupted marker cannot
        // desynchronize the replay.
        if (marker_cursor >= fm.markers.size() ||
            !(fm.markers[marker_cursor] == e)) {
          sink.add("fault_timeline", i,
                   "stream fault marker does not match the context "
                   "timeline: " +
                       describe_event(e));
        }
        if (marker_cursor < fm.markers.size()) ++marker_cursor;
        break;
      case TraceEventKind::kRehome:
        if (fm.markers.empty()) {
          sink.add("fault_timeline", i,
                   "re-home without a fault timeline: " + describe_event(e));
          break;
        }
        if (e.from != e.to || e.from < c.n || e.from >= num_nodes ||
            e.hop != 0) {
          sink.add("event_range", i, describe_event(e));
          break;
        }
        if (fm.is_down(e.from, e.slot))
          sink.add("dead_bs", i,
                   "re-home demotion at a BS the timeline has down: " +
                       describe_event(e));
        break;
    }
  }

  if (marker_cursor != fm.markers.size())
    sink.add("fault_timeline", trace.events.size(),
             std::to_string(fm.markers.size() - marker_cursor) +
                 " timeline fault(s) have no stream marker");

  if (trace.footer.injected != verdict.injected ||
      trace.footer.delivered != verdict.delivered ||
      trace.footer.dropped != verdict.dropped) {
    std::ostringstream os;
    os << "footer (injected=" << trace.footer.injected
       << ", delivered=" << trace.footer.delivered
       << ", dropped=" << trace.footer.dropped << ") vs replayed (injected="
       << verdict.injected << ", delivered=" << verdict.delivered
       << ", dropped=" << verdict.dropped << ")";
    sink.add("footer_totals", trace.events.size(), os.str());
  }
}

/// Per-flow lifecycle checks: hop-phase legality, path adjacency, the
/// two-hop limit, serving-BS membership, flow-window and inject-location
/// bounds are all functions of one flow's event subsequence, so flows
/// verify independently (and in parallel).
void check_flow(const Trace& trace, const FaultModel& fm, std::uint32_t f,
                const std::vector<std::uint32_t>& event_ids,
                std::vector<TraceViolation>& out) {
  const TraceContext& c = trace.context;
  ViolationSink sink{out};
  const bool infra =
      c.scheme == SlotScheme::kSchemeB || c.scheme == SlotScheme::kSchemeC;
  const std::uint32_t dst = c.dest[f];

  struct Pkt {
    std::uint32_t hop = 0;
    std::uint32_t node = 0;
    std::uint32_t relays = 0;
  };
  std::vector<Pkt> live;  // FIFO by injection order

  // FIFO-first packet of this flow at `node` whose hop matches the event's
  // expected pre-hop. A flow can hold several packets at one node at
  // different phases (e.g. a fresh hop-0 uplink next to an already-wired
  // hop-1 packet), so matching must be hop-aware; when no packet matches
  // the expected hop we fall back to any packet at the node so that a
  // mutated-hop event is flagged against the packet it corrupts instead of
  // cascading into packet_not_at_node noise.
  const auto find_at = [&](std::uint32_t node, std::uint32_t want_hop) -> Pkt* {
    Pkt* fallback = nullptr;
    for (Pkt& p : live) {
      if (p.node != node) continue;
      if (p.hop == want_hop) return &p;
      if (fallback == nullptr) fallback = &p;
    }
    return fallback;
  };
  // Serving sets are slot-dependent under a fault timeline: every
  // membership check consults the version in force at the event's slot.
  const auto serving_of =
      [&](std::uint32_t ms, std::uint32_t slot) -> const auto& {
    return fm.serving_at(c, ms, slot);
  };
  const auto serving_has = [&](std::uint32_t ms, std::uint32_t bs,
                               std::uint32_t slot) {
    const auto& s = serving_of(ms, slot);
    return std::find(s.begin(), s.end(), bs) != s.end();
  };

  for (const std::uint32_t ei : event_ids) {
    const TraceEvent& e = trace.events[ei];
    if (e.flow >= c.n) continue;  // flagged by the global pass
    switch (e.kind) {
      case TraceEventKind::kInject: {
        if (live.size() >= c.source_backlog)
          sink.add("window_overflow", ei,
                   "flow " + std::to_string(f) + " exceeds source_backlog=" +
                       std::to_string(c.source_backlog));
        bool loc_ok = e.from == f;
        switch (c.scheme) {
          case SlotScheme::kSchemeA:
          case SlotScheme::kTwoHop:
            // Ad hoc schemes: the source injects into its own queue.
            loc_ok = loc_ok && e.to == f;
            break;
          case SlotScheme::kSchemeB:
            // Uplink to whichever BS the S* meeting provided.
            loc_ok = loc_ok && e.to >= c.n && e.to < c.n + c.k;
            break;
          case SlotScheme::kSchemeC:
            // Static TDMA: uplink only to the cell's own BS.
            loc_ok = loc_ok && e.to == serving_of(f, e.slot)[0];
            break;
        }
        if (!loc_ok) sink.add("inject_location", ei, describe_event(e));
        if (e.hop != 0)
          sink.add("hop_monotone", ei,
                   "inject must create a hop-0 packet: " + describe_event(e));
        live.push_back({0, e.to, 0});
        break;
      }
      case TraceEventKind::kRelay: {
        if (infra) {
          sink.add("relay_forbidden", ei,
                   "MS relays do not exist in scheme " +
                       sim::to_string(c.scheme) + ": " + describe_event(e));
          break;
        }
        Pkt* p = find_at(e.from, e.hop == 0 ? 0 : e.hop - 1);
        if (p == nullptr) break;  // global pass flags packet_not_at_node
        if (c.scheme == SlotScheme::kSchemeA) {
          const auto& path = c.paths[f];
          if (e.hop != p->hop + 1)
            sink.add("hop_monotone", ei,
                     "H-V path position must advance by exactly 1 (was " +
                         std::to_string(p->hop) + "): " + describe_event(e));
          if (e.hop >= path.size())
            sink.add("path_range", ei,
                     "hop beyond the flow's H-V path (length " +
                         std::to_string(path.size()) + "): " +
                         describe_event(e));
          else if (e.to < c.n && c.home_cell[e.to] != path[e.hop])
            sink.add("path_adjacency", ei,
                     "receiver's home squarelet " +
                         std::to_string(c.home_cell[e.to]) +
                         " is not path[" + std::to_string(e.hop) + "]=" +
                         std::to_string(path[e.hop]) + ": " +
                         describe_event(e));
        } else {  // two-hop
          if (e.from != f || p->relays != 0 || e.hop != 1)
            sink.add("two_hop_limit", ei,
                     "only source→relay→destination is legal: " +
                         describe_event(e));
          ++p->relays;
        }
        p->hop = e.hop;
        p->node = e.to;
        break;
      }
      case TraceEventKind::kWiredForward: {
        if (!infra) {
          sink.add("wired_forbidden", ei,
                   "no wired backbone in scheme " + sim::to_string(c.scheme) +
                       ": " + describe_event(e));
          break;
        }
        Pkt* p = find_at(e.from, 0);
        if (p == nullptr) break;
        if (p->hop != 0 || e.hop != 1)
          sink.add("wired_hop", ei,
                   "wired phase must take the packet from hop 0 to hop 1 "
                   "exactly once: " +
                       describe_event(e));
        if (!serving_has(dst, e.to, e.slot))
          sink.add("serving_bs", ei,
                   "wired target does not serve destination " +
                       std::to_string(dst) + ": " + describe_event(e));
        p->hop = e.hop;
        p->node = e.to;
        break;
      }
      case TraceEventKind::kDeliver: {
        if (e.to != dst)
          sink.add("deliver_dest", ei,
                   "flow " + std::to_string(f) + " terminates at MS " +
                       std::to_string(dst) + ": " + describe_event(e));
        Pkt* p = find_at(e.from, e.hop);
        if (p == nullptr) break;
        if (infra) {
          if (p->hop != 1 || e.hop != 1)
            sink.add("deliver_hop", ei,
                     "infrastructure delivery is downlink-only (hop 1): " +
                         describe_event(e));
          const bool bs_ok =
              c.scheme == SlotScheme::kSchemeC
                  ? e.from == serving_of(dst, e.slot)[0]
                  : e.from >= c.n && serving_has(dst, e.from, e.slot);
          if (!bs_ok)
            sink.add("serving_bs", ei,
                     "delivering BS does not serve destination " +
                         std::to_string(dst) + ": " + describe_event(e));
        }
        live.erase(live.begin() + (p - live.data()));
        break;
      }
      case TraceEventKind::kDrop: {
        // Legality (only at a BS going down this slot) is judged by the
        // global pass; here the packet just leaves the flow's window.
        Pkt* p = find_at(e.from, e.hop);
        if (p != nullptr) live.erase(live.begin() + (p - live.data()));
        break;
      }
      case TraceEventKind::kRehome: {
        Pkt* p = find_at(e.from, 1);
        if (p == nullptr) break;  // global pass has no queue move to flag,
                                  // but a missing packet means corruption
                                  // elsewhere already reported
        if (p->hop != 1 || e.hop != 0)
          sink.add("rehome_hop", ei,
                   "re-home demotes a hop-1 packet to hop 0: " +
                       describe_event(e));
        if (infra && serving_has(dst, e.from, e.slot))
          sink.add("rehome_legality", ei,
                   "BS still serves destination " + std::to_string(dst) +
                       ", demotion unjustified: " + describe_event(e));
        // Back to the wired phase: the hop 0→1 contract permits exactly
        // one (re-)forward from here on.
        p->hop = 0;
        break;
      }
      case TraceEventKind::kBsDown:
      case TraceEventKind::kBsUp:
      case TraceEventKind::kWireScale:
      case TraceEventKind::kMsLeave:
      case TraceEventKind::kMsJoin:
      case TraceEventKind::kMobilityShift:
        break;  // markers carry no packet; excluded from the fan-out
    }
  }
}

}  // namespace

std::string TraceVerdict::summary() const {
  std::ostringstream os;
  os << (ok ? "PASS" : "FAIL") << " injected=" << injected
     << " delivered=" << delivered << " relayed=" << relayed
     << " wired_forwarded=" << wired_forwarded << " dropped=" << dropped
     << " violations=" << violations.size() << "\n";
  for (const TraceViolation& v : violations)
    os << "  " << v.invariant << " @event " << v.event_index << ": "
       << v.detail << "\n";
  return os.str();
}

TraceVerdict verify_trace(const Trace& trace,
                          const TraceVerifyOptions& options) {
  TraceVerdict verdict;
  ViolationSink sink{verdict.violations};
  if (!context_ok(trace.context, sink)) {
    verdict.ok = false;
    return verdict;
  }

  const FaultModel fault_model = build_fault_model(trace.context);
  replay_global(trace, fault_model, verdict, sink);

  // Per-flow fan-out. Each flow writes a pre-allocated slot; the merge
  // below runs serially in flow order (the same fixed-order absorb
  // discipline run_sweep uses), so the verdict — order, text, everything —
  // is bit-identical for any thread count. Fault markers carry flow 0 but
  // no packet, so they stay out of the fan-out.
  const std::uint32_t n = trace.context.n;
  std::vector<std::vector<std::uint32_t>> by_flow(n);
  for (std::uint32_t i = 0; i < trace.events.size(); ++i) {
    const TraceEventKind kind = trace.events[i].kind;
    if (kind == TraceEventKind::kBsDown || kind == TraceEventKind::kBsUp ||
        kind == TraceEventKind::kWireScale ||
        kind == TraceEventKind::kMsLeave || kind == TraceEventKind::kMsJoin ||
        kind == TraceEventKind::kMobilityShift)
      continue;
    const std::uint32_t f = trace.events[i].flow;
    if (f < n) by_flow[f].push_back(i);
  }
  std::vector<std::vector<TraceViolation>> flow_violations(n);
  const auto check_one = [&](std::size_t f) {
    check_flow(trace, fault_model, static_cast<std::uint32_t>(f), by_flow[f],
               flow_violations[f]);
  };
  const std::size_t num_threads =
      options.num_threads == 0 ? util::ThreadPool::default_num_threads()
                               : options.num_threads;
  if (num_threads <= 1 || n <= 1) {
    for (std::size_t f = 0; f < n; ++f) check_one(f);
  } else {
    util::ThreadPool pool(std::min<std::size_t>(num_threads, n));
    pool.for_each_index(n, check_one);
  }
  for (auto& fv : flow_violations)
    for (auto& v : fv) verdict.violations.push_back(std::move(v));

  std::stable_sort(verdict.violations.begin(), verdict.violations.end(),
                   [](const TraceViolation& a, const TraceViolation& b) {
                     return a.event_index < b.event_index;
                   });
  verdict.ok = verdict.violations.empty();
  if (verdict.violations.size() > options.max_violations)
    verdict.violations.resize(options.max_violations);
  return verdict;
}

// --- golden cases ---------------------------------------------------------

std::vector<GoldenTraceSpec> golden_trace_specs() {
  // All seeds derive from trial_seed over a fixed seed0, one "size index"
  // per scheme — regeneration (tools/trace_check --gen) is deterministic.
  constexpr std::uint64_t kSeed0 = 2026;
  std::vector<GoldenTraceSpec> specs;

  {
    GoldenTraceSpec s;
    s.name = "scheme_a";
    s.scheme = SlotScheme::kSchemeA;
    s.params.n = 192;
    s.params.alpha = 0.3;
    s.params.with_bs = false;
    s.params.M = 1.0;
    s.placement = net::BsPlacement::kUniform;
    s.slots = 600;
    s.warmup = 120;
    specs.push_back(s);
  }
  {
    GoldenTraceSpec s;
    s.name = "two_hop";
    s.scheme = SlotScheme::kTwoHop;
    s.params.n = 128;
    s.params.alpha = 0.0;  // full mixing
    s.params.with_bs = false;
    s.params.M = 1.0;
    s.placement = net::BsPlacement::kUniform;
    s.slots = 600;
    s.warmup = 120;
    specs.push_back(s);
  }
  {
    GoldenTraceSpec s;
    s.name = "scheme_b";
    s.scheme = SlotScheme::kSchemeB;
    s.params.n = 256;
    s.params.alpha = 0.35;
    s.params.with_bs = true;
    s.params.K = 0.75;
    s.params.M = 1.0;
    s.params.phi = 0.0;
    s.placement = net::BsPlacement::kClusteredMatched;
    s.slots = 800;
    s.warmup = 160;
    specs.push_back(s);
  }
  {
    GoldenTraceSpec s;
    s.name = "scheme_c";
    s.scheme = SlotScheme::kSchemeC;
    s.params.n = 256;
    s.params.alpha = 0.75;  // trivial regime (see DESIGN.md)
    s.params.with_bs = true;
    s.params.K = 0.6;
    s.params.M = 0.2;
    s.params.R = 0.3;
    s.params.phi = 0.0;
    s.placement = net::BsPlacement::kClusterGrid;
    s.slots = 800;
    s.warmup = 160;
    specs.push_back(s);
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].net_seed = trial_seed(kSeed0, i, 0);
    specs[i].traffic_seed = trial_seed(kSeed0, i, 1);
    specs[i].sim_seed = trial_seed(kSeed0, i, 2);
  }
  return specs;
}

Trace capture_trace(const GoldenTraceSpec& spec) {
  const auto net =
      net::Network::build(spec.params, mobility::ShapeKind::kUniformDisk,
                          spec.placement, spec.net_seed);
  rng::Xoshiro256 g(spec.traffic_seed);
  const auto dest = net::permutation_traffic(spec.params.n, g);
  Trace trace;
  SlotSimOptions opt;
  opt.scheme = spec.scheme;
  opt.slots = spec.slots;
  opt.warmup = spec.warmup;
  opt.seed = spec.sim_seed;
  opt.trace = &trace;
  run_slot_sim(net, dest, opt);
  return trace;
}

}  // namespace manetcap::sim
