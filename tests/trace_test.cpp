// Tests for the per-packet event trace (sim/trace.h): codec round-trip and
// corruption detection, replay-checker invariants under seeded mutations,
// golden-trace stability, thread-count invariance of the verdict, the
// scheme-C downlink starvation regression, and the wired-step compaction
// identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "geom/point.h"
#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/metrics.h"
#include "sim/slotsim.h"
#include "sim/trace.h"
#include "util/binio.h"
#include "util/check.h"

namespace manetcap::sim {
namespace {

GoldenTraceSpec spec_by_name(const std::string& name) {
  for (const auto& s : golden_trace_specs())
    if (s.name == name) return s;
  ADD_FAILURE() << "no golden spec named " << name;
  return {};
}

bool has_violation(const TraceVerdict& v, const std::string& invariant) {
  return std::any_of(v.violations.begin(), v.violations.end(),
                     [&](const TraceViolation& x) {
                       return x.invariant == invariant;
                     });
}

// ---------------------------------------------------------------- codec --

TEST(TraceCodec, RoundTripPreservesEverything) {
  const Trace trace = capture_trace(spec_by_name("scheme_b"));
  ASSERT_FALSE(trace.events.empty());
  const Trace back = Trace::decode(trace.encode());
  EXPECT_EQ(back.context, trace.context);
  EXPECT_EQ(back.events, trace.events);
  EXPECT_EQ(back.footer, trace.footer);
}

TEST(TraceCodec, EncodeIsDeterministic) {
  const auto spec = spec_by_name("two_hop");
  EXPECT_EQ(capture_trace(spec).encode(), capture_trace(spec).encode());
}

TEST(TraceCodec, ChecksumCatchesCorruption) {
  auto bytes = capture_trace(spec_by_name("two_hop")).encode();
  // Flip one payload bit (past the magic, before the checksum).
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_THROW(Trace::decode(bytes), manetcap::CheckError);
}

TEST(TraceCodec, TruncationIsRejected) {
  auto bytes = capture_trace(spec_by_name("two_hop")).encode();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(Trace::decode(bytes), manetcap::CheckError);
  EXPECT_THROW(Trace::decode({}), manetcap::CheckError);
}

// Every truncation re-sealed so the checksum passes — all strict
// prefixes of two_hop's body, 64 evenly spaced ones of each other golden —
// is a named error: never a crash, a hang or bad_alloc.
TEST(TraceCodec, ResealedTruncationIsRejected) {
  for (const auto& spec : golden_trace_specs()) {
    const std::string path =
        std::string(MANETCAP_GOLDEN_DIR) + "/" + spec.name + ".trace";
    const std::vector<std::uint8_t> bytes =
        util::binio::read_file(path, "golden");
    const std::size_t body = bytes.size() - 8;
    const std::size_t cuts = spec.name == "two_hop" ? body : 64;
    for (std::size_t i = 0; i < cuts; ++i) {
      const std::size_t len = body * i / cuts;
      std::vector<std::uint8_t> prefix(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
      util::binio::seal(prefix);
      EXPECT_THROW(Trace::decode(prefix), manetcap::CheckError)
          << spec.name << " cut at " << len << " of " << body;
    }
  }
}

TEST(TraceCodec, BadMagicIsRejected) {
  auto bytes = capture_trace(spec_by_name("two_hop")).encode();
  bytes[0] = 'X';
  EXPECT_THROW(Trace::decode(bytes), manetcap::CheckError);
}

// An MCTRACE1 file with an empty context up to its serving table, which
// claims `serving_lists` lists; when that is 0, the event section claims
// `events` events. The all-zero footer follows; no claimed element is
// backed by a byte, and the FNV trailer is re-sealed so the checksum
// passes and only the counts are wrong.
std::vector<std::uint8_t> crafted_trace(std::uint64_t serving_lists,
                                        std::uint64_t events) {
  using util::binio::put_u64_fixed;
  using util::binio::put_varint;
  std::vector<std::uint8_t> out = {'M', 'C', 'T', 'R', 'A', 'C', 'E', '1'};
  out.push_back(0);  // scheme
  out.push_back(0);  // mobility
  for (int i = 0; i < 7; ++i) put_varint(out, 0);  // n … seed
  put_u64_fixed(out, 0);                             // wired_c
  for (int i = 0; i < 3; ++i) put_varint(out, 0);  // dest, home_cell, paths
  put_varint(out, serving_lists);
  if (serving_lists == 0) put_varint(out, events);
  for (int i = 0; i < 3; ++i) put_varint(out, 0);  // footer
  put_u64_fixed(out, util::binio::fnv1a(out.data(), out.size()));
  return out;
}

void expect_check_error(const std::vector<std::uint8_t>& bytes,
                        const std::string& what) {
  try {
    Trace::decode(bytes);
    ADD_FAILURE() << "decode accepted a trace claiming a huge " << what;
  } catch (const manetcap::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what + " count"), std::string::npos)
        << e.what();
  }
}

// A claimed count is checked against the bytes left before anything is
// allocated: these used to reach a multi-GiB allocation (std::bad_alloc
// at best) instead of a named error.
TEST(TraceCodec, HugeServingTableIsRejectedBeforeAllocating) {
  expect_check_error(crafted_trace(std::uint64_t{1} << 28, 0), "id table");
}

TEST(TraceCodec, HugeEventCountIsRejectedBeforeAllocating) {
  EXPECT_NO_THROW(Trace::decode(crafted_trace(0, 0)));  // the frame is valid
  expect_check_error(crafted_trace(0, std::uint64_t{1} << 32), "event");
}

// Scheme ids are sim::Scheme's one-byte indices. Static multihop (4) has
// no packet engine, so no trace may carry it.
TEST(TraceCodec, StaticMultihopSchemeIdIsRejected) {
  auto bytes = crafted_trace(0, 0);
  bytes[8] = static_cast<std::uint8_t>(Scheme::kStaticMultihop);
  bytes.resize(bytes.size() - 8);  // re-seal the FNV trailer
  util::binio::put_u64_fixed(bytes,
                             util::binio::fnv1a(bytes.data(), bytes.size()));
  try {
    Trace::decode(bytes);
    ADD_FAILURE() << "decode accepted scheme id 4";
  } catch (const manetcap::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("invalid scheme id"),
              std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------------- checker --

TEST(TraceVerify, AllGoldenSpecsPass) {
  for (const auto& spec : golden_trace_specs()) {
    const Trace trace = capture_trace(spec);
    ASSERT_FALSE(trace.events.empty()) << spec.name;
    const TraceVerdict verdict = verify_trace(trace);
    EXPECT_TRUE(verdict.ok) << spec.name << "\n" << verdict.summary();
    EXPECT_EQ(verdict.injected, trace.footer.injected) << spec.name;
    EXPECT_EQ(verdict.delivered, trace.footer.delivered) << spec.name;
  }
}

TEST(TraceVerify, VerdictIsThreadCountInvariant) {
  for (const auto& name : {"scheme_a", "scheme_b"}) {
    Trace trace = capture_trace(spec_by_name(name));
    // Corrupt a mid-stream relay/forward so the multi-thread merge path
    // has violations to order, not just a PASS string.
    for (auto& e : trace.events) {
      if (e.kind == TraceEventKind::kRelay ||
          e.kind == TraceEventKind::kWiredForward) {
        e.hop += 3;
        break;
      }
    }
    TraceVerifyOptions opt;
    opt.num_threads = 1;
    const std::string serial = verify_trace(trace, opt).summary();
    for (const std::size_t threads : {2UL, 8UL}) {
      opt.num_threads = threads;
      EXPECT_EQ(verify_trace(trace, opt).summary(), serial)
          << name << " with " << threads << " threads";
    }
  }
}

TEST(TraceVerify, SkippedHopFailsHopMonotone) {
  Trace trace = capture_trace(spec_by_name("scheme_a"));
  for (auto& e : trace.events) {
    if (e.kind == TraceEventKind::kRelay) {
      e.hop += 1;  // claims the packet jumped a squarelet on its H-V path
      break;
    }
  }
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "hop_monotone")) << verdict.summary();
}

TEST(TraceVerify, WrongServingBsFailsServingBs) {
  Trace trace = capture_trace(spec_by_name("scheme_b"));
  const TraceContext& c = trace.context;
  bool mutated = false;
  for (auto& e : trace.events) {
    if (e.kind != TraceEventKind::kWiredForward || e.from == e.to) continue;
    // Retarget the forward at a BS outside the destination's serving set.
    const std::uint32_t dst = c.dest[e.flow];
    for (std::uint32_t bs = c.n; bs < c.n + c.k; ++bs) {
      const auto& s = c.serving[dst];
      if (bs != e.from && std::find(s.begin(), s.end(), bs) == s.end()) {
        e.to = bs;
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "serving_bs")) << verdict.summary();
}

TEST(TraceVerify, ThirdHopFailsTwoHopLimit) {
  Trace trace = capture_trace(spec_by_name("two_hop"));
  // Forge a second relay of an already-relayed packet: find a relay and
  // append a copy hopping onward from its receiver.
  const TraceEvent* relay = nullptr;
  for (const auto& e : trace.events)
    if (e.kind == TraceEventKind::kRelay) relay = &e;
  ASSERT_NE(relay, nullptr);
  TraceEvent third = *relay;
  third.slot = trace.events.back().slot;
  third.from = relay->to;
  third.to = (relay->to + 1) % trace.context.n;
  third.hop = 2;
  trace.events.push_back(third);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "two_hop_limit")) << verdict.summary();
}

TEST(TraceVerify, ReorderedEventsFailSlotMonotone) {
  Trace trace = capture_trace(spec_by_name("scheme_a"));
  ASSERT_GE(trace.events.size(), 16u);
  std::swap(trace.events[4], trace.events[trace.events.size() - 4]);
  // Survives a codec round-trip (slot deltas are signed), then fails.
  const TraceVerdict verdict = verify_trace(Trace::decode(trace.encode()));
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "slot_monotone")) << verdict.summary();
}

TEST(TraceVerify, DropEventsAreForbidden) {
  Trace trace = capture_trace(spec_by_name("scheme_a"));
  TraceEvent drop;
  drop.kind = TraceEventKind::kDrop;
  drop.slot = trace.events.back().slot;
  drop.flow = trace.events.back().flow;
  trace.events.push_back(drop);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "drop_forbidden")) << verdict.summary();
}

TEST(TraceVerify, FooterMismatchIsDetected) {
  Trace trace = capture_trace(spec_by_name("two_hop"));
  trace.footer.delivered += 1;
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "footer_totals")) << verdict.summary();
}

// Hand-built trace: two wired forwards on an edge whose credit rate can
// only have funded one — the feasibility bound must fire. Synthetic (not a
// mutated capture) because duplicating a captured forward would first trip
// packet_not_at_node.
TEST(TraceVerify, InfeasibleWiredSpendFailsWiredCredit) {
  Trace trace;
  TraceContext& c = trace.context;
  c.scheme = Scheme::kSchemeB;
  c.n = 2;
  c.k = 2;
  c.slots = 100;
  c.warmup = 10;
  c.max_queue = 64;
  c.source_backlog = 4;
  c.wired_c = 0.05;  // bucket holds max(1, 4·0.05) = 1 credit
  c.dest = {1, 0};
  c.serving = {{3}, {3}};
  // Two uplinks of flow 0 at BS 2, then two wired forwards 2→3 at slot
  // 60: continuous accrual since slot 0 caps at one full bucket —
  // enough for one forward, not two in the same slot.
  trace.events = {
      {TraceEventKind::kInject, 5, 0, 0, 0, 2},
      {TraceEventKind::kInject, 6, 0, 0, 0, 2},
      {TraceEventKind::kWiredForward, 60, 0, 1, 2, 3},
      {TraceEventKind::kWiredForward, 60, 0, 1, 2, 3},
  };
  trace.footer.injected = 2;
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "wired_credit")) << verdict.summary();

  // The same second forward 39 slots later is feasible: the edge refills
  // 39·0.05 ≈ 2 credits, re-capped to a full bucket.
  trace.events[3].slot = 99;
  const TraceVerdict ok_verdict = verify_trace(trace);
  EXPECT_FALSE(has_violation(ok_verdict, "wired_credit"))
      << ok_verdict.summary();
}

TEST(TraceVerify, InvalidContextIsRejected) {
  Trace trace;
  trace.context.scheme = Scheme::kSchemeB;
  trace.context.n = 4;
  trace.context.k = 0;  // infrastructure scheme without BSs
  trace.context.slots = 10;
  trace.context.max_queue = 1;
  trace.context.source_backlog = 1;
  trace.context.dest = {1, 0, 3, 2};
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "context_invalid")) << verdict.summary();
}

// -------------------------------------------------------------- goldens --

// The committed golden files must match a fresh capture bit-for-bit on
// this build: any behavioral drift in the simulator (packet decisions,
// event order, context) shows up as a byte difference here, with the
// invariant-level diagnosis available from verify_trace.
TEST(TraceGolden, CommittedFilesMatchFreshCapture) {
  for (const auto& spec : golden_trace_specs()) {
    const std::string path =
        std::string(MANETCAP_GOLDEN_DIR) + "/" + spec.name + ".trace";
    const Trace committed = Trace::load(path);
    EXPECT_EQ(committed.encode(), capture_trace(spec).encode())
        << spec.name << ": golden trace drifted; if the simulator change "
        << "is intentional, regenerate with `trace_check --gen`";
  }
}

TEST(TraceGolden, CommittedFilesVerify) {
  for (const auto& spec : golden_trace_specs()) {
    const std::string path =
        std::string(MANETCAP_GOLDEN_DIR) + "/" + spec.name + ".trace";
    const TraceVerdict verdict = verify_trace(Trace::load(path));
    EXPECT_TRUE(verdict.ok) << spec.name << "\n" << verdict.summary();
  }
}

// --------------------------------------------------------------- faults --

// Replicates capture_trace with a fault plan attached (GoldenTraceSpec has
// no fault field on purpose: goldens stay fault-free and byte-stable).
Trace capture_with_faults(const GoldenTraceSpec& spec, const FaultPlan& plan,
                          SlotSimResult* result = nullptr) {
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
  opt.faults = &plan;
  const SlotSimResult r = run_slot_sim(net, dest, opt);
  if (result != nullptr) *result = r;
  return trace;
}

FaultPlan scheme_b_plan() {
  FaultPlan plan;
  FaultEvent e;
  e.slot = 200;
  e.kind = FaultKind::kBsDown;
  e.bs = 0;
  plan.events.push_back(e);
  e = {};
  e.slot = 300;
  e.kind = FaultKind::kWireScale;
  e.bs = 0;
  e.bs2 = 1;
  e.scale = 0.5;
  plan.events.push_back(e);
  e = {};
  e.slot = 400;
  e.kind = FaultKind::kBsUp;
  e.bs = 0;
  plan.events.push_back(e);
  return plan;
}

TEST(TraceFault, FaultedTraceUsesV2MagicAndRoundTrips) {
  const Trace trace = capture_with_faults(spec_by_name("scheme_b"),
                                          scheme_b_plan());
  ASSERT_FALSE(trace.context.faults.empty());
  const auto bytes = trace.encode();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 8), "MCTRACE2");
  const Trace back = Trace::decode(bytes);
  EXPECT_EQ(back.context, trace.context);  // TraceFault == covers the tables
  EXPECT_EQ(back.events, trace.events);
  EXPECT_EQ(back.footer, trace.footer);

  // Fault-free captures must keep the legacy magic (byte-stable goldens).
  const auto legacy = capture_trace(spec_by_name("scheme_b")).encode();
  ASSERT_GE(legacy.size(), 8u);
  EXPECT_EQ(std::string(legacy.begin(), legacy.begin() + 8), "MCTRACE1");
}

TEST(TraceFault, VerifierAcceptsFaultedSchemeB) {
  SlotSimResult result;
  const Trace trace = capture_with_faults(spec_by_name("scheme_b"),
                                          scheme_b_plan(), &result);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_TRUE(verdict.ok) << verdict.summary();
  EXPECT_EQ(verdict.dropped, trace.footer.dropped);
  EXPECT_EQ(verdict.dropped, result.dropped_bs_outage);
  // The plan had teeth: a down marker and at least one re-homed MS.
  ASSERT_FALSE(trace.context.faults.empty());
  EXPECT_FALSE(trace.context.faults.front().rehomed_ms.empty());
}

TEST(TraceFault, VerifierAcceptsRegionalSchemeC) {
  FaultPlan plan;
  FaultEvent e;
  e.slot = 250;
  e.kind = FaultKind::kRegional;
  e.center = {0.5, 0.5};
  e.radius = 0.3;
  plan.events.push_back(e);
  SlotSimResult result;
  const Trace trace =
      capture_with_faults(spec_by_name("scheme_c"), plan, &result);
  // The regional event resolves to concrete BS ids in the timeline.
  ASSERT_FALSE(trace.context.faults.empty());
  EXPECT_GT(trace.context.faults.front().bs.size(), 0u);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_TRUE(verdict.ok) << verdict.summary();
  EXPECT_EQ(verdict.dropped, result.dropped_bs_outage);
}

TEST(TraceFault, EventTouchingDeadBsIsRejected) {
  FaultPlan plan;
  FaultEvent down;
  down.slot = 200;
  down.kind = FaultKind::kBsDown;
  down.bs = 0;
  plan.events.push_back(down);  // BS 0 stays dead to the end
  Trace trace = capture_with_faults(spec_by_name("scheme_b"), plan);
  const std::uint32_t dead = trace.context.n;  // BS 0's absolute node id
  bool mutated = false;
  for (auto& e : trace.events) {
    if (e.kind == TraceEventKind::kDeliver && e.slot > 200 &&
        e.from != dead) {
      e.from = dead;  // claim a dead BS handed the packet over
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "dead_bs")) << verdict.summary();
}

TEST(TraceFault, CorruptedMarkerIsRejected) {
  Trace trace = capture_with_faults(spec_by_name("scheme_b"),
                                    scheme_b_plan());
  bool mutated = false;
  for (auto& e : trace.events) {
    if (e.kind == TraceEventKind::kBsDown) {
      // Marker claims a different BS died than the timeline recorded.
      e.from += 1;
      e.to += 1;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "fault_timeline")) << verdict.summary();
}

TEST(TraceFault, ForgedDropIsRejected) {
  SlotSimResult result;
  Trace trace = capture_with_faults(spec_by_name("scheme_b"),
                                    scheme_b_plan(), &result);
  // A drop at a slot where the timeline downs no BS is illegal even in a
  // faulted trace.
  TraceEvent drop;
  drop.kind = TraceEventKind::kDrop;
  drop.slot = trace.events.back().slot;
  drop.flow = 0;
  drop.from = trace.context.n + 1;  // BS 1 — alive throughout
  drop.to = drop.from;
  trace.events.push_back(drop);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(has_violation(verdict, "drop_forbidden")) << verdict.summary();
}

// ------------------------------------------------- scheme C starvation --

// Regression: the scheme-C downlink used to scan only the first
// kScanDepth=16 queue positions. A cell whose BS queue holds ≥16 hop-0
// packets stalled on wired credit starves every deliverable hop-1 packet
// behind them — forever. This instance pins that shape: per cell, the 16
// first-injected packets have cross-cell destinations and (with c(n) ≈
// 3e-8) never earn wired credit, while later injections have same-cell
// destinations that promote to hop 1 in place at depth ≥ 16.
TEST(SchemeCRegression, DownlinkDeliversBehindDeepStalledBacklog) {
  net::ScalingParams p;
  p.n = 256;
  p.alpha = 0.75;  // trivial regime
  p.with_bs = true;
  p.K = 0.125;  // k = 256^0.125 = 2 cells → ~128 members each
  p.M = 0.2;
  p.R = 0.3;
  p.phi = -3.0;  // c(n) = n^phi / k ≈ 3e-8: cross-cell wires never fund
  const auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                       net::BsPlacement::kClusterGrid, 99);
  const std::size_t n = net.num_ms();
  const std::size_t k = net.num_bs();
  ASSERT_EQ(k, 2u);

  // Replicate the scheme-C association (nearest BS by torus distance).
  std::vector<std::vector<std::uint32_t>> members(k);
  std::vector<std::uint32_t> cell(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t best = 0;
    double best_d = geom::torus_dist(net.ms_home()[i], net.bs_pos()[0]);
    for (std::uint32_t l = 1; l < k; ++l) {
      const double d = geom::torus_dist(net.ms_home()[i], net.bs_pos()[l]);
      if (d < best_d) {
        best_d = d;
        best = l;
      }
    }
    cell[i] = best;
    members[best].push_back(i);
  }
  for (const auto& m : members) ASSERT_GE(m.size(), 20u);

  // First 16 members of each cell (the first 16 uplinked packets, since
  // the uplink round-robins members in id order and source_backlog=1
  // blocks re-injection) target the other cell; the rest stay local.
  std::vector<std::uint32_t> dest(n);
  for (std::uint32_t l = 0; l < k; ++l) {
    const auto& mine = members[l];
    const auto& other = members[1 - l];
    for (std::size_t j = 0; j < mine.size(); ++j) {
      if (j < 16) {
        dest[mine[j]] = other[j % other.size()];
      } else {
        const std::size_t peer = j + 1 < mine.size() ? j + 1 : 16;
        dest[mine[j]] = mine[peer];
      }
    }
  }

  Metrics metrics;
  SlotSimOptions opt;
  opt.scheme = Scheme::kSchemeC;
  opt.slots = 2000;
  opt.warmup = 200;
  opt.source_backlog = 1;
  opt.seed = 7;
  opt.metrics = &metrics;
  const SlotSimResult res = run_slot_sim(net, dest, opt);

  // Before the fix: 16 credit-stalled hop-0 packets occupy the scanned
  // prefix of both cells and delivered_lifetime is exactly 0.
  EXPECT_GT(res.delivered_lifetime, 100u);
  EXPECT_GT(metrics.count(Counter::kDownlinkStarved), 0u);
}

// ------------------------------------------ wired-step queue compaction --

// wired_step drains BS queues with a single read/write-cursor compaction
// pass (one O(|q|) sweep) instead of erase-in-place (O(|q|²) memmoves).
// The golden byte-compare above pins scheme B/C end-to-end; this pins the
// exact event sequence — order of forwards, promotions and deliveries —
// under a deep mixed queue with contended credit.
TEST(WiredStep, CompactionPreservesEventOrderUnderContention) {
  auto spec = spec_by_name("scheme_b");
  // Scarce credit (c ≈ 0.007/slot: ~150-slot refills) so stalled hop-0
  // packets pile up ahead of forwardable ones and stalls interleave with
  // funded forwards inside single queue sweeps.
  spec.params.phi = -0.15;
  spec.slots = 1200;
  const Trace trace = capture_trace(spec);
  std::uint64_t stalled_then_forwarded = 0;
  for (const auto& e : trace.events)
    if (e.kind == TraceEventKind::kWiredForward && e.from != e.to)
      ++stalled_then_forwarded;
  ASSERT_GT(stalled_then_forwarded, 0u);
  const TraceVerdict verdict = verify_trace(trace);
  EXPECT_TRUE(verdict.ok) << verdict.summary();
  // Deterministic: the same contended run yields the same byte stream.
  EXPECT_EQ(capture_trace(spec).encode(), trace.encode());
}

}  // namespace
}  // namespace manetcap::sim
