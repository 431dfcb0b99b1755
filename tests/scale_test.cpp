// Tests for the single-run scale features (docs/SCALE.md): shard
// invariance of the striped slot pipeline (traces and results must be
// byte-identical for every --shards value), checkpoint/restore round-trip
// bit-identity — including mid-fault-plan resume — and the MCCKPT1
// validation surface (config echo, fingerprints, corruption).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"
#include "rng/rng.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "sim/slotsim.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "sim/wire_credit.h"
#include "util/binio.h"
#include "util/check.h"

namespace manetcap::sim {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const SlotSimResult& a, const SlotSimResult& b,
                      const std::string& what) {
  EXPECT_TRUE(bits_equal(a.mean_flow_rate, b.mean_flow_rate)) << what;
  EXPECT_TRUE(bits_equal(a.min_flow_rate, b.min_flow_rate)) << what;
  EXPECT_TRUE(bits_equal(a.p10_flow_rate, b.p10_flow_rate)) << what;
  EXPECT_TRUE(bits_equal(a.pairs_per_slot, b.pairs_per_slot)) << what;
  EXPECT_TRUE(bits_equal(a.mean_delay, b.mean_delay)) << what;
  EXPECT_TRUE(bits_equal(a.p95_delay, b.p95_delay)) << what;
  EXPECT_EQ(a.total_delivered, b.total_delivered) << what;
  EXPECT_EQ(a.injected, b.injected) << what;
  EXPECT_EQ(a.delivered_lifetime, b.delivered_lifetime) << what;
  EXPECT_EQ(a.queued_end, b.queued_end) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
}

struct SimRun {
  SlotSimResult res;
  std::vector<std::uint8_t> trace_bytes;
};

/// Builds the spec's network + traffic and runs with the given scale
/// knobs, returning the result and the encoded trace.
SimRun run_spec(const GoldenTraceSpec& spec, std::size_t shards,
             std::size_t checkpoint_every = 0,
             const std::string& checkpoint_path = "",
             const std::string& resume_path = "",
             const FaultPlan* faults = nullptr,
             SlotMobility mobility = SlotMobility::kIid) {
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
  opt.shards = shards;
  opt.checkpoint_every = checkpoint_every;
  opt.checkpoint_path = checkpoint_path;
  opt.resume_path = resume_path;
  opt.faults = faults;
  opt.mobility = mobility;
  SimRun r;
  r.res = run_slot_sim(net, dest, opt);
  r.trace_bytes = trace.encode();
  return r;
}

/// ctest runs each test in its own process, in parallel: every file name
/// carries the test's name so no two tests share one.
std::string tmp_ckpt(const std::string& stem) {
  return testing::TempDir() + "manetcap_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
         stem + ".ckpt";
}

std::uint64_t file_fnv(const std::string& path) {
  const auto bytes = util::binio::read_file(path, "test");
  return util::binio::fnv1a(bytes.data(), bytes.size());
}

/// A checkpointed run: a golden spec under one mobility model, saved at
/// slot `slots / 2`. Every golden scheme runs under iid mobility; scheme B
/// also runs under the three other processes, so every mobility state
/// layout is written and read back.
struct ResumeCase {
  GoldenTraceSpec spec;
  SlotMobility mobility = SlotMobility::kIid;

  std::string name() const {
    static const char* const kMobility[] = {"iid", "walk", "pull_home",
                                            "brownian"};
    return spec.name + "_" + kMobility[static_cast<int>(mobility)];
  }
  SimRun run(std::size_t checkpoint_every, const std::string& checkpoint_path,
             const std::string& resume_path = "") const {
    return run_spec(spec, 1, checkpoint_every, checkpoint_path, resume_path,
                    nullptr, mobility);
  }
};

std::vector<ResumeCase> resume_cases() {
  std::vector<ResumeCase> cases;
  for (const auto& spec : golden_trace_specs()) cases.push_back({spec});
  for (const SlotMobility m : {SlotMobility::kWalk, SlotMobility::kPullHome,
                               SlotMobility::kBrownian})
    cases.push_back({golden_trace_specs()[2], m});  // scheme_b
  return cases;
}

/// Writes `path` the way Checkpoint.ResumeMidFaultPlanIsByteIdentical does.
SimRun write_mid_fault_checkpoint(const std::string& path,
                                  const FaultPlan& plan) {
  return run_spec(golden_trace_specs()[2], 1, 400, path, "", &plan);
}

/// Writes `path` the way SlotSimChurn.CheckpointRoundTripsUnderTrafficAndChurn
/// does: scheme B with an on-off traffic model and one MS leaving and
/// rejoining; the file holds the state at slot 900.
void write_traffic_churn_checkpoint(const std::string& path) {
  net::ScalingParams p;
  p.n = 128;
  p.alpha = 0.35;
  p.with_bs = true;
  p.K = 0.75;
  p.M = 1.0;
  p.phi = 0.0;
  const auto net = net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                       net::BsPlacement::kClusteredMatched,
                                       911);
  const auto tspec = net::TrafficSpec::parse("hotspot:0.2,0.6; onoff:25,50");
  const FaultPlan plan = FaultPlan::parse("leave@300:7; join@600:7");
  SlotSimOptions opt;
  opt.scheme = Scheme::kSchemeB;
  opt.slots = 1000;
  opt.warmup = 200;
  opt.seed = 919;
  opt.faults = &plan;
  opt.checkpoint_every = 450;
  opt.checkpoint_path = path;
  rng::Xoshiro256 g(traffic_seed(opt.seed));
  const auto demands = net::make_traffic_model(tspec)->draw(p.n, g);
  run_slot_sim(net, demands, opt);
}

// ----------------------------------------------------- shard invariance --

// The tentpole determinism contract: for every golden scheme, runs with
// shards ∈ {1, 2, 8} produce byte-identical traces and bit-identical
// results. This pins the stripe decomposition (hash maintenance, S* scan,
// overlapped mobility step) as unobservable.
TEST(ShardInvariance, AllGoldenSchemesByteIdentical) {
  for (const auto& spec : golden_trace_specs()) {
    const SimRun serial = run_spec(spec, 1);
    ASSERT_FALSE(serial.trace_bytes.empty()) << spec.name;
    for (const std::size_t shards : {2UL, 8UL}) {
      const SimRun sharded = run_spec(spec, shards);
      EXPECT_EQ(serial.trace_bytes, sharded.trace_bytes)
          << spec.name << " with " << shards << " shards";
      expect_identical(serial.res, sharded.res,
                       spec.name + " with " + std::to_string(shards) +
                           " shards");
    }
  }
}

TEST(ShardInvariance, StateBytesReported) {
  const SimRun r = run_spec(golden_trace_specs()[2], 1);  // scheme_b
  EXPECT_GT(r.res.state_bytes, 0u);
}

// ------------------------------------------------------------ checkpoint --

// A run checkpointed mid-horizon and resumed must complete byte-identical
// to the uninterrupted run: same trace, same result bits.
TEST(Checkpoint, ResumeIsByteIdentical) {
  for (const ResumeCase& c : resume_cases()) {
    const std::string path = tmp_ckpt("roundtrip_" + c.name());
    // The checkpointing run IS the uninterrupted run — the save is a pure
    // side effect, so its trace doubles as the reference.
    const SimRun full = c.run(c.spec.slots / 2, path);
    const SimRun resumed = c.run(0, "", path);
    EXPECT_EQ(full.trace_bytes, resumed.trace_bytes) << c.name();
    expect_identical(full.res, resumed.res, c.name() + " resumed");
    std::remove(path.c_str());
  }
}

// The MCCKPT1 bytes themselves are pinned: each checkpoint the resume
// tests write hashes (FNV-1a over the whole file) to the value recorded
// when the format was last changed. Like the golden traces, these depend
// on glibc's libm (docs/API.md).
TEST(Checkpoint, FileBytesArePinned) {
  const std::pair<const char*, std::uint64_t> kPinned[] = {
      {"scheme_a_iid", 0x85b8e69e939d5152ULL},
      {"two_hop_iid", 0x2e87d642e5968689ULL},
      {"scheme_b_iid", 0x8c27cab766c37028ULL},
      {"scheme_c_iid", 0xa0b5e47e4cd10e52ULL},
      {"scheme_b_walk", 0x8856ea8a81f92382ULL},
      {"scheme_b_pull_home", 0x3365b19ae9f8ba6fULL},
      {"scheme_b_brownian", 0x9b5ffdbb07dbf0aeULL},
      {"mid_fault_plan", 0x2cb4f368d04fd3b2ULL},
      {"traffic_churn", 0xe3090502d3c95eacULL},
  };
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const ResumeCase& c : resume_cases()) {
    const std::string path = tmp_ckpt("pinned_" + c.name());
    c.run(c.spec.slots / 2, path);
    got.emplace_back(c.name(), file_fnv(path));
    std::remove(path.c_str());
  }
  const std::string fault_path = tmp_ckpt("pinned_faults");
  const FaultPlan plan = FaultPlan::parse("down@100:0;up@500:0");
  write_mid_fault_checkpoint(fault_path, plan);
  got.emplace_back("mid_fault_plan", file_fnv(fault_path));
  std::remove(fault_path.c_str());
  const std::string churn_path = tmp_ckpt("pinned_churn");
  write_traffic_churn_checkpoint(churn_path);
  got.emplace_back("traffic_churn", file_fnv(churn_path));
  std::remove(churn_path.c_str());

  ASSERT_EQ(got.size(), std::size(kPinned));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kPinned[i].first);
    EXPECT_EQ(got[i].second, kPinned[i].second)
        << got[i].first << ": 0x" << std::hex << got[i].second;
  }
}

// Resuming with a different shard count must also be unobservable — the
// checkpoint stores logical state only.
TEST(Checkpoint, ResumeShardedFromSerialCheckpoint) {
  const auto spec = golden_trace_specs()[2];  // scheme_b
  const std::string path = tmp_ckpt("reshard");
  const SimRun full = run_spec(spec, 1, spec.slots / 2, path);
  const SimRun resumed = run_spec(spec, 8, 0, "", path);
  EXPECT_EQ(full.trace_bytes, resumed.trace_bytes);
  expect_identical(full.res, resumed.res, "sharded resume");
  std::remove(path.c_str());
}

// Checkpoint taken mid-fault-plan: the fault cursor, BS liveness, rebuilt
// serving sets and the already-emitted fault timeline must all restore so
// the remaining events replay identically.
TEST(Checkpoint, ResumeMidFaultPlanIsByteIdentical) {
  const auto spec = golden_trace_specs()[2];  // scheme_b, k >= 2
  const FaultPlan plan = FaultPlan::parse("down@100:0;up@500:0");
  const std::string path = tmp_ckpt("faults");
  // Checkpoint at slot 400: after the outage, before the revival.
  const SimRun full = write_mid_fault_checkpoint(path, plan);
  EXPECT_GT(full.res.dropped_bs_outage, 0u);
  const SimRun resumed = run_spec(spec, 1, 0, "", path, &plan);
  EXPECT_EQ(full.trace_bytes, resumed.trace_bytes);
  expect_identical(full.res, resumed.res, "mid-fault resume");
  std::remove(path.c_str());
}

// ------------------------------------------------------------ wired step --

// wired_step skips a settled BS queue whose waiting packets cannot move.
// Every fault kind unsettles the queues, and a resumed run starts
// unsettled: through both, the trace and a mid-run checkpoint must hash
// to the values recorded from the full scan every slot, before the skip
// existed. The plan severs 12 of the busiest edges at slot 100 and
// restores them to half rate at 250, downs BS `bs` at 150 and revives it
// at 500, has MS 5 leave at 200 and rejoin at 350, and blacks out a
// region of two or three BSs at 300; the checkpoint lands at slot 400.
TEST(SlotSimWired, FaultsAndResumeKeepParentBytes) {
  struct Case {
    std::size_t spec;
    std::vector<std::pair<int, int>> edges;
    int bs;
    const char* region;
    std::uint64_t trace_fnv;
    std::uint64_t ckpt_fnv;
  };
  const Case cases[] = {
      {2,  // scheme_b, k = 64
       {{9, 56}, {18, 41}, {12, 28}, {8, 50}, {50, 57}, {28, 63},
        {28, 41}, {28, 29}, {13, 56}, {13, 43}, {46, 54}, {30, 54}},
       28, "0.3,0.7,0.15", 0x8ba08fa4885521daULL, 0xffd639ed33ddc391ULL},
      {3,  // scheme_c, k = 28
       {{8, 26}, {5, 11}, {13, 26}, {7, 17}, {1, 24}, {1, 9}, {0, 11},
        {0, 7}, {17, 20}, {12, 16}, {14, 23}, {12, 20}},
       13, "0.05,0.8,0.06", 0xe2d3aace8ca22754ULL, 0x78c764bdcc05576aULL},
  };
  for (const Case& c : cases) {
    const GoldenTraceSpec spec = golden_trace_specs()[c.spec];
    std::ostringstream os;
    for (const auto& [a, b] : c.edges)
      os << "wire@100:" << a << '-' << b << "x0;";
    os << "down@150:" << c.bs << ";leave@200:5;";
    for (const auto& [a, b] : c.edges)
      os << "wire@250:" << a << '-' << b << "x0.5;";
    os << "region@300:" << c.region << ";join@350:5;up@500:" << c.bs;
    const FaultPlan plan = FaultPlan::parse(os.str());
    const std::string path = tmp_ckpt("wired_" + spec.name);
    const SimRun full = run_spec(spec, 1, spec.slots / 2, path, "", &plan);
    EXPECT_GT(full.res.dropped_bs_outage, 0u) << spec.name;
    EXPECT_GT(full.res.dropped_ms_churn, 0u) << spec.name;
    const std::uint64_t trace_fnv =
        util::binio::fnv1a(full.trace_bytes.data(), full.trace_bytes.size());
    EXPECT_EQ(trace_fnv, c.trace_fnv)
        << spec.name << " trace: 0x" << std::hex << trace_fnv;
    EXPECT_EQ(file_fnv(path), c.ckpt_fnv)
        << spec.name << " checkpoint: 0x" << std::hex << file_fnv(path);
    const SimRun resumed = run_spec(spec, 1, 0, "", path, &plan);
    EXPECT_EQ(full.trace_bytes, resumed.trace_bytes) << spec.name;
    expect_identical(full.res, resumed.res, spec.name + " resumed");
    std::remove(path.c_str());
  }
}

// ------------------------------------------------------------ validation --

TEST(Checkpoint, ConfigMismatchIsRejected) {
  const auto spec = golden_trace_specs()[2];
  const std::string path = tmp_ckpt("mismatch");
  run_spec(spec, 1, spec.slots / 2, path);
  GoldenTraceSpec other = spec;
  other.sim_seed ^= 1;  // different RNG stream
  EXPECT_THROW(run_spec(other, 1, 0, "", path), manetcap::CheckError);
  GoldenTraceSpec other_traffic = spec;
  other_traffic.traffic_seed ^= 1;  // different dest permutation
  EXPECT_THROW(run_spec(other_traffic, 1, 0, "", path),
               manetcap::CheckError);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptionIsRejected) {
  const auto spec = golden_trace_specs()[0];
  const std::string path = tmp_ckpt("corrupt");
  run_spec(spec, 1, spec.slots / 2, path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    char b = 0;
    f.read(&b, 1);
    f.seekp(64);
    b = static_cast<char>(b ^ 0x40);
    f.write(&b, 1);
  }
  EXPECT_THROW(run_spec(spec, 1, 0, "", path), manetcap::CheckError);
  std::remove(path.c_str());
}

/// Re-seals `bytes` after an edit: the FNV trailer is recomputed, so the
/// checksum passes and only the edited field is wrong.
void reseal(std::vector<std::uint8_t>& bytes) {
  bytes.resize(bytes.size() - 8);
  util::binio::seal(bytes);
}

/// Resumes `c` from `bytes` and expects a CheckError whose message names
/// `needle`.
void expect_resume_error(const ResumeCase& c,
                         const std::vector<std::uint8_t>& bytes,
                         const std::string& needle) {
  const std::string path = tmp_ckpt("crafted");
  util::binio::write_file(path, bytes, "test");
  try {
    c.run(0, "", path);
    ADD_FAILURE() << "resume accepted a checkpoint with a bad " << needle;
  } catch (const manetcap::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

/// The checkpoint `c` writes at slot `slots / 2`.
std::vector<std::uint8_t> mid_run_checkpoint(const ResumeCase& c) {
  const std::string path = tmp_ckpt("mid_run_" + c.name());
  c.run(c.spec.slots / 2, path);
  std::vector<std::uint8_t> bytes = util::binio::read_file(path, "test");
  std::remove(path.c_str());
  return bytes;
}

/// Byte offsets of the fields the crafted checkpoints edit, found by
/// walking MCCKPT1's layout (`SlotSim::walk_checkpoint`) for a run
/// without a traffic model.
struct CkptLayout {
  std::uint64_t k = 0;                // BSs, from the config echo
  std::uint64_t resume_slot = 0;
  std::size_t first_queued_flow = 0;  // 0: no packet is queued
  std::size_t serving_start = 0;      // the serving CSR's offset list
  std::size_t serving_ids = 0;        // and its BS id list
  std::size_t wire_edges = 0;         // the wired-credit ledger's count
  std::size_t mobility = 0;           // the mobility process's block
};

CkptLayout walk_layout(const std::vector<std::uint8_t>& bytes) {
  util::binio::Walker r(bytes, 8, bytes.size() - 8, "layout");
  std::uint64_t n = 0;
  CkptLayout at;
  std::uint8_t b = 0;
  std::uint64_t v = 0;
  double d = 0.0;
  std::vector<std::uint32_t> ids;
  const auto skip = [&](int u8s, int varints, int f64s, int fixeds) {
    for (int i = 0; i < u8s; ++i) r.u8(b);
    for (int i = 0; i < varints; ++i) r.varint(v);
    for (int i = 0; i < f64s; ++i) r.f64(d);
    for (int i = 0; i < fixeds; ++i) r.fixed(v);
  };
  const auto skip_bytes_table = [&] {
    r.varint(v);
    for (std::uint64_t i = 0; i < v; ++i) r.u8(b);
  };
  skip(2, 0, 0, 0);  // scheme, mobility
  r.varint(n);
  r.varint(at.k);
  skip(0, 5, 2, 0);  // slots … seed, ct, delta
  skip(1, 0, 7, 4);  // phy, six SINR parameters, c(n), four fingerprints
  r.varint(at.resume_slot);
  skip(2, 5, 0, 0);  // measuring, hash flag, pair count … live BSs
  skip_bytes_table();  // BS liveness
  skip_bytes_table();  // MS presence
  skip(0, 1, 0, 0);  // live MSs
  skip(1, 0, 0, 0);  // no traffic model
  skip(0, 0, static_cast<int>(2 * (n + at.k)), 0);  // positions
  skip(0, static_cast<int>(2 * n), 0, 0);  // delivered, own-flow windows
  for (std::size_t node = 0; node < n + at.k; ++node) {
    std::uint64_t queued = 0;
    r.varint(queued);
    for (std::uint64_t j = 0; j < queued; ++j) {
      if (at.first_queued_flow == 0) at.first_queued_flow = r.pos();
      skip(0, 3, 0, 0);  // flow, hop, born
    }
  }
  at.serving_start = r.pos();
  r.id_list(ids);
  at.serving_ids = r.pos();
  r.id_list(ids);
  skip_bytes_table();  // fallback flags
  r.varint(v);         // cell round-robin table
  skip(0, static_cast<int>(v), 0, 0);
  at.wire_edges = r.pos();
  r.varint(v);  // wired edges: key, credit, last top-up, scale
  for (std::uint64_t e = v; e > 0; --e) {
    skip(0, 0, 0, 1);
    skip(0, 0, 1, 0);
    skip(0, 1, 1, 0);
  }
  skip(0, static_cast<int>(kNumCounters), 0, 0);
  r.varint(v);  // series samples
  skip(0, static_cast<int>(5 * v), 0, 0);
  r.varint(v);  // delay log
  skip(0, 0, static_cast<int>(v), 0);
  at.mobility = r.pos();
  return at;
}

/// Replaces the varint at `pos` with `value`, re-encoded.
void splice_varint(std::vector<std::uint8_t>& bytes, std::size_t pos,
                   std::uint64_t value) {
  std::uint64_t old = 0;
  util::binio::Walker r(bytes, pos, bytes.size(), "splice");
  r.varint(old);
  std::vector<std::uint8_t> enc;
  util::binio::put_varint(enc, value);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
              bytes.begin() + static_cast<std::ptrdiff_t>(r.pos()));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), enc.begin(),
               enc.end());
}

/// Applies `edit` to the id list at `pos` and re-encodes it in place.
template <class Edit>
void edit_id_list(std::vector<std::uint8_t>& bytes, std::size_t pos,
                  Edit edit) {
  std::vector<std::uint32_t> ids;
  util::binio::Walker r(bytes, pos, bytes.size(), "edit");
  r.id_list(ids);
  edit(ids);
  std::vector<std::uint8_t> enc;
  util::binio::Walker w(enc);
  w.id_list(ids);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
              bytes.begin() + static_cast<std::ptrdiff_t>(r.pos()));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), enc.begin(),
               enc.end());
}

/// Overwrites the eight bytes at `pos` with `bits`, little-endian.
void put_fixed_at(std::vector<std::uint8_t>& bytes, std::size_t pos,
                  std::uint64_t bits) {
  std::vector<std::uint8_t> enc;
  util::binio::put_u64_fixed(enc, bits);
  std::copy(enc.begin(), enc.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(pos));
}

// A queued packet's flow id indexes dest_ and the per-flow tables: an id
// ≥ n read past them (a heap overflow at n, a SEGV at 2³² − 16).
TEST(Checkpoint, QueuedFlowIdOutOfRangeIsRejected) {
  const ResumeCase c{golden_trace_specs()[2]};  // scheme_b, n = 256
  const std::vector<std::uint8_t> bytes = mid_run_checkpoint(c);
  const CkptLayout at = walk_layout(bytes);
  ASSERT_GT(at.first_queued_flow, 0u);
  for (const std::uint64_t flow :
       {std::uint64_t{c.spec.params.n}, (std::uint64_t{1} << 32) - 16}) {
    std::vector<std::uint8_t> crafted = bytes;
    splice_varint(crafted, at.first_queued_flow, flow);
    reseal(crafted);
    expect_resume_error(c, crafted, "queued flow id out of range");
  }
}

// wired_step indexes q_size_[n + id] with each serving BS id, and slices
// serving_ids_ by consecutive offsets.
TEST(Checkpoint, ServingCsrOutOfRangeIsRejected) {
  const ResumeCase c{golden_trace_specs()[2]};  // scheme_b
  const std::vector<std::uint8_t> bytes = mid_run_checkpoint(c);
  const CkptLayout at = walk_layout(bytes);

  std::vector<std::uint8_t> decreasing = bytes;
  edit_id_list(decreasing, at.serving_start,
               [&](std::vector<std::uint32_t>& start) {
                 ASSERT_EQ(start.size(), c.spec.params.n + 1);
                 start[1] = start[2] + 1;
               });
  reseal(decreasing);
  expect_resume_error(c, decreasing, "serving CSR offsets decrease");

  std::vector<std::uint8_t> foreign = bytes;
  edit_id_list(foreign, at.serving_ids,
               [&](std::vector<std::uint32_t>& ids) {
                 ASSERT_FALSE(ids.empty());
                 ids[0] = static_cast<std::uint32_t>(at.k);
               });
  reseal(foreign);
  expect_resume_error(c, foreign, "serving BS id");
}

/// Byte offsets of the first wired edge's fields.
struct WireEdgeAt {
  std::size_t key = 0;
  std::size_t credit = 0;
  std::size_t topup = 0;
  std::size_t scale = 0;
  std::size_t next_key = 0;  // the second edge's key
};

WireEdgeAt first_wire_edge(const std::vector<std::uint8_t>& bytes,
                           const CkptLayout& at) {
  util::binio::Walker r(bytes, at.wire_edges, bytes.size(), "ledger");
  std::uint64_t v = 0;
  double d = 0.0;
  r.varint(v);
  EXPECT_GE(v, 2u) << "the crafted checkpoints need two wired edges";
  WireEdgeAt e;
  e.key = r.pos();
  r.fixed(v);
  e.credit = r.pos();
  r.f64(d);
  e.topup = r.pos();
  r.varint(v);
  e.scale = r.pos();
  r.f64(d);
  e.next_key = r.pos();
  return e;
}

/// The two golden schemes with a wired backbone, checkpointed mid-run.
std::vector<ResumeCase> wired_cases() {
  return {{golden_trace_specs()[2]}, {golden_trace_specs()[3]}};
}

// The ledger is a hash map keyed by packed BS pairs: a key equal to its
// empty marker, or a repeated key, would leave its edge count wrong, and
// an edge must join two distinct BSs a < b < k.
TEST(Checkpoint, WiredEdgeKeysAreChecked) {
  for (const ResumeCase& c : wired_cases()) {
    SCOPED_TRACE(c.name());
    const std::vector<std::uint8_t> bytes = mid_run_checkpoint(c);
    const CkptLayout at = walk_layout(bytes);
    const WireEdgeAt e = first_wire_edge(bytes, at);
    for (const std::uint64_t bad :
         {~std::uint64_t{0}, wire_edge_key(3, 3), wire_edge_key(0, 0),
          wire_edge_key(0, static_cast<std::uint32_t>(at.k)),
          (std::uint64_t{5} << 32) | 2}) {
      std::vector<std::uint8_t> crafted = bytes;
      put_fixed_at(crafted, e.key, bad);
      reseal(crafted);
      expect_resume_error(c, crafted, "invalid wired edge key");
    }
    std::uint64_t key = 0;
    util::binio::Walker(bytes, e.key, bytes.size(), "ledger").fixed(key);
    std::vector<std::uint8_t> repeated = bytes;
    put_fixed_at(repeated, e.next_key, key);
    reseal(repeated);
    expect_resume_error(c, repeated, "duplicate wired edge key");
  }
}

// A credit outside [0, max(1, 4c)] no run can reach: a NaN made the
// stall test (credit < 1) and every comparison false, and −5 or 10⁹
// resumed into a different trajectory.
TEST(Checkpoint, WiredEdgeCreditIsChecked) {
  for (const ResumeCase& c : wired_cases()) {
    SCOPED_TRACE(c.name());
    const std::vector<std::uint8_t> bytes = mid_run_checkpoint(c);
    const WireEdgeAt e = first_wire_edge(bytes, walk_layout(bytes));
    const double depth = wire_bucket_depth(c.spec.params.c());
    for (const double x :
         {std::nan(""), -5.0, 1e9, -1e-300, std::nextafter(depth, 2.0)}) {
      std::vector<std::uint8_t> crafted = bytes;
      put_fixed_at(crafted, e.credit, std::bit_cast<std::uint64_t>(x));
      reseal(crafted);
      expect_resume_error(c, crafted, "wired edge credit out of range");
    }
  }
}

// An edge topped up after the resume slot would skip accrual the resumed
// run owes it.
TEST(Checkpoint, WiredEdgeTopUpIsChecked) {
  for (const ResumeCase& c : wired_cases()) {
    SCOPED_TRACE(c.name());
    const std::vector<std::uint8_t> bytes = mid_run_checkpoint(c);
    const CkptLayout at = walk_layout(bytes);
    const WireEdgeAt e = first_wire_edge(bytes, at);
    for (const std::uint64_t slot :
         {at.resume_slot + 1, std::uint64_t{1} << 40}) {
      std::vector<std::uint8_t> crafted = bytes;
      splice_varint(crafted, e.topup, slot);
      reseal(crafted);
      expect_resume_error(c, crafted,
                          "wired edge top-up after the resume slot");
    }
  }
}

// A fault scales an edge within [0, 1]; anything else is no run's state.
TEST(Checkpoint, WiredEdgeScaleIsChecked) {
  for (const ResumeCase& c : wired_cases()) {
    SCOPED_TRACE(c.name());
    const std::vector<std::uint8_t> bytes = mid_run_checkpoint(c);
    const WireEdgeAt e = first_wire_edge(bytes, walk_layout(bytes));
    for (const double x : {std::nan(""), HUGE_VAL, -0.5, 1.5}) {
      std::vector<std::uint8_t> crafted = bytes;
      put_fixed_at(crafted, e.scale, std::bit_cast<std::uint64_t>(x));
      reseal(crafted);
      expect_resume_error(c, crafted, "wired edge scale out of range");
    }
  }
}

// k BSs have at most k(k−1)/2 edges.
TEST(Checkpoint, WiredEdgeCountIsChecked) {
  for (const ResumeCase& c : wired_cases()) {
    SCOPED_TRACE(c.name());
    const std::vector<std::uint8_t> bytes = mid_run_checkpoint(c);
    const CkptLayout at = walk_layout(bytes);
    std::vector<std::uint8_t> crafted = bytes;
    splice_varint(crafted, at.wire_edges, at.k * (at.k - 1) / 2 + 1);
    reseal(crafted);
    expect_resume_error(c, crafted, "wired edge count out of range");
  }
}

// A NaN position reached SpatialHash's float-to-int bucket cast (UBSan's
// float-cast-overflow); positions must lie on the unit torus and
// mobility offsets must be finite.
TEST(Checkpoint, NonFiniteMobilityStateIsRejected) {
  const ResumeCase iid{golden_trace_specs()[2]};  // scheme_b
  const std::vector<std::uint8_t> bytes = mid_run_checkpoint(iid);
  const CkptLayout at = walk_layout(bytes);
  // The iid block: four RNG words, the position count, the positions.
  util::binio::Walker r(bytes, at.mobility + 32, bytes.size(), "mobility");
  std::uint64_t count = 0;
  r.varint(count);
  ASSERT_EQ(count, iid.spec.params.n);
  for (const double x : {std::nan(""), 1.0, -0.25}) {
    std::vector<std::uint8_t> crafted = bytes;
    put_fixed_at(crafted, r.pos(), std::bit_cast<std::uint64_t>(x));
    reseal(crafted);
    expect_resume_error(iid, crafted, "position outside the unit torus");
  }

  const ResumeCase walk{golden_trace_specs()[2], SlotMobility::kWalk};
  const std::vector<std::uint8_t> walk_bytes = mid_run_checkpoint(walk);
  const CkptLayout walk_at = walk_layout(walk_bytes);
  // The walk block: four RNG words, the offset count, the offsets.
  util::binio::Walker wr(walk_bytes, walk_at.mobility + 32, walk_bytes.size(),
                         "mobility");
  wr.varint(count);
  for (const double x : {std::nan(""), HUGE_VAL}) {
    std::vector<std::uint8_t> crafted = walk_bytes;
    // The first offset's y.
    put_fixed_at(crafted, wr.pos() + 8, std::bit_cast<std::uint64_t>(x));
    reseal(crafted);
    expect_resume_error(walk, crafted, "non-finite mobility offset");
  }
}

// Every truncation of a golden scheme's checkpoint, re-sealed so the
// checksum passes, is a named error: never a crash, a hang or bad_alloc.
TEST(Checkpoint, ResealedTruncationIsRejected) {
  for (const auto& spec : golden_trace_specs()) {
    const ResumeCase c{spec};
    const std::vector<std::uint8_t> bytes = mid_run_checkpoint(c);
    const std::size_t body = bytes.size() - 8;
    for (std::size_t i = 0; i < 64; ++i) {
      std::vector<std::uint8_t> prefix(
          bytes.begin(),
          bytes.begin() + static_cast<std::ptrdiff_t>(body * i / 64));
      util::binio::seal(prefix);
      const std::string path = tmp_ckpt("truncated");
      util::binio::write_file(path, prefix, "test");
      EXPECT_THROW(c.run(0, "", path), manetcap::CheckError)
          << spec.name << " cut at " << body * i / 64 << " of " << body;
      std::remove(path.c_str());
    }
  }
}

TEST(Checkpoint, MissingFileIsRejected) {
  const auto spec = golden_trace_specs()[0];
  EXPECT_THROW(run_spec(spec, 1, 0, "", tmp_ckpt("nonexistent")),
               manetcap::CheckError);
}

TEST(Checkpoint, EveryWithoutPathIsRejected) {
  const auto spec = golden_trace_specs()[0];
  EXPECT_THROW(run_spec(spec, 1, 100, ""), manetcap::CheckError);
}

}  // namespace
}  // namespace manetcap::sim
