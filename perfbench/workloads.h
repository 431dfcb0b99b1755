// The benchmark's four workloads: how each builds its instance from a
// seed, what one operation (the workload's engine call or calls) is, the
// output checks every operation must pass, and the traced replay that
// splits an operation's time over the layers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/flowsim.h"
#include "sim/metrics.h"
#include "sim/slotsim.h"
#include "spans.h"

namespace perfbench {

/// The seed whose outputs are pinned by digest.
inline constexpr std::uint64_t kDefaultSeed = 1;

enum class Engine {
  kSlotSimB,        // run_slot_sim, scheme B, iid mobility, serial
  kFlowSimHybrid,   // run_flow_sim scheme A + scheme B, summed
  kSlotSimCResume,  // run_slot_sim scheme C with checkpoints, then a resume
};

struct Workload {
  const char* name;
  Engine engine;
  manetcap::net::ScalingParams params;
  manetcap::net::BsPlacement placement;
  std::size_t slots;
  std::size_t warmup;
  std::size_t checkpoint_every;  // kSlotSimCResume only
  /// Digest of the pinned output fields at kDefaultSeed.
  std::uint64_t pinned_digest;
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);

/// What set-up produces: the sampled network and its traffic permutation.
struct Instance {
  manetcap::net::Network net;
  std::vector<std::uint32_t> dest;
};

/// net::Network::build plus the permutation-traffic draw, seeded the way
/// sim::measure_instance seeds them. With a span log, each call becomes a
/// span under `setup`, and the mobility::Shape construction inside
/// Network::build is replayed as its own span.
Instance build_instance(const Workload& w, std::uint64_t seed,
                        SpanLog* log = nullptr);

/// One operation's outputs, reduced to what the checks compare.
struct OpResult {
  /// Every result field and audit counter: repetitions must match it.
  std::uint64_t full_digest = 0;
  /// λ, pairs per slot, injected/delivered/queued and the S* counters —
  /// what the default-seed digest pins. Leaves out state_bytes and the
  /// delay statistics, which bounded-state work may legitimately change.
  std::uint64_t pinned_digest = 0;
  /// Mean per-flow rate; for the hybrid, λ_A + λ_B.
  double lambda = 0.0;
  /// Output checks this operation failed (empty = passed).
  std::vector<std::string> errors;

  manetcap::sim::SlotSimResult slot;  // SlotSim: the uninterrupted run
  manetcap::sim::Metrics slot_audit;
  manetcap::sim::FlowSimResult flow_a, flow_b;
};

/// Per-layer metric values of one traced run, by metric name.
using LayerValues = std::map<std::string, double>;

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric the traced mode reports, in report order. A
/// workload reports 0 for a layer its engine never enters.
const std::vector<LayerMetric>& layer_metrics();

class Runner {
 public:
  /// `scratch` is a directory the checkpoint files may be written to.
  Runner(const Workload& w, std::uint64_t seed, std::string scratch);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Runs one operation on `inst` and checks its outputs. Throws what
  /// the engine throws. With a span log, each engine call is a span.
  OpResult run_op(const Instance& inst, SpanLog* log = nullptr) const;

  /// Checks made once per run against the first operation's result: the
  /// pinned digest (default seed only) and, for the hybrid, the
  /// composition through sim::measure_instance. Returns one line per
  /// check, prefixed "ok " or "FAIL ".
  std::vector<std::string> run_checks(const OpResult& first) const;

  /// The rest of one traced round, recorded inside the open span `round`,
  /// which must already hold the set-up spans of `inst` and the span
  /// `engine.run` whose operation returned `r`: replays the engine's
  /// phases through the public layer functions. Fills `out` with every
  /// per-layer metric that applies to this workload and appends check
  /// lines as run_checks does.
  void replay(const Instance& inst, const OpResult& r, SpanLog& log,
              std::uint32_t round, LayerValues& out,
              std::vector<std::string>& checks) const;

 private:
  manetcap::sim::SlotSimOptions slot_options() const;
  manetcap::sim::FlowSimOptions flow_options() const;
  // replay() for each engine.
  void trace_slot_b(const Instance& inst, const OpResult& r, SpanLog& log,
                    std::uint32_t round, LayerValues& out,
                    std::vector<std::string>& checks) const;
  void trace_slot_c(const Instance& inst, const OpResult& r, SpanLog& log,
                    std::uint32_t round, LayerValues& out,
                    std::vector<std::string>& checks) const;
  void trace_flow(const Instance& inst, const OpResult& r, SpanLog& log,
                  std::uint32_t round, LayerValues& out,
                  std::vector<std::string>& checks) const;

  const Workload& w_;
  std::uint64_t seed_;
  std::string ckpt_path_;
};

}  // namespace perfbench
