// Wired-backbone token-bucket state shared by the packet engine (SlotSim)
// and the flow-level engine (FlowSim). Both key edges by the packed
// unordered (min BS, max BS) pair and accrue c(n)·scale units of credit
// per slot with a bucket depth of max(1, 4·c).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "util/binio.h"
#include "util/check.h"

namespace manetcap::sim {

/// Token-bucket depth for per-edge rate `c`: four slots of credit, but
/// never below one packet so low-c edges still transmit.
inline double wire_bucket_depth(double c) { return std::max(1.0, 4.0 * c); }

/// Wired-edge token-bucket state, keyed by the unordered BS pair.
/// `scale` is the fault-injection bandwidth factor (1 when healthy, 0 when
/// severed); the accrual rate is c(n)·scale.
struct WireState {
  double credit = 0.0;
  std::size_t last_topup = 0;
  double scale = 1.0;

  /// Accrues c·scale per slot elapsed since the last top-up, through slot
  /// `now`, capped at the bucket depth so an idle edge cannot burst
  /// arbitrarily later. A no-op once topped up through `now`, so within a
  /// slot it is idempotent.
  void top_up(double c, std::size_t now) {
    if (last_topup >= now) return;
    // scale is exactly 1.0 outside a fault plan, so c·scale·Δ is
    // bit-identical to the historical c·Δ accrual.
    credit += (c * scale) * static_cast<double>(now - last_topup);
    credit = std::min(credit, wire_bucket_depth(c));
    last_topup = now;
  }
};

/// Packs an unordered BS pair into the shared 64-bit edge key.
inline std::uint64_t wire_edge_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
         std::max(a, b);
}

/// Edge ledger: each packed (min BS, max BS) key gets a dense id in
/// first-use order, and the WireStates live in one vector indexed by id,
/// so an id stays valid across every later insertion (a reference to a
/// state does not). An open-addressing table maps keys to ids. The legacy
/// simulator kept this in a std::map — a pointer chase plus an O(log E)
/// walk per hop-0 packet per slot. The table is never iterated and the ids
/// never leave the process, so neither probing order nor insertion order
/// can leak into results or checkpoints.
class WireCreditMap {
 public:
  /// Returns the id of `key`'s edge, appending a default-constructed state
  /// when absent; second is true on first use (the try_emplace contract).
  std::pair<std::uint32_t, bool> try_emplace(std::uint64_t key) {
    if (2 * (keys_.size() + 1) > table_.size())
      rehash(std::max<std::size_t>(16, 2 * table_.size()));
    const std::size_t mask = table_.size() - 1;
    std::size_t i = slot_of(key, mask);
    for (; table_[i] != kNoId; i = (i + 1) & mask)
      if (keys_[table_[i]] == key) return {table_[i], false};
    const auto id = static_cast<std::uint32_t>(keys_.size());
    table_[i] = id;
    keys_.push_back(key);
    states_.emplace_back();
    return {id, true};
  }

  WireState& at(std::uint32_t id) { return states_[id]; }
  std::uint64_t key(std::uint32_t id) const { return keys_[id]; }
  std::size_t size() const { return keys_.size(); }

  /// Checkpoint support: a count, then (key, credit, last top-up, scale)
  /// per edge in ascending key order, so neither the probe layout nor the
  /// ids are observable — a map restored from this order is behaviorally
  /// identical regardless of the insertion history that produced it.
  /// Reading fills an empty map for `k` BSs with per-edge rate `c`, at
  /// resume slot `now`, and rejects any edge a run cannot produce: more
  /// than k(k−1)/2 edges, endpoints not a < b < k, a repeated key, credit
  /// outside [0, max(1, 4c)] (NaN included), a top-up after `now`, or a
  /// scale outside [0, 1].
  void walk_state(util::binio::Walker& w, std::uint64_t k, double c,
                  std::size_t now) {
    const auto walk_edge = [&w](std::uint64_t key, WireState s) {
      w.fixed(key);
      w.f64(s.credit);
      w.varint(s.last_topup);
      w.f64(s.scale);
      return std::pair{key, s};
    };
    std::uint64_t edges = keys_.size();
    w.varint(edges);
    MANETCAP_CHECK_MSG(edges <= k * (k - 1) / 2,
                       w.label() << ": wired edge count out of range");
    if (!w.reading()) {
      std::vector<std::uint32_t> ids(keys_.size());
      std::iota(ids.begin(), ids.end(), 0u);
      std::sort(ids.begin(), ids.end(), [this](std::uint32_t a,
                                               std::uint32_t b) {
        return keys_[a] < keys_[b];
      });
      for (std::uint32_t id : ids) walk_edge(keys_[id], states_[id]);
      return;
    }
    const double depth = wire_bucket_depth(c);
    for (std::uint64_t e = 0; e < edges; ++e) {
      const auto [key, state] = walk_edge(0, WireState{});
      MANETCAP_CHECK_MSG((key >> 32) < (key & 0xffffffffULL) &&
                             (key & 0xffffffffULL) < k,
                         w.label() << ": invalid wired edge key");
      MANETCAP_CHECK_MSG(state.credit >= 0.0 && state.credit <= depth,
                         w.label() << ": wired edge credit out of range");
      MANETCAP_CHECK_MSG(state.last_topup <= now,
                         w.label()
                             << ": wired edge top-up after the resume slot");
      MANETCAP_CHECK_MSG(state.scale >= 0.0 && state.scale <= 1.0,
                         w.label() << ": wired edge scale out of range");
      const auto [id, first_use] = try_emplace(key);
      MANETCAP_CHECK_MSG(first_use,
                         w.label() << ": duplicate wired edge key");
      states_[id] = state;
    }
  }

  std::uint64_t memory_bytes() const {
    return table_.capacity() * sizeof(std::uint32_t) +
           keys_.capacity() * sizeof(std::uint64_t) +
           states_.capacity() * sizeof(WireState);
  }

 private:
  static constexpr std::uint32_t kNoId = ~std::uint32_t{0};

  static std::size_t slot_of(std::uint64_t key, std::size_t mask) {
    // SplitMix64 finalizer: edge keys are dense low-entropy pairs.
    std::uint64_t x = key + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>((x ^ (x >> 31)) & mask);
  }

  /// Re-inserts every id into a table of `cap` slots (a power of two).
  void rehash(std::size_t cap) {
    table_.assign(cap, kNoId);
    const std::size_t mask = cap - 1;
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      std::size_t i = slot_of(keys_[id], mask);
      while (table_[i] != kNoId) i = (i + 1) & mask;
      table_[i] = id;
    }
  }

  std::vector<std::uint32_t> table_;  // open addressing: id, or kNoId
  std::vector<std::uint64_t> keys_;   // by id
  std::vector<WireState> states_;     // by id
};

}  // namespace manetcap::sim
