// Wired-backbone token-bucket state shared by the packet engine (SlotSim)
// and the flow-level engine (FlowSim). Both key edges by the packed
// unordered (min BS, max BS) pair and accrue c(n)·scale units of credit
// per slot with a bucket depth of max(1, 4·c).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/binio.h"
#include "util/check.h"

namespace manetcap::sim {

/// Wired-edge token-bucket state, keyed by the unordered BS pair.
/// `scale` is the fault-injection bandwidth factor (1 when healthy, 0 when
/// severed); the accrual rate is c(n)·scale.
struct WireState {
  double credit = 0.0;
  std::size_t last_topup = 0;
  double scale = 1.0;
};

/// Packs an unordered BS pair into the shared 64-bit edge key.
inline std::uint64_t wire_edge_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
         std::max(a, b);
}

/// Open-addressing map from a packed (min BS, max BS) edge key to its
/// WireState. The legacy simulator kept this in a std::map — a pointer
/// chase plus an O(log E) walk per hop-0 packet per slot. Behavior is
/// keyed state only (the map is never iterated), so probing order cannot
/// leak into results.
class WireCreditMap {
 public:
  void reserve_edges(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 2 * expected + 1) cap <<= 1;
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, WireState{});
  }

  /// Returns the slot for `key`, default-constructing it when absent;
  /// second is true on first use (the try_emplace contract).
  std::pair<WireState*, bool> try_emplace(std::uint64_t key) {
    if (keys_.empty()) reserve_edges(8);
    if (2 * (count_ + 1) > keys_.size()) grow();
    std::size_t i = slot_of(key, keys_.size());
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return {&vals_[i], false};
      i = (i + 1) & (keys_.size() - 1);
    }
    keys_[i] = key;
    ++count_;
    return {&vals_[i], true};
  }

  std::size_t size() const { return count_; }

  /// Checkpoint support: a count, then (key, credit, last top-up, scale)
  /// per edge in ascending key order. The probe layout stays unobservable
  /// — a map restored from this order is behaviorally identical
  /// regardless of the insertion history that produced it. Reading fills
  /// an empty map and rejects more than `max_edges` edges.
  void walk_state(util::binio::Walker& w, std::uint64_t max_edges) {
    const auto walk_edge = [&w](std::uint64_t key, WireState s) {
      w.fixed(key);
      w.f64(s.credit);
      w.varint(s.last_topup);
      w.f64(s.scale);
      return std::pair{key, s};
    };
    std::uint64_t edges = count_;
    w.varint(edges);
    MANETCAP_CHECK_MSG(edges <= max_edges,
                       w.label() << ": wired edge count out of range");
    if (!w.reading()) {
      std::vector<std::size_t> idx;
      idx.reserve(count_);
      for (std::size_t i = 0; i < keys_.size(); ++i)
        if (keys_[i] != kEmpty) idx.push_back(i);
      std::sort(idx.begin(), idx.end(), [this](std::size_t a, std::size_t b) {
        return keys_[a] < keys_[b];
      });
      for (std::size_t i : idx) walk_edge(keys_[i], vals_[i]);
      return;
    }
    for (std::uint64_t e = 0; e < edges; ++e) {
      const auto [key, state] = walk_edge(0, WireState{});
      MANETCAP_CHECK_MSG(key != kEmpty,
                         w.label() << ": invalid wired edge key");
      auto [wire, first_use] = try_emplace(key);
      MANETCAP_CHECK_MSG(first_use,
                         w.label() << ": duplicate wired edge key");
      *wire = state;
    }
  }

  std::uint64_t memory_bytes() const {
    return keys_.capacity() * sizeof(std::uint64_t) +
           vals_.capacity() * sizeof(WireState);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::size_t slot_of(std::uint64_t key, std::size_t cap) {
    // SplitMix64 finalizer: edge keys are dense low-entropy pairs.
    std::uint64_t x = key + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>((x ^ (x >> 31)) & (cap - 1));
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<WireState> old_vals = std::move(vals_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    vals_.assign(old_keys.size() * 2, WireState{});
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      std::size_t j = slot_of(old_keys[i], keys_.size());
      while (keys_[j] != kEmpty) j = (j + 1) & (keys_.size() - 1);
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<WireState> vals_;
  std::size_t count_ = 0;
};

}  // namespace manetcap::sim
