// Multicast extension: one source, g destinations per flow.
//
// The paper's Lemma 4 borrows its hop-count device from Li's multicast
// capacity analysis [20]; this module closes the loop by measuring the
// multicast behaviour of the paper's own constructions:
//
//  * MulticastSchemeA routes each flow as the *union* of the H-V squarelet
//    paths to its g destinations (a Steiner-lite tree — shared prefixes
//    are loaded once). Disabling sharing degenerates to g independent
//    unicasts, so the measured tree/unicast ratio quantifies the √g-style
//    gain of [20].
//  * MulticastSchemeB uplinks once, fans out over the wired backbone to
//    every destination group, and downlinks g times — infrastructure
//    multicast is "free" on the wireless side except for the g downlinks.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/constraints.h"
#include "net/network.h"
#include "rng/rng.h"

namespace manetcap::routing {

/// dests[s] = the g distinct destinations of source s (never s itself).
struct MulticastTraffic {
  std::vector<std::vector<std::uint32_t>> dests;

  std::size_t group_size() const {
    return dests.empty() ? 0 : dests.front().size();
  }
};

/// Samples uniform multicast traffic: every MS sources one flow with g
/// distinct uniformly chosen destinations.
MulticastTraffic multicast_traffic(std::size_t n, std::size_t g,
                                   rng::Xoshiro256& rng);

struct MulticastResult {
  flow::ThroughputResult throughput;
  double lambda_symmetric = 0.0;
  /// Squarelet-edge counts per flow: the tree (deduplicated union) vs the
  /// plain sum of the g unicast paths. Their ratio is the sharing factor.
  double mean_tree_edges = 0.0;
  double mean_unicast_edges = 0.0;
  bool degenerate = false;
};

/// Scheme A multicast over squarelet trees (or independent unicasts when
/// `share_tree` is false — the baseline).
class MulticastSchemeA {
 public:
  explicit MulticastSchemeA(bool share_tree = true);

  MulticastResult evaluate(const net::Network& net,
                           const MulticastTraffic& traffic) const;

 private:
  bool share_tree_;
};

/// Scheme B multicast: one uplink, wired fan-out, g downlinks.
class MulticastSchemeB {
 public:
  MulticastResult evaluate(const net::Network& net,
                           const MulticastTraffic& traffic) const;
};

}  // namespace manetcap::routing
