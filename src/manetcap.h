// Umbrella header: the whole manetcap public API in one include.
//
// Layering (bottom to top):
//   util      — checks, tables, CSV, flags, thread pool
//   geom/rng  — torus geometry, tessellations, spatial hash; PRNG
//   mobility  — s(d) shapes, clustered home-points, mobility processes
//   net       — scaling parameters, network instances, traffic
//   phy/sched — protocol interference model; the S* scheduler
//   linkcap   — link capacity μ(i,j), analytic + Monte-Carlo
//   backbone  — wired BS graph load ledgers
//   routing   — schemes A/B/C, L-max-hop, two-hop, static multihop
//   flow      — fluid constraint solver
//   capacity  — regimes, Table I laws, Figure 3, cut-set bounds, design rules
//   analysis  — power-law fits, density fields, connectivity, statistics
//   sim       — fluid evaluator, scaling sweeps, slotted packet simulator
//
// Most applications only need capacity/ + sim/ (see examples/quickstart).
#pragma once

#include "analysis/connectivity.h"   // IWYU pragma: export
#include "analysis/density.h"        // IWYU pragma: export
#include "analysis/loglog_fit.h"     // IWYU pragma: export
#include "analysis/stats.h"          // IWYU pragma: export
#include "backbone/backbone.h"       // IWYU pragma: export
#include "capacity/cutset.h"         // IWYU pragma: export
#include "capacity/formulas.h"       // IWYU pragma: export
#include "capacity/phase_diagram.h"  // IWYU pragma: export
#include "capacity/recommend.h"      // IWYU pragma: export
#include "capacity/regimes.h"        // IWYU pragma: export
#include "flow/constraints.h"        // IWYU pragma: export
#include "geom/hex.h"                // IWYU pragma: export
#include "geom/point.h"              // IWYU pragma: export
#include "geom/spatial_hash.h"       // IWYU pragma: export
#include "geom/tessellation.h"       // IWYU pragma: export
#include "linkcap/link_capacity.h"   // IWYU pragma: export
#include "linkcap/measure.h"         // IWYU pragma: export
#include "mobility/home_points.h"    // IWYU pragma: export
#include "mobility/process.h"        // IWYU pragma: export
#include "mobility/shape.h"          // IWYU pragma: export
#include "net/network.h"             // IWYU pragma: export
#include "net/params.h"              // IWYU pragma: export
#include "net/traffic.h"             // IWYU pragma: export
#include "phy/protocol_model.h"      // IWYU pragma: export
#include "routing/l_hop.h"           // IWYU pragma: export
#include "routing/scheme_a.h"        // IWYU pragma: export
#include "routing/scheme_b.h"        // IWYU pragma: export
#include "routing/scheme_c.h"        // IWYU pragma: export
#include "routing/static_multihop.h" // IWYU pragma: export
#include "routing/two_hop.h"         // IWYU pragma: export
#include "rng/rng.h"                 // IWYU pragma: export
#include "sched/sstar.h"             // IWYU pragma: export
#include "sim/fluid.h"               // IWYU pragma: export
#include "sim/slotsim.h"             // IWYU pragma: export
#include "sim/sweep.h"               // IWYU pragma: export
