// Ergodic mobility processes with stationary distribution φ(X − X^h)
// around fixed home-points (Definition 2).
//
// The paper's capacity results depend on the mobility process only through
// its stationary distribution (Lemma 2) — so we ship three processes:
//
//  * IidStationaryMobility — fresh stationary draw per slot (exact φ; the
//    i.i.d. mobility of Neely–Modiano as a special case, Remark 4);
//  * BoundedRandomWalk — reflected random walk in the mobility disk
//    (stationary ≈ uniform disk);
//  * PullHomeMobility — discrete Ornstein–Uhlenbeck pull toward the
//    home-point, truncated to the mobility disk (smooth, correlated paths).
//
// All displacements are expressed on the normalized torus: the mobility
// radius is D/f(n) for shape support D.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geom/point.h"
#include "mobility/shape.h"
#include "rng/rng.h"
#include "util/binio.h"

namespace manetcap::mobility {

/// Slot-stepped mobility: positions() is valid after construction and is
/// refreshed by each step(); realizations are deterministic given the seed.
class MobilityProcess {
 public:
  virtual ~MobilityProcess() = default;

  /// Number of mobile nodes.
  virtual std::size_t size() const = 0;

  /// Advances one time slot.
  virtual void step() = 0;

  /// Current node positions (torus coordinates), size() entries.
  virtual const std::vector<geom::Point>& positions() const = 0;

  virtual std::string name() const = 0;

  /// Checkpoint support: walks the evolving state (RNG stream, current
  /// positions and, where present, home offsets — never the immutable
  /// construction parameters). Writing appends it; reading restores it
  /// into a like-constructed instance, which then continues the identical
  /// trajectory bit-for-bit, and rejects a position outside the unit torus
  /// or a non-finite offset with a named CheckError.
  virtual void walk_state(util::binio::Walker& w) = 0;
};

/// Walks one torus position; reading rejects a point outside [0, 1)²
/// (NaN included) with a named CheckError.
void walk_position(util::binio::Walker& w, geom::Point& p);

/// Fresh i.i.d. stationary draw every slot: X_i(t) = X_i^h + V/f, V ~ s.
class IidStationaryMobility final : public MobilityProcess {
 public:
  IidStationaryMobility(std::vector<geom::Point> home_points,
                        const Shape& shape, double inv_f,
                        std::uint64_t seed);

  std::size_t size() const override { return home_.size(); }
  void step() override;
  const std::vector<geom::Point>& positions() const override { return pos_; }
  std::string name() const override { return "iid-stationary"; }
  void walk_state(util::binio::Walker& w) override;

 private:
  std::vector<geom::Point> home_;
  const Shape* shape_;
  double inv_f_;
  rng::Xoshiro256 rng_;
  std::vector<geom::Point> pos_;
};

/// Reflected random walk within the disk of radius `support·inv_f` around
/// the home-point; per-slot step length is a fixed fraction of the radius.
class BoundedRandomWalk final : public MobilityProcess {
 public:
  /// `step_fraction` is the per-slot step length relative to the mobility
  /// radius (default 0.25 mixes in a handful of slots).
  BoundedRandomWalk(std::vector<geom::Point> home_points, double radius,
                    std::uint64_t seed, double step_fraction = 0.25);

  std::size_t size() const override { return home_.size(); }
  void step() override;
  const std::vector<geom::Point>& positions() const override { return pos_; }
  std::string name() const override { return "bounded-walk"; }
  void walk_state(util::binio::Walker& w) override;

 private:
  std::vector<geom::Point> home_;
  double radius_;
  double step_len_;
  rng::Xoshiro256 rng_;
  std::vector<geom::Vec2> offset_;    // displacement from home
  std::vector<geom::Point> pos_;
};

/// Unrestricted Brownian motion on the torus: X ← X + σ·N(0, I) wrapped.
/// Stationary distribution uniform on O — the classical fully-mixing
/// mobility (Grossglauser–Tse / Brownian models of Remark 4), i.e. the
/// f(n) = Θ(1), m = n special case of the paper's model.
class BrownianTorusMobility final : public MobilityProcess {
 public:
  /// `sigma` is the per-slot displacement scale (default 0.05: the torus
  /// mixes in a few hundred slots).
  BrownianTorusMobility(std::vector<geom::Point> start, std::uint64_t seed,
                        double sigma = 0.05);

  std::size_t size() const override { return pos_.size(); }
  void step() override;
  const std::vector<geom::Point>& positions() const override { return pos_; }
  std::string name() const override { return "brownian-torus"; }
  void walk_state(util::binio::Walker& w) override;

 private:
  double sigma_;
  rng::Xoshiro256 rng_;
  std::vector<geom::Point> pos_;
};

/// AR(1) pull toward home: V ← ρ·V + σ·N(0, I), truncated to the mobility
/// disk. A discrete Ornstein–Uhlenbeck process with correlated sample paths.
class PullHomeMobility final : public MobilityProcess {
 public:
  PullHomeMobility(std::vector<geom::Point> home_points, double radius,
                   std::uint64_t seed, double rho = 0.8);

  std::size_t size() const override { return home_.size(); }
  void step() override;
  const std::vector<geom::Point>& positions() const override { return pos_; }
  std::string name() const override { return "pull-home-ar1"; }
  void walk_state(util::binio::Walker& w) override;

 private:
  std::vector<geom::Point> home_;
  double radius_;
  double rho_;
  double sigma_;
  rng::Xoshiro256 rng_;
  std::vector<geom::Vec2> offset_;
  std::vector<geom::Point> pos_;
};

}  // namespace manetcap::mobility
