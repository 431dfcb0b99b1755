#include "mobility/process.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace manetcap::mobility {

namespace {

// Per-process checkpoint blobs: RNG stream (4×u64 fixed) plus the evolving
// coordinate vectors as fixed-width f64 pairs. Sizes are length-prefixed
// and validated against the restoring instance, so a blob from a
// differently-sized run fails loudly instead of silently misaligning.
using util::binio::Walker;

template <class V>
void walk_size(Walker& w, const std::vector<V>& v) {
  std::uint64_t size = v.size();
  w.varint(size);
  MANETCAP_CHECK_MSG(size == v.size(),
                     w.label() << ": mobility state size mismatch");
}

void walk_positions(Walker& w, std::vector<geom::Point>& pos) {
  walk_size(w, pos);
  for (geom::Point& p : pos) walk_position(w, p);
}

void walk_offsets(Walker& w, std::vector<geom::Vec2>& offset) {
  walk_size(w, offset);
  for (geom::Vec2& v : offset) {
    w.xy(v);
    MANETCAP_CHECK_MSG(std::isfinite(v.x) && std::isfinite(v.y),
                       w.label() << ": non-finite mobility offset");
  }
}

}  // namespace

void walk_position(Walker& w, geom::Point& p) {
  w.xy(p);
  MANETCAP_CHECK_MSG(p.x >= 0.0 && p.x < 1.0 && p.y >= 0.0 && p.y < 1.0,
                     w.label() << ": position outside the unit torus");
}

IidStationaryMobility::IidStationaryMobility(
    std::vector<geom::Point> home_points, const Shape& shape, double inv_f,
    std::uint64_t seed)
    : home_(std::move(home_points)),
      shape_(&shape),
      inv_f_(inv_f),
      rng_(seed),
      pos_(home_.size()) {
  MANETCAP_CHECK(inv_f > 0.0 && inv_f <= 1.0);
  step();
}

void IidStationaryMobility::step() {
  for (std::size_t i = 0; i < home_.size(); ++i) {
    geom::Vec2 v = shape_->sample_displacement(rng_) * inv_f_;
    pos_[i] = home_[i].displaced(v);
  }
}

void IidStationaryMobility::walk_state(Walker& w) {
  w.rng(rng_);
  walk_positions(w, pos_);
}

BoundedRandomWalk::BoundedRandomWalk(std::vector<geom::Point> home_points,
                                     double radius, std::uint64_t seed,
                                     double step_fraction)
    : home_(std::move(home_points)),
      radius_(radius),
      step_len_(radius * step_fraction),
      rng_(seed),
      offset_(home_.size()),
      pos_(home_.size()) {
  MANETCAP_CHECK(radius > 0.0);
  MANETCAP_CHECK(step_fraction > 0.0 && step_fraction <= 1.0);
  // Start from the stationary (uniform-disk) law so measurements need no
  // burn-in.
  for (std::size_t i = 0; i < home_.size(); ++i) {
    double r = radius_ * std::sqrt(rng::uniform01(rng_));
    double th = rng::uniform(rng_, 0.0, 2.0 * M_PI);
    offset_[i] = {r * std::cos(th), r * std::sin(th)};
    pos_[i] = home_[i].displaced(offset_[i]);
  }
}

void BoundedRandomWalk::step() {
  for (std::size_t i = 0; i < home_.size(); ++i) {
    double th = rng::uniform(rng_, 0.0, 2.0 * M_PI);
    geom::Vec2 cand = offset_[i] + geom::Vec2{step_len_ * std::cos(th),
                                              step_len_ * std::sin(th)};
    double norm = cand.norm();
    if (norm > radius_) {
      // Radial reflection at the boundary keeps the uniform stationary law.
      cand = cand * ((2.0 * radius_ - norm) / norm);
      if (cand.norm() > radius_) cand = cand * (radius_ / cand.norm());
    }
    offset_[i] = cand;
    pos_[i] = home_[i].displaced(cand);
  }
}

void BoundedRandomWalk::walk_state(Walker& w) {
  w.rng(rng_);
  walk_offsets(w, offset_);
  walk_positions(w, pos_);
}

BrownianTorusMobility::BrownianTorusMobility(std::vector<geom::Point> start,
                                             std::uint64_t seed,
                                             double sigma)
    : sigma_(sigma), rng_(seed), pos_(std::move(start)) {
  MANETCAP_CHECK(sigma > 0.0);
}

void BrownianTorusMobility::step() {
  for (auto& p : pos_) {
    p = p.displaced(
        {sigma_ * rng::normal(rng_), sigma_ * rng::normal(rng_)});
  }
}

void BrownianTorusMobility::walk_state(Walker& w) {
  w.rng(rng_);
  walk_positions(w, pos_);
}

PullHomeMobility::PullHomeMobility(std::vector<geom::Point> home_points,
                                   double radius, std::uint64_t seed,
                                   double rho)
    : home_(std::move(home_points)),
      radius_(radius),
      rho_(rho),
      // σ chosen so the untruncated stationary std-dev is radius/2.5:
      // Var = σ²/(1−ρ²), so σ = (radius/2.5)·√(1−ρ²). Truncation then only
      // clips a small tail.
      sigma_(radius / 2.5 * std::sqrt(1.0 - rho * rho)),
      rng_(seed),
      offset_(home_.size()),
      pos_(home_.size()) {
  MANETCAP_CHECK(radius > 0.0);
  MANETCAP_CHECK(rho > 0.0 && rho < 1.0);
  for (std::size_t i = 0; i < home_.size(); ++i) {
    offset_[i] = {0.0, 0.0};
    pos_[i] = home_[i];
  }
  // Mix to (approximate) stationarity; the AR(1) memory decays as ρ^t, so
  // the burn-in must scale with the mixing time: ρ^T ≤ ε needs
  // T ≥ log ε / log ρ. A fixed 32 steps (the historical choice) leaves
  // ρ = 0.99 at 0.99³² ≈ 0.72 of its initial bias — nowhere near
  // stationary. Floor 32 keeps the default ρ = 0.8 bit-identical
  // (⌈log 1e−3 / log 0.8⌉ = 31 < 32); the cap bounds pathological ρ → 1.
  const int burn_in = static_cast<int>(std::clamp(
      std::ceil(std::log(1e-3) / std::log(rho_)), 32.0, 2048.0));
  for (int t = 0; t < burn_in; ++t) step();
}

void PullHomeMobility::step() {
  for (std::size_t i = 0; i < home_.size(); ++i) {
    geom::Vec2 cand = offset_[i] * rho_ +
                      geom::Vec2{sigma_ * rng::normal(rng_),
                                 sigma_ * rng::normal(rng_)};
    double norm = cand.norm();
    if (norm > radius_) cand = cand * (radius_ / norm);
    offset_[i] = cand;
    pos_[i] = home_[i].displaced(cand);
  }
}

void PullHomeMobility::walk_state(Walker& w) {
  w.rng(rng_);
  walk_offsets(w, offset_);
  walk_positions(w, pos_);
}

}  // namespace manetcap::mobility
