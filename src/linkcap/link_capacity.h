// Link capacity (Definition 9) under policy S* — the paper's central
// analytical object.
//
// Lemma 2: μ(i,j) = Θ( Pr{ d_ij ≤ c_T/√n | home-points } ), so with
// stationary distributions φ ∝ s(f·‖·‖) (Corollary 1):
//
//   μ(X_i^h, X_j^h) = Θ( f²·η(f·d) / n ),  η(x) = ∫ s(‖X−x₀‖)s(‖X‖) dX
//   μ(X_i^h, Y_l^h) = Θ( f²·s(f·d) / n )
//
// LinkCapacityModel evaluates these with explicit geometric constants
// (meeting probability π·R_T²·⟨φ_i, φ_j⟩ times a constant isolation factor)
// so that Monte-Carlo measurements can be compared against it 1:1, not just
// in order of magnitude.
#pragma once

#include <cstddef>

#include "mobility/shape.h"

namespace manetcap::linkcap {

/// Analytic S* link capacities for one (shape, f, population) configuration.
class LinkCapacityModel {
 public:
  /// `population` is the number of nodes the S* range divides over
  /// (n MSs + k BSs); `ct`, `delta` are the S* constants. The default
  /// c_T = 0.3 keeps the expected guard-zone occupancy π(1+Δ)²c_T² near 1,
  /// so the isolation constant is Θ(1) rather than astronomically small —
  /// any constant works in order terms, this one also works numerically.
  LinkCapacityModel(const mobility::Shape& shape, double f,
                    std::size_t population, double ct = kDefaultCt,
                    double delta = kDefaultDelta);

  static constexpr double kDefaultCt = 0.3;
  static constexpr double kDefaultDelta = 1.0;

  /// Builds a model with an explicitly chosen transmission range instead
  /// of c_T/√population — the weak regime runs S* at the subnet-scaled
  /// R_T = Θ(r√(m/n)) (Table I), not the global Θ(1/√n).
  static LinkCapacityModel with_range(const mobility::Shape& shape, double f,
                                      double range,
                                      double delta = kDefaultDelta);

  /// R_T = c_T/√population.
  double range() const { return rt_; }

  /// Probability that two nodes with home-distance `d` are within R_T of
  /// each other in stationarity: π·R_T²·f²·η(f·d)/S₀² (Corollary 1's Θ
  /// argument with constants kept).
  double meeting_probability_ms_ms(double home_dist) const {
    return pre_ * shape_->eta(f_ * home_dist) / s0_sq_;
  }

  /// Same for a MS against a static BS at distance `d`:
  /// π·R_T²·f²·s(f·d)/S₀.
  double meeting_probability_ms_bs(double home_dist) const {
    return pre_ * shape_->density(f_ * home_dist) / s0_;
  }

  /// Constant probability that the guard zones of both endpoints are clear
  /// of all other nodes in a uniformly dense network (Poisson thinning with
  /// mean 2π(1+Δ)²c_T² interferer candidates).
  double isolation_factor() const { return isolation_; }

  /// Full analytic link capacity μ = isolation · meeting probability.
  double mu_ms_ms(double home_dist) const {
    return isolation_ * meeting_probability_ms_ms(home_dist);
  }
  double mu_ms_bs(double home_dist) const {
    return isolation_ * meeting_probability_ms_bs(home_dist);
  }

  /// Home-distance beyond which μ is exactly zero: (2D + c_T/√pop·f)/f for
  /// MS–MS (both supports plus the range), (D + R_T·f)/f for MS–BS.
  double max_contact_dist_ms_ms() const;
  double max_contact_dist_ms_bs() const;

  const mobility::Shape& shape() const { return *shape_; }
  double f() const { return f_; }

 private:
  /// Recomputes the per-call constants below from shape_, f_, rt_, ct_
  /// and delta_; every setter of those fields calls it.
  void cache_constants();

  const mobility::Shape* shape_;
  double f_;
  double rt_;
  double ct_;
  double delta_;
  // μ's constant factors, cached so a call costs one η (or s) lookup: the
  // isolation factor (one std::exp), π·R_T²·f² and S₀, S₀². Each keeps the
  // expression shape of the per-call formula it replaces, so μ keeps its
  // bits.
  double isolation_ = 0.0;
  double pre_ = 0.0;
  double s0_ = 0.0;
  double s0_sq_ = 0.0;
};

}  // namespace manetcap::linkcap
