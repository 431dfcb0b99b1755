#include "linkcap/link_capacity.h"

#include <cmath>

#include "util/check.h"

namespace manetcap::linkcap {

LinkCapacityModel::LinkCapacityModel(const mobility::Shape& shape, double f,
                                     std::size_t population, double ct,
                                     double delta)
    : shape_(&shape),
      f_(f),
      rt_(ct / std::sqrt(static_cast<double>(population))),
      ct_(ct),
      delta_(delta) {
  MANETCAP_CHECK(f >= 1.0);
  MANETCAP_CHECK(population >= 1);
  MANETCAP_CHECK(ct > 0.0);
  cache_constants();
}

LinkCapacityModel LinkCapacityModel::with_range(const mobility::Shape& shape,
                                                double f, double range,
                                                double delta) {
  MANETCAP_CHECK(range > 0.0);
  LinkCapacityModel model(shape, f, 1, kDefaultCt, delta);
  model.rt_ = range;
  model.cache_constants();
  return model;
}

void LinkCapacityModel::cache_constants() {
  // Expected interferers inside one guard disk in a uniformly dense
  // population: pop · π((1+Δ)R_T)² = π(1+Δ)²c_T². Two (overlapping) disks
  // are bounded by twice that; Poissonization gives the clearing constant.
  const double mean = 2.0 * M_PI * (1.0 + delta_) * (1.0 + delta_) *
                      ct_ * ct_;
  isolation_ = std::exp(-mean);
  // π·R_T²·f² left to right, so pre_·η/S₀² rounds exactly as the single
  // expression π·R_T·R_T·f·f·η/(S₀·S₀) does.
  pre_ = M_PI * rt_ * rt_ * f_ * f_;
  s0_ = shape_->normalization();
  s0_sq_ = s0_ * s0_;
}

double LinkCapacityModel::max_contact_dist_ms_ms() const {
  return (2.0 * shape_->support()) / f_ + rt_;
}

double LinkCapacityModel::max_contact_dist_ms_bs() const {
  return shape_->support() / f_ + rt_;
}

}  // namespace manetcap::linkcap
