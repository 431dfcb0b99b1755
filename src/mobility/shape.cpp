#include "mobility/shape.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "util/check.h"

namespace manetcap::mobility {

namespace {
constexpr int kCdfGrid = 4096;   // fine grid for the radial CDF
constexpr int kInvCdf = 1024;    // inverse-CDF table entries
constexpr int kEtaQuad = 192;    // Cartesian quadrature points per axis
}  // namespace

std::string to_string(ShapeKind kind) {
  switch (kind) {
    case ShapeKind::kUniformDisk:
      return "uniform-disk";
    case ShapeKind::kTriangular:
      return "triangular";
    case ShapeKind::kQuadratic:
      return "quadratic";
  }
  return "?";
}

Shape::Shape(ShapeKind kind, double support)
    : kind_(kind), support_(support) {
  MANETCAP_CHECK_MSG(support > 0.0, "shape support must be positive");
  build_radial_cdf();
  // One table per (kind, support bit pattern) for the whole process: the
  // quadrature makes kEtaGrid·kEtaQuad² density calls (~30 ms), and sweeps,
  // tests and benches build the same shape over and over. The first Shape
  // of a key builds it under the lock; later ones share it.
  static std::mutex mutex;
  static std::map<std::pair<ShapeKind, std::uint64_t>,
                  std::shared_ptr<const std::vector<double>>>
      tables;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& table = tables[{kind, std::bit_cast<std::uint64_t>(support)}];
  if (!table)
    table = std::make_shared<const std::vector<double>>(build_eta_table());
  eta_table_ = table;
}

double Shape::density(double d) const {
  if (d < 0.0) d = -d;
  if (d >= support_) return 0.0;
  const double t = d / support_;
  switch (kind_) {
    case ShapeKind::kUniformDisk:
      return 1.0;
    case ShapeKind::kTriangular:
      return 1.0 - t;
    case ShapeKind::kQuadratic:
      return 1.0 - t * t;
  }
  return 0.0;
}

double Shape::normalization() const {
  const double d2 = support_ * support_;
  switch (kind_) {
    case ShapeKind::kUniformDisk:
      return M_PI * d2;
    case ShapeKind::kTriangular:
      return M_PI * d2 / 3.0;
    case ShapeKind::kQuadratic:
      return M_PI * d2 / 2.0;
  }
  return 0.0;
}

void Shape::build_radial_cdf() {
  // F(r) = ∫₀ʳ s(t)·2πt dt, trapezoid on a fine grid, then inverted.
  std::vector<double> cdf(kCdfGrid + 1, 0.0);
  const double h = support_ / kCdfGrid;
  double acc = 0.0;
  double prev = 0.0;  // integrand s(t)·2πt at t=0 is 0
  for (int i = 1; i <= kCdfGrid; ++i) {
    const double t = i * h;
    const double cur = density(t) * 2.0 * M_PI * t;
    acc += 0.5 * (prev + cur) * h;
    cdf[i] = acc;
    prev = cur;
  }
  const double total = cdf.back();
  MANETCAP_CHECK(total > 0.0);

  inv_cdf_.assign(kInvCdf, 0.0);
  int j = 0;
  for (int i = 0; i < kInvCdf; ++i) {
    const double target = total * i / (kInvCdf - 1);
    while (j < kCdfGrid && cdf[j + 1] < target) ++j;
    // Linear interpolation within [j, j+1].
    const double lo = cdf[j], hi = cdf[j + 1];
    const double frac = hi > lo ? (target - lo) / (hi - lo) : 0.0;
    inv_cdf_[i] = (j + frac) * h;
  }
  inv_cdf_.back() = support_;
}

geom::Vec2 Shape::sample_displacement(rng::Xoshiro256& g) const {
  const double u = rng::uniform01(g) * (kInvCdf - 1);
  const int i = std::min(static_cast<int>(u), kInvCdf - 2);
  const double frac = u - i;
  const double r = inv_cdf_[i] * (1.0 - frac) + inv_cdf_[i + 1] * frac;
  const double theta = rng::uniform(g, 0.0, 2.0 * M_PI);
  return {r * std::cos(theta), r * std::sin(theta)};
}

std::vector<double> Shape::build_eta_table() const {
  // η(x) = ∫ s(‖X‖)·s(‖X − (x,0)‖) dX, midpoint rule over the support disk.
  std::vector<double> eta_table(kEtaGrid, 0.0);
  const double h = 2.0 * support_ / kEtaQuad;
  const double cell = h * h;
  for (int ix = 0; ix < kEtaGrid; ++ix) {
    const double x = 2.0 * support_ * ix / (kEtaGrid - 1);
    double acc = 0.0;
    for (int a = 0; a < kEtaQuad; ++a) {
      const double px = -support_ + (a + 0.5) * h;
      for (int b = 0; b < kEtaQuad; ++b) {
        const double py = -support_ + (b + 0.5) * h;
        const double s1 = density(std::sqrt(px * px + py * py));
        if (s1 == 0.0) continue;
        const double dx = px - x;
        acc += s1 * density(std::sqrt(dx * dx + py * py));
      }
    }
    eta_table[ix] = acc * cell;
  }
  return eta_table;
}

double disk_lens_area(double R, double dist) {
  MANETCAP_CHECK(R >= 0.0 && dist >= 0.0);
  if (dist >= 2.0 * R) return 0.0;
  const double half = dist / 2.0;
  return 2.0 * R * R * std::acos(half / R) -
         half * std::sqrt(4.0 * R * R - dist * dist);
}

}  // namespace manetcap::mobility
