// The paper's s(d) function family (Definition 2).
//
// s(d) is an arbitrary non-increasing function with finite support D that
// shapes a node's stationary spatial distribution around its home-point:
// φ(X) ∝ s(f(n)·‖X − X^h‖). The capacity results hold for any such s; we
// provide three concrete shapes and verify the insensitivity empirically.
//
// The class also computes the paper's convolution kernel
//   η(x) = ∫_{R²} s(‖X − x₀‖)·s(‖X‖) dX,  ‖x₀‖ = x        (Corollary 1)
// which governs MS↔MS link capacity: μ(X_i^h, X_j^h) = Θ(f²η(f·d_ij)/n).
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "geom/point.h"
#include "rng/rng.h"

namespace manetcap::mobility {

/// Concrete s(d) families. All are non-increasing with support [0, D].
enum class ShapeKind {
  kUniformDisk,  // s(d) = 1                    for d ≤ D
  kTriangular,   // s(d) = 1 − d/D              (cone)
  kQuadratic,    // s(d) = (1 − (d/D)²)         (smooth decay)
};

std::string to_string(ShapeKind kind);

/// A normalized s(·) with support radius D (in *pre-normalization* units;
/// divide displacements by f(n) to land on the unit torus).
class Shape {
 public:
  /// Builds the shape; `support` is D = sup{d : s(d) > 0} (default 1).
  explicit Shape(ShapeKind kind, double support = 1.0);

  ShapeKind kind() const { return kind_; }
  double support() const { return support_; }

  /// Raw (un-normalized) density value s(d); 0 beyond the support.
  double density(double d) const;

  /// Normalization constant ∫_{R²} s(‖X‖) dX (closed form per family).
  double normalization() const;

  /// Samples a planar displacement V with density ∝ s(‖V‖)
  /// (radial inverse-CDF; exact for all three families).
  geom::Vec2 sample_displacement(rng::Xoshiro256& g) const;

  /// η(x) = ∫ s(‖X − x₀‖) s(‖X‖) dX at ‖x₀‖ = x, from a precomputed table
  /// (closed form for kUniformDisk is used to validate the table in tests).
  /// η is non-increasing with support [0, 2D]. The table depends only on
  /// (kind, support): every Shape of one key shares one immutable table,
  /// built by the first Shape of that key in the process (thread-safe).
  /// Inline: scheme A's contact pass calls it once per home-point pair.
  double eta(double x) const {
    if (x < 0.0) x = -x;
    const double span = 2.0 * support_;
    if (x >= span) return 0.0;
    const double u = x / span * (kEtaGrid - 1);
    const int i = std::min(static_cast<int>(u), kEtaGrid - 2);
    const double frac = u - i;
    const std::vector<double>& table = *eta_table_;
    return table[i] * (1.0 - frac) + table[i + 1] * frac;
  }

  /// η(0) = ∫ s², the self-overlap (peak of the kernel).
  double eta0() const { return eta(0.0); }

 private:
  static constexpr int kEtaGrid = 128;  // η(x) sample points over [0, 2D]

  void build_radial_cdf();
  std::vector<double> build_eta_table() const;

  ShapeKind kind_;
  double support_;
  // Inverse-CDF table for radial sampling: radius at quantile i/(N-1).
  std::vector<double> inv_cdf_;
  // η sampled on a uniform grid over [0, 2D]; shared per (kind, support).
  std::shared_ptr<const std::vector<double>> eta_table_;
};

/// Closed-form lens (intersection) area of two disks with common radius R
/// whose centers are `dist` apart — η for the uniform-disk shape, and a
/// geometric primitive used by tests.
double disk_lens_area(double R, double dist);

}  // namespace manetcap::mobility
