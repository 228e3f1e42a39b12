// Constrained (truncated) isotropic 2-D Gaussian: the uncertainty model the
// paper uses for Cartel GPS locations ("a constrained Gaussian distribution
// ... with a boundary to limit the distribution as done in [16]").
//
// The radial CDF of an isotropic Gaussian is Rayleigh, so the truncated
// radial CDF is analytic. From it we precompute the U-Tree-style catalog of
// integrals that gives cheap lower/upper bounds on the appearance probability
// inside any query circle, avoiding numeric integration except near the
// decision boundary.
#pragma once

#include <array>
#include <string>

#include "common/random.h"
#include "common/status.h"

namespace upi::prob {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

inline double DistanceBetween(Point a, Point b) {
  double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

class ConstrainedGaussian2D {
 public:
  ConstrainedGaussian2D() = default;
  ConstrainedGaussian2D(Point mean, double sigma, double bound_radius);

  Point mean() const { return mean_; }
  double sigma() const { return sigma_; }
  double bound_radius() const { return bound_; }

  /// P(distance from mean <= t), truncated at bound_radius. Analytic.
  double RadialCdf(double t) const;

  /// Probability that the object's true location lies within
  /// circle(center, radius). Exact 0/1 short-circuits and catalog bounds are
  /// tried first; otherwise numeric integration on a polar grid.
  double ProbInCircle(Point center, double radius) const;

  /// Cheap bounds from the radial catalog (no integration). lower <= true
  /// probability <= upper always holds.
  double LowerBoundInCircle(Point center, double radius) const;
  double UpperBoundInCircle(Point center, double radius) const;

  /// Axis-aligned bounding box of the support (mean ± bound_radius).
  void Mbr(double* min_x, double* min_y, double* max_x, double* max_y) const;

  /// Draws a sample location (rejection sampling against the boundary).
  Point Sample(Rng* rng) const;

  void Serialize(std::string* out) const;
  /// Decodes one serialized Gaussian at *p and advances past it; with `out`
  /// null it only walks past it.
  static Status Deserialize(const char** p, const char* limit,
                            ConstrainedGaussian2D* out);

  bool operator==(const ConstrainedGaussian2D& o) const {
    return mean_.x == o.mean_.x && mean_.y == o.mean_.y && sigma_ == o.sigma_ &&
           bound_ == o.bound_;
  }

 private:
  Point mean_;
  double sigma_ = 1.0;
  double bound_ = 1.0;
  double trunc_norm_ = 1.0;  // P(r <= bound) of the untruncated Gaussian
};

}  // namespace upi::prob
