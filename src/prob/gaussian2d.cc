#include "prob/gaussian2d.h"

#include <cmath>

#include "common/coding.h"

namespace upi::prob {

ConstrainedGaussian2D::ConstrainedGaussian2D(Point mean, double sigma,
                                             double bound_radius)
    : mean_(mean), sigma_(sigma), bound_(bound_radius) {
  trunc_norm_ = 1.0 - std::exp(-(bound_ * bound_) / (2.0 * sigma_ * sigma_));
  if (trunc_norm_ <= 0.0) trunc_norm_ = 1e-12;
}

double ConstrainedGaussian2D::RadialCdf(double t) const {
  if (t <= 0.0) return 0.0;
  if (t >= bound_) return 1.0;
  double raw = 1.0 - std::exp(-(t * t) / (2.0 * sigma_ * sigma_));
  return raw / trunc_norm_;
}

double ConstrainedGaussian2D::LowerBoundInCircle(Point center, double radius) const {
  double d = DistanceBetween(center, mean_);
  if (d + bound_ <= radius) return 1.0;           // support fully inside query
  if (d >= radius + bound_) return 0.0;           // disjoint
  if (radius > d) return RadialCdf(radius - d);   // inner tangent disk inside
  return 0.0;
}

double ConstrainedGaussian2D::UpperBoundInCircle(Point center, double radius) const {
  double d = DistanceBetween(center, mean_);
  if (d + bound_ <= radius) return 1.0;
  if (d >= radius + bound_) return 0.0;
  if (d > radius) {
    // Everything closer than d - radius to the mean is certainly outside.
    return 1.0 - RadialCdf(d - radius);
  }
  return 1.0;
}

double ConstrainedGaussian2D::ProbInCircle(Point center, double radius) const {
  double lo = LowerBoundInCircle(center, radius);
  double hi = UpperBoundInCircle(center, radius);
  if (hi - lo < 1e-9) return (lo + hi) / 2.0;

  // Numeric integration on a polar grid centred at the mean: integrate the
  // truncated Gaussian density over the part of each ring inside the query
  // circle. The integrand is radially symmetric, so per ring we only need the
  // angular fraction inside the query, which is analytic for two circles.
  const int kRings = 64;
  double d = DistanceBetween(center, mean_);
  double prob = 0.0;
  double r_max = bound_;
  for (int i = 0; i < kRings; ++i) {
    double r0 = r_max * i / kRings;
    double r1 = r_max * (i + 1) / kRings;
    double rm = 0.5 * (r0 + r1);
    // Fraction of the circle of radius rm (around mean) inside query circle.
    double frac;
    if (d + rm <= radius) {
      frac = 1.0;
    } else if (d >= radius + rm || rm >= d + radius) {
      frac = (rm >= d + radius) ? 0.0 : 0.0;
    } else {
      // Angle subtended: law of cosines.
      double cos_half = (d * d + rm * rm - radius * radius) / (2.0 * d * rm);
      if (cos_half > 1.0) cos_half = 1.0;
      if (cos_half < -1.0) cos_half = -1.0;
      frac = std::acos(cos_half) / M_PI;
    }
    double ring_mass = RadialCdf(r1) - RadialCdf(r0);
    prob += ring_mass * frac;
  }
  if (prob < lo) prob = lo;
  if (prob > hi) prob = hi;
  return prob;
}

void ConstrainedGaussian2D::Mbr(double* min_x, double* min_y, double* max_x,
                                double* max_y) const {
  *min_x = mean_.x - bound_;
  *min_y = mean_.y - bound_;
  *max_x = mean_.x + bound_;
  *max_y = mean_.y + bound_;
}

Point ConstrainedGaussian2D::Sample(Rng* rng) const {
  for (int attempt = 0; attempt < 256; ++attempt) {
    Point p{rng->Gaussian(mean_.x, sigma_), rng->Gaussian(mean_.y, sigma_)};
    if (DistanceBetween(p, mean_) <= bound_) return p;
  }
  return mean_;  // pathological sigma >> bound; fall back to the mode
}

void ConstrainedGaussian2D::Serialize(std::string* out) const {
  AppendOrderedDouble(out, mean_.x);
  AppendOrderedDouble(out, mean_.y);
  AppendOrderedDouble(out, sigma_);
  AppendOrderedDouble(out, bound_);
}

Status ConstrainedGaussian2D::Deserialize(const char** p, const char* limit,
                                          ConstrainedGaussian2D* out) {
  if (limit - *p < 32) return Status::Corruption("truncated gaussian2d");
  if (out != nullptr) {
    Point mean{DecodeOrderedDouble(*p), DecodeOrderedDouble(*p + 8)};
    *out = ConstrainedGaussian2D(mean, DecodeOrderedDouble(*p + 16),
                                 DecodeOrderedDouble(*p + 24));
  }
  *p += 32;
  return Status::OK();
}

}  // namespace upi::prob
