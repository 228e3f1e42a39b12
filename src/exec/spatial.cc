#include "exec/spatial.h"

#include <algorithm>

namespace upi::exec {

Status KnnByExpandingRange(const core::ContinuousUpi& upi, prob::Point center,
                           size_t k, double qt, double initial_radius,
                           std::vector<core::PtqMatch>* out, int* rounds) {
  double radius = initial_radius;
  int used = 0;
  for (int attempt = 0; attempt < 24; ++attempt) {
    std::vector<core::PtqMatch> matches;
    UPI_RETURN_NOT_OK(upi.QueryRange(center, radius, qt, &matches));
    ++used;
    if (matches.size() >= k || attempt == 23) {
      // Each row's location column is decoded once; rows order by the
      // distance of its mean from `center` (ties keep their place).
      std::vector<std::pair<double, size_t>> by_distance;
      for (size_t i = 0; i < matches.size(); ++i) {
        UPI_ASSIGN_OR_RETURN(
            catalog::Value loc,
            matches[i].tuple.Column(static_cast<size_t>(upi.location_column())));
        by_distance.emplace_back(
            prob::DistanceBetween(loc.gaussian().mean(), center), i);
      }
      std::sort(by_distance.begin(), by_distance.end());
      if (by_distance.size() > k) by_distance.resize(k);
      out->clear();
      for (const auto& [distance, i] : by_distance) {
        out->push_back(std::move(matches[i]));
      }
      if (rounds != nullptr) *rounds = used;
      return Status::OK();
    }
    radius *= 2.0;
  }
  return Status::Internal("knn did not converge");
}

}  // namespace upi::exec
