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
      std::sort(matches.begin(), matches.end(),
                [&](const core::PtqMatch& a, const core::PtqMatch& b) {
                  const auto& ga =
                      a.tuple.Get(upi.location_column()).gaussian();
                  const auto& gb =
                      b.tuple.Get(upi.location_column()).gaussian();
                  return prob::DistanceBetween(ga.mean(), center) <
                         prob::DistanceBetween(gb.mean(), center);
                });
      if (matches.size() > k) matches.resize(k);
      *out = std::move(matches);
      if (rounds != nullptr) *rounds = used;
      return Status::OK();
    }
    radius *= 2.0;
  }
  return Status::Internal("knn did not converge");
}

}  // namespace upi::exec
