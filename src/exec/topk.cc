#include "exec/topk.h"

#include <algorithm>

#include "exec/ptq.h"

namespace upi::exec {

Status TopKDirect(const engine::AccessPath& path, std::string_view value,
                  size_t k, std::vector<core::PtqMatch>* out) {
  return path.OpenTopK(value, k)->Drain(out);
}

Status TopKByDecreasingThreshold(const engine::AccessPath& path,
                                 std::string_view value, size_t k,
                                 double initial_qt,
                                 std::vector<core::PtqMatch>* out, int* rounds) {
  double qt = initial_qt;
  int used = 0;
  for (;;) {
    std::vector<core::PtqMatch> matches;
    UPI_RETURN_NOT_OK(path.OpenPtq(value, qt)->Drain(&matches));
    ++used;
    if (matches.size() >= k || qt <= 1e-6) {
      SortByConfidenceDesc(&matches);
      if (matches.size() > k) matches.resize(k);
      *out = std::move(matches);
      if (rounds != nullptr) *rounds = used;
      return Status::OK();
    }
    qt /= 4.0;
    if (qt < 1e-6) qt = 0.0;
  }
}

Status TopKByEstimatedThreshold(const engine::AccessPath& path,
                                std::string_view value, size_t k,
                                std::vector<core::PtqMatch>* out) {
  double qt = path.EstimateTopKThreshold(value, k);
  int rounds = 0;
  return TopKByDecreasingThreshold(path, value, k, qt <= 0 ? 0.25 : qt, out,
                                   &rounds);
}

}  // namespace upi::exec
