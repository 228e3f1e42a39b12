#include "exec/topk.h"

#include <algorithm>

#include "exec/ptq.h"

namespace upi::exec {

Status TopKByDecreasingThreshold(const core::AccessPath& path,
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

}  // namespace upi::exec
