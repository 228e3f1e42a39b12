#include "exec/ptq.h"

#include <algorithm>
#include <cstdio>

namespace upi::exec {

std::string Summarize(const std::vector<core::PtqMatch>& matches) {
  if (matches.empty()) return "0 tuples";
  double hi = matches.front().confidence, lo = matches.front().confidence;
  for (const auto& m : matches) {
    hi = std::max(hi, m.confidence);
    lo = std::min(lo, m.confidence);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zu tuples, conf %.3f..%.3f", matches.size(),
                hi, lo);
  return buf;
}

}  // namespace upi::exec
