// Aggregation over PTQ results — the executor for the paper's Query 2/3:
//   SELECT Journal, COUNT(*) FROM Publication
//   WHERE Institution=MIT GROUP BY Journal  (confidence >= QT)
//
// Under possible-world semantics a qualifying tuple contributes to the group
// count with its confidence; we report both the threshold count (tuples whose
// confidence passes QT, the paper's semantics) and the expected count
// (sum of confidences), which downstream consumers often want.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/upi.h"

namespace upi::exec {

struct GroupCount {
  uint64_t count = 0;          // qualifying tuples
  double expected_count = 0.0; // sum of confidences
};

/// Groups PTQ matches by the string column `group_column`, decoding that
/// one column of each row (catalog::EncodedTuple::Column); a row whose
/// column is not a string joins no group.
std::map<std::string, GroupCount> GroupByCount(
    const std::vector<core::PtqMatch>& matches, int group_column);

}  // namespace upi::exec
