#include "exec/aggregate.h"

namespace upi::exec {

std::map<std::string, GroupCount> GroupByCount(
    const std::vector<core::PtqMatch>& matches, int group_column) {
  std::map<std::string, GroupCount> groups;
  for (const auto& m : matches) {
    // One column decoded per row; the rows were validated when produced.
    Result<catalog::Value> v = m.tuple.Column(group_column);
    if (!v.ok() || v.value().type() != catalog::ValueType::kString) continue;
    GroupCount& g = groups[v.value().str()];
    ++g.count;
    g.expected_count += m.confidence;
  }
  return groups;
}

}  // namespace upi::exec
