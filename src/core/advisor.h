// Tuning advisor (Section 6.3's procedure, plus the Section 4.3 merge
// scheduling question).
//
// "First, an administrator collects query workloads ... Second, she figures
// out the acceptable size of her database ... Finally, she picks a value of C
// that yields acceptable database size and also achieves a tolerable average
// query runtime." RecommendCutoff automates exactly that loop using the
// probability histogram and the cost models. FracturesBeforeMerge answers
// "how many fractures can accumulate before queries exceed a latency budget",
// trading off against MergeMs().
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "histogram/selectivity.h"

namespace upi::core {

/// One class of queries in the observed workload.
struct WorkloadQuery {
  std::string value;   // queried attribute value (e.g. "MIT")
  double qt = 0.5;     // probability threshold
  double weight = 1.0; // relative frequency
};

struct CutoffRecommendation {
  double cutoff = 0.0;
  double expected_query_ms = 0.0;  // weighted average over the workload
  double expected_heap_bytes = 0.0;
  bool feasible = false;  // fits the storage budget
};

class Advisor {
 public:
  /// Prices with `profile`'s cost model. `estimator` wraps the table's
  /// probability histogram; `avg_entry_bytes` is the average serialized heap
  /// entry (tuple + key overhead).
  Advisor(sim::DeviceProfile profile,
          const histogram::SelectivityEstimator* estimator,
          double avg_entry_bytes, uint32_t page_size)
      : profile_(profile),
        estimator_(estimator),
        avg_entry_bytes_(avg_entry_bytes),
        page_size_(page_size) {}

  /// Evaluates one candidate cutoff against a workload.
  CutoffRecommendation Evaluate(double cutoff,
                                const std::vector<WorkloadQuery>& workload,
                                double storage_budget_bytes) const;

  /// Picks the feasible candidate with the lowest expected query time;
  /// returns the smallest-heap candidate if none is feasible.
  CutoffRecommendation RecommendCutoff(
      const std::vector<double>& candidates,
      const std::vector<WorkloadQuery>& workload,
      double storage_budget_bytes) const;

  /// Largest fracture count whose estimated query time stays within
  /// `tolerable_query_ms` (at least 1). `selectivity` and `table_bytes`
  /// describe the dominant query / current table.
  uint32_t FracturesBeforeMerge(double tolerable_query_ms, double selectivity,
                                uint64_t table_bytes, uint32_t btree_height) const;

 private:
  /// Hypothetical physical stats for a cutoff candidate.
  TableStats StatsForCutoff(double cutoff) const;

  sim::DeviceProfile profile_;
  const histogram::SelectivityEstimator* estimator_;
  double avg_entry_bytes_;
  uint32_t page_size_;
};

}  // namespace upi::core
