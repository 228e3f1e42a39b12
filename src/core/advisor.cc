#include "core/advisor.h"

#include <algorithm>
#include <cmath>

namespace upi::core {

TableStats Advisor::StatsForCutoff(double cutoff) const {
  TableStats s;
  double entries = estimator_->EstimateHeapEntries(cutoff);
  double bytes = entries * avg_entry_bytes_;
  s.table_bytes = static_cast<uint64_t>(bytes);
  double fill = 0.9;
  s.num_leaf_pages =
      static_cast<uint64_t>(std::ceil(bytes / (fill * page_size_))) + 1;
  // Height: entries per internal node ~ page_size / ~24B separator entries.
  double fanout = page_size_ / 24.0;
  double leaves = static_cast<double>(s.num_leaf_pages);
  uint32_t h = 1;
  while (leaves > 1.0) {
    leaves /= fanout;
    ++h;
  }
  s.btree_height = h;
  s.page_size = page_size_;
  s.num_fractures = 1;
  return s;
}

CutoffRecommendation Advisor::Evaluate(double cutoff,
                                       const std::vector<WorkloadQuery>& workload,
                                       double storage_budget_bytes) const {
  CutoffRecommendation rec;
  rec.cutoff = cutoff;
  TableStats stats = StatsForCutoff(cutoff);
  rec.expected_heap_bytes = static_cast<double>(stats.table_bytes);
  rec.feasible = rec.expected_heap_bytes <= storage_budget_bytes;
  CostModel model(profile_, stats);
  double total_weight = 0.0;
  double total_ms = 0.0;
  for (const WorkloadQuery& q : workload) {
    histogram::PtqEstimate est = estimator_->EstimatePtq(q.value, q.qt, cutoff);
    double ms;
    if (q.qt < cutoff) {
      ms = model.CutoffQueryMs(est.selectivity, est.cutoff_pointers);
    } else {
      // Pure heap answer: one table, one descent, sequential scan.
      ms = model.CostScanMs() * est.selectivity + model.LookupOverheadMs();
    }
    total_ms += q.weight * ms;
    total_weight += q.weight;
  }
  rec.expected_query_ms = total_weight > 0 ? total_ms / total_weight : 0.0;
  return rec;
}

CutoffRecommendation Advisor::RecommendCutoff(
    const std::vector<double>& candidates,
    const std::vector<WorkloadQuery>& workload,
    double storage_budget_bytes) const {
  CutoffRecommendation best;
  CutoffRecommendation smallest;
  bool have_best = false, have_any = false;
  for (double c : candidates) {
    CutoffRecommendation rec = Evaluate(c, workload, storage_budget_bytes);
    if (!have_any || rec.expected_heap_bytes < smallest.expected_heap_bytes) {
      smallest = rec;
      have_any = true;
    }
    if (rec.feasible &&
        (!have_best || rec.expected_query_ms < best.expected_query_ms)) {
      best = rec;
      have_best = true;
    }
  }
  return have_best ? best : smallest;
}

uint32_t Advisor::FracturesBeforeMerge(double tolerable_query_ms,
                                       double selectivity, uint64_t table_bytes,
                                       uint32_t btree_height) const {
  TableStats stats;
  stats.table_bytes = table_bytes;
  stats.page_size = page_size_;
  stats.btree_height = btree_height;
  stats.num_leaf_pages = table_bytes / page_size_ + 1;
  for (uint32_t nfrac = 1; nfrac < 10000; ++nfrac) {
    stats.num_fractures = nfrac;
    CostModel model(profile_, stats);
    if (model.FracturedQueryMs(selectivity) > tolerable_query_ms) {
      return nfrac > 1 ? nfrac - 1 : 1;
    }
  }
  return 10000;
}

}  // namespace upi::core
