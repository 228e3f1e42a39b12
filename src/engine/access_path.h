// The engine's one access-path adapter: the unclustered baseline.
//
// The clustered and the Fractured UPI implement core::AccessPath
// (core/access_path.h) themselves, and the partitioned table
// (engine/partition.h) is its own path. baseline::UnclusteredTable is a heap
// with PII indexes and knows neither which column its PTQs probe nor the
// planner's histograms; UnclusteredAccessPath adds both.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/unclustered_table.h"
#include "core/access_path.h"
#include "engine/query.h"
#include "histogram/prob_histogram.h"

namespace upi::engine {

/// Adapter over the unclustered baseline: PTQ / top-k route through the PII
/// index on `primary_column`; OpenSecondary probes the PII index on the
/// requested column (no pointer tailoring exists — `mode` is ignored).
/// Estimation uses in-RAM probability histograms of the primary and PII
/// columns, built at construction from the tuples the table was built from
/// (a real system would persist them in the catalog).
class UnclusteredAccessPath : public AccessPath {
 public:
  UnclusteredAccessPath(std::unique_ptr<baseline::UnclusteredTable> table,
                        int primary_column,
                        const std::vector<catalog::Tuple>& tuples);

  const std::string& name() const override { return table_->name(); }
  const catalog::Schema& schema() const override { return table_->schema(); }
  PathStats Stats() const override;
  Status Insert(const catalog::Tuple& tuple) override;
  Status Delete(const catalog::Tuple& tuple) override;

  /// UnclusteredTable::OpenPii on the primary column: reads the inverted
  /// list at open; each tuple's random heap fetch happens only when the
  /// consumer pulls its row.
  std::unique_ptr<ResultCursor> OpenPtq(std::string_view value,
                                        double qt) const override;
  /// Eager: k inverted-list entries and their heap fetches.
  std::unique_ptr<ResultCursor> OpenTopK(std::string_view value,
                                         size_t k) const override;
  /// Eager: the PII probe on `column`, fetched in RID order and drained at
  /// open.
  std::unique_ptr<ResultCursor> OpenSecondary(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const override;
  Status ScanTuples(
      const std::function<void(catalog::TupleView)>& fn) const override;

  uint64_t StatsEpoch() const override { return table_->stats_epoch(); }

  bool HasSecondary(int column) const override;
  int primary_column() const override { return primary_column_; }
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  double EstimateTopKThreshold(std::string_view value, size_t k) const override;

 private:
  double CountMatches(int column, std::string_view value, double qt) const;

  std::unique_ptr<baseline::UnclusteredTable> table_;
  int primary_column_;
  std::map<int, histogram::ProbHistogram> histograms_;
};

}  // namespace upi::engine
