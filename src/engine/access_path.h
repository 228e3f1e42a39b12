// The engine's physical-access abstraction.
//
// Every concrete layout in this codebase — the clustered UPI (Section 3), the
// Fractured UPI (Section 4), the PII-over-unclustered-heap baseline (Section
// 7.2), and the horizontally partitioned table (engine/partition.h) — answers
// the same logical requests: probabilistic threshold queries, top-k,
// secondary probes. AccessPath is the common interface the executor and the
// cost-based QueryPlanner work against. Its reads are the designs' own: each
// probe forwards the core::ResultCursor (core/result_cursor.h) the design
// returns, so one cursor protocol runs from the B-tree leaf to the Session.
// Streaming cursors (clustered PTQ and top-k, the Fractured PTQ fan-out, the
// PII PTQ) pay for each row as it is pulled; eager ones (secondary probes,
// the fractured and PII top-k, every partitioned gather) computed every row
// at open. The path is also the table's write path: Insert/Delete are the
// in-memory mutation (engine::Table journals to the WAL first). An adapter
// owns its design and is complete when constructed. The estimation hooks are
// RAM-only so the planner never spends simulated disk time to make a
// decision.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/unclustered_table.h"
#include "core/cost_model.h"
#include "core/fractured_upi.h"
#include "core/upi.h"
#include "engine/query.h"
#include "histogram/selectivity.h"
#include "maintenance/manager.h"

namespace upi::engine {

/// Everything the planner needs to know about a path's physical shape.
/// Assembled fresh on each call so it tracks maintenance (merges change
/// Nfrac, inserts grow the heap).
struct PathStats {
  core::TableStats table;        // heap footprint, Nleaf, H, Nfrac
  double cutoff = 0.0;           // the cutoff threshold C (0 when N/A)
  uint64_t heap_entries = 0;     // heap entries across all fractures
  uint64_t num_tuples = 0;
  double avg_entry_bytes = 0.0;  // serialized heap entry footprint
  /// Device span for distance-dependent seek pricing (SimDisk::SeekSpan).
  uint64_t seek_span_bytes = 0;
  /// Distinct primary-attribute values (heap regions a sweep can target).
  double distinct_primary_values = 0.0;
  /// Whether the planner prices Costinit per file a probe touches: the
  /// Fractured UPI always, per probed fracture (the paper's cold Cost_frac,
  /// even though a fracture whose handle is open pays nothing at run time);
  /// plain UPIs only with charge_open_per_query.
  bool charges_open_per_query = false;
  bool supports_direct_topk = false;
  /// True when the primary probe reads one clustered region (UPI); false when
  /// it random-fetches through an inverted list (PII baseline).
  bool clustered = true;
  /// Concurrent shard probes a scatter-gather path can overlap (>= 1).
  /// Single-index paths report 1; a partitioned path reports its gather
  /// parallelism so the planner divides index-probe candidates by the
  /// per-query fan-out actually running in parallel.
  double gather_width = 1.0;
};

class AccessPath {
 public:
  virtual ~AccessPath() = default;

  virtual const std::string& name() const = 0;
  virtual const catalog::Schema& schema() const = 0;
  virtual PathStats Stats() const = 0;

  // --- Writes (the in-memory mutation) -------------------------------------

  virtual Status Insert(const catalog::Tuple& tuple) = 0;
  /// Removes the tuple with `tuple`'s id.
  virtual Status Delete(const catalog::Tuple& tuple) = 0;

  // --- Physical reads (charge simulated I/O) --------------------------------
  //
  // Never null: an open that fails rides in the cursor's status(). Drain a
  // cursor before writing to the table it reads (see Table::OpenCursor).

  /// PTQ on the path's primary uncertain attribute. Streaming paths defer
  /// later phases (e.g. cutoff-pointer fetches) until the consumer drains
  /// that far.
  virtual std::unique_ptr<ResultCursor> OpenPtq(std::string_view value,
                                                double qt) const = 0;

  /// Direct top-k on the primary attribute: at most k rows, highest
  /// confidence first. NotSupported unless Stats().supports_direct_topk.
  virtual std::unique_ptr<ResultCursor> OpenTopK(std::string_view value,
                                                 size_t k) const = 0;

  /// Probe through a secondary index on `column`. Paths without pointer
  /// tailoring ignore `mode`.
  virtual std::unique_ptr<ResultCursor> OpenSecondary(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const = 0;

  /// Full sequential sweep; `fn` is called exactly once per live tuple (heap
  /// duplicates are deduplicated here) with a view of its serialized bytes,
  /// validated and valid during the call: read one column or decode it
  /// (catalog::TupleView), and copy it (catalog::EncodedTuple) to keep it.
  virtual Status ScanTuples(
      const std::function<void(catalog::TupleView)>& fn) const = 0;

  /// Sweep in service of a scan-filter on (column, value, qt): same
  /// semantics over every tuple that could match, but paths with pruning
  /// metadata (the Fractured UPI's per-fracture summaries) skip storage
  /// units that provably cannot contain a qualifying alternative. Defaults
  /// to the plain ScanTuples. column < 0 means the primary attribute.
  virtual Status ScanTuplesMatching(
      int column, std::string_view value, double qt,
      const std::function<void(catalog::TupleView)>& fn) const {
    (void)column, (void)value, (void)qt;
    return ScanTuples(fn);
  }

  virtual bool HasSecondary(int column) const {
    (void)column;
    return false;
  }

  /// Schema column the primary probe filters on (-1 when N/A).
  virtual int primary_column() const { return -1; }

  /// The underlying table's stats epoch (see core::Upi::stats_epoch);
  /// prepared-plan caches re-plan when it moves. 0 = path never changes.
  virtual uint64_t StatsEpoch() const { return 0; }

  // --- Estimation hooks (RAM only, no simulated I/O) -----------------------

  /// Section 6.1 estimate for a primary-attribute PTQ.
  virtual histogram::PtqEstimate EstimatePtq(std::string_view value,
                                             double qt) const = 0;

  /// Expected secondary-index entries matching (value, qt) on `column` — the
  /// pointer count fed into the Section 6.3 sigmoid. 0 when unknown.
  virtual double EstimateSecondaryMatches(int column, std::string_view value,
                                          double qt) const {
    (void)column, (void)value, (void)qt;
    return 0.0;
  }

  /// Expected fan-out of a probe on (column, value, qt) after pruning: how
  /// many shards and fractures the query will actually open, and their heap
  /// bytes. column < 0 means the primary attribute. The default — one shard,
  /// every fracture, full table bytes — is what paths without pruning
  /// metadata do; the Fractured UPI consults its per-fracture summaries,
  /// replacing the planner's Nfrac with the expected-probed count, and the
  /// partitioned table adds its per-shard summaries on top.
  virtual core::PruneEstimate EstimatePrune(int column, std::string_view value,
                                            double qt) const;

  /// Average heap pointers per secondary entry on `column` (>= 1): the
  /// tailored-access overlap opportunity.
  virtual double SecondaryAvgPointers(int column) const {
    (void)column;
    return 1.0;
  }

  /// Histogram-suggested threshold of the k-th best answer (Section 9's
  /// estimated-threshold top-k strategy); 0 when unknown.
  virtual double EstimateTopKThreshold(std::string_view value,
                                       size_t k) const {
    (void)value, (void)k;
    return 0.0;
  }
};

/// Adapter over a clustered UPI (Section 3).
class UpiAccessPath : public AccessPath {
 public:
  explicit UpiAccessPath(std::unique_ptr<core::Upi> upi)
      : upi_(std::move(upi)) {}

  const std::string& name() const override { return upi_->name(); }
  const catalog::Schema& schema() const override { return upi_->schema(); }
  PathStats Stats() const override;
  Status Insert(const catalog::Tuple& tuple) override;
  Status Delete(const catalog::Tuple& tuple) override;

  /// Streams Algorithm 2 (core::Upi::OpenPtq).
  std::unique_ptr<ResultCursor> OpenPtq(std::string_view value,
                                        double qt) const override;
  /// Streams the value's heap region (cutoff pointers only if it runs
  /// short of k); stops after k rows (core::Upi::OpenTopK).
  std::unique_ptr<ResultCursor> OpenTopK(std::string_view value,
                                         size_t k) const override;
  /// Eager: Algorithm 3 (or first-pointer) fetch in heap order
  /// (core::Upi::OpenSecondary).
  std::unique_ptr<ResultCursor> OpenSecondary(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const override;
  Status ScanTuples(
      const std::function<void(catalog::TupleView)>& fn) const override;

  uint64_t StatsEpoch() const override { return upi_->stats_epoch(); }

  bool HasSecondary(int column) const override;
  int primary_column() const override { return upi_->options().cluster_column; }
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  double SecondaryAvgPointers(int column) const override;
  double EstimateTopKThreshold(std::string_view value, size_t k) const override;

  core::Upi* upi() const { return upi_.get(); }

 private:
  std::unique_ptr<core::Upi> upi_;
};

/// Adapter over a Fractured UPI (Section 4). Queries fan out across
/// fractures — pruned through the per-fracture summaries (zone maps, Bloom
/// fences, max-probability cutoffs) unless UpiOptions::enable_pruning is
/// off; the estimation hooks aggregate per-fracture stats and histograms
/// under the table's shared lock, so planning (like querying) is safe while
/// background maintenance workers merge underneath.
class FracturedAccessPath : public AccessPath {
 public:
  /// Every write notifies `manager` (null = no background maintenance), which
  /// the table's owner registers the table with.
  FracturedAccessPath(std::unique_ptr<core::FracturedUpi> table,
                      maintenance::MaintenanceManager* manager)
      : table_(std::move(table)), manager_(manager) {}

  const std::string& name() const override;
  const catalog::Schema& schema() const override { return table_->schema(); }
  PathStats Stats() const override;
  Status Insert(const catalog::Tuple& tuple) override;
  Status Delete(const catalog::Tuple& tuple) override;

  /// Streams the pruned fan-out, fractures opened lazily. Holds the table's
  /// shared lock until destroyed (see core::FracturedUpi::OpenPtq): drain
  /// promptly and never write to this table while one is open.
  std::unique_ptr<ResultCursor> OpenPtq(std::string_view value,
                                        double qt) const override;
  /// Eager: FracturedUpi::OpenTopK's bounded fan-out.
  std::unique_ptr<ResultCursor> OpenTopK(std::string_view value,
                                         size_t k) const override;
  /// Eager: the pruned secondary fan-out.
  std::unique_ptr<ResultCursor> OpenSecondary(
      int column, std::string_view value, double qt,
      core::SecondaryAccessMode mode) const override;
  Status ScanTuples(
      const std::function<void(catalog::TupleView)>& fn) const override;
  Status ScanTuplesMatching(
      int column, std::string_view value, double qt,
      const std::function<void(catalog::TupleView)>& fn) const override;

  uint64_t StatsEpoch() const override { return table_->stats_epoch(); }
  core::PruneEstimate EstimatePrune(int column, std::string_view value,
                                    double qt) const override {
    return table_->EstimatePrune(column, value, qt);
  }

  bool HasSecondary(int column) const override;
  int primary_column() const override {
    return table_->options().cluster_column;
  }
  histogram::PtqEstimate EstimatePtq(std::string_view value,
                                     double qt) const override;
  double EstimateSecondaryMatches(int column, std::string_view value,
                                  double qt) const override;
  double SecondaryAvgPointers(int column) const override;
  double EstimateTopKThreshold(std::string_view value, size_t k) const override;

  core::FracturedUpi* fractured() const { return table_.get(); }

 private:
  std::unique_ptr<core::FracturedUpi> table_;
  maintenance::MaintenanceManager* manager_ = nullptr;
};

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
