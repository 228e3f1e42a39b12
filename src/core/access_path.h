// The physical-access interface every table design implements.
//
// Every concrete layout in this codebase — the clustered UPI (Section 3,
// core/upi.h), the Fractured UPI (Section 4, core/fractured_upi.h), the
// PII-over-unclustered-heap baseline (Section 7.2,
// baseline/unclustered_table.h) and the horizontally partitioned table
// (engine/partition.h) — answers the same logical requests: probabilistic
// threshold queries, top-k, secondary probes. AccessPath is the common
// interface the executor and the cost-based QueryPlanner work against, and
// every design implements it itself, planner statistics included. Every
// probe returns the design's own ResultCursor (core/result_cursor.h), so one
// cursor protocol runs from the B-tree leaf to the Session. Streaming
// cursors (clustered PTQ and top-k, the Fractured PTQ fan-out, the PII PTQ)
// pay for each row as it is pulled; eager ones (secondary probes, the
// fractured and PII top-k, every partitioned gather) computed every row at
// open. The path is also the table's write path:
// Insert/Delete are the in-memory mutation (engine::Table journals to the WAL
// first). The estimation hooks are RAM-only so the planner never spends
// simulated disk time to make a decision.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/status.h"
#include "core/cost_model.h"
#include "core/fracture_summary.h"
#include "core/result_cursor.h"
#include "histogram/selectivity.h"

namespace upi::core {

/// How a query uses secondary-index pointers (Figure 6's three curves are
/// PII-on-heap vs. these two modes).
enum class SecondaryAccessMode {
  kFirstPointer,  // always follow the highest-probability pointer
  kTailored,      // Algorithm 3: prefer heap regions already being read
};

/// Everything the planner needs to know about a path's physical shape.
/// Assembled fresh on each call so it tracks maintenance (merges change
/// Nfrac, inserts grow the heap).
struct PathStats {
  TableStats table;              // heap footprint, Nleaf, H, Nfrac
  double cutoff = 0.0;           // the cutoff threshold C (0 when N/A)
  uint64_t heap_entries = 0;     // heap entries across all fractures
  uint64_t num_tuples = 0;
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

  /// Serialized heap entry footprint: heap bytes per heap entry.
  double avg_entry_bytes() const {
    return heap_entries == 0 ? 0.0
                             : static_cast<double>(table.table_bytes) /
                                   static_cast<double>(heap_entries);
  }
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
      SecondaryAccessMode mode) const = 0;

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

  virtual bool HasSecondary(int column) const = 0;

  /// Schema column the primary probe filters on.
  virtual int primary_column() const = 0;

  /// Monotonic counter bumped whenever the cost-model inputs move (every
  /// Insert/Delete, and a Fractured UPI's flushes and merge installs);
  /// prepared-plan caches re-plan when it moves.
  virtual uint64_t StatsEpoch() const = 0;

  // --- Estimation hooks (RAM only, no simulated I/O) -----------------------

  /// Section 6.1 estimate for a primary-attribute PTQ.
  virtual histogram::PtqEstimate EstimatePtq(std::string_view value,
                                             double qt) const = 0;

  /// Expected secondary-index entries matching (value, qt) on `column` — the
  /// pointer count fed into the Section 6.3 sigmoid. 0 when no index exists.
  virtual double EstimateSecondaryMatches(int column, std::string_view value,
                                          double qt) const = 0;

  /// Expected fan-out of a probe on (column, value, qt) after pruning: how
  /// many shards and fractures the query will actually open, and their heap
  /// bytes. column < 0 means the primary attribute. The default — one shard,
  /// every fracture, full table bytes — is what paths without pruning
  /// metadata do; the Fractured UPI consults its per-fracture summaries,
  /// replacing the planner's Nfrac with the expected-probed count, and the
  /// partitioned table adds each shard's own fences on top.
  virtual PruneEstimate EstimatePrune(int column, std::string_view value,
                                      double qt) const {
    (void)column, (void)value, (void)qt;
    PathStats s = Stats();
    PruneEstimate pe;
    pe.total_fractures = s.table.num_fractures > 0 ? s.table.num_fractures : 1;
    pe.probed_fractures = static_cast<double>(pe.total_fractures);
    pe.probed_bytes = s.table.table_bytes;
    return pe;
  }

  /// Average heap pointers per secondary entry on `column` (>= 1): the
  /// tailored-access overlap opportunity.
  virtual double SecondaryAvgPointers(int column) const {
    (void)column;
    return 1.0;
  }

  /// Histogram-suggested threshold of the k-th best answer (Section 9's
  /// estimated-threshold top-k strategy); 0 when unknown.
  virtual double EstimateTopKThreshold(std::string_view value,
                                       size_t k) const = 0;
};

}  // namespace upi::core
