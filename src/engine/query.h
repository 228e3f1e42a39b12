// The declarative query surface of the engine.
//
// A Query is a value describing *what* the caller wants — point threshold
// query, secondary probe, top-k, or scan-filter, plus an optional LIMIT and
// residual predicate — with no commitment to *how* it runs; the cost-based
// planner picks the access path per execution. Three ways to run one:
//
//   table->Run(q, &rows)          plan + execute, materialized (one-shot)
//   table->OpenCursor(q)          plan + stream rows on demand (pull-based);
//                                 LIMIT/top-k consumers stop the underlying
//                                 descent early instead of materializing
//   table->Prepare(q)             plan once, re-execute with bound
//                                 parameters: pq.Bind(value).Execute(&rows)
//
// PreparedQuery caches the Plan keyed on the query shape plus the bound
// parameter's histogram bucket (two values the statistics consider alike
// share a plan), and invalidates on the table's stats epoch — the counter
// Insert/Delete and maintenance flushes/merges bump — so re-planning happens
// exactly when the cost-model inputs move.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/tuple.h"
#include "common/status.h"
#include "core/upi.h"  // core::PtqMatch
#include "obs/metrics.h"

namespace upi::sim {
class SimDisk;
}
namespace upi::obs {
class SlowQueryLog;
}

namespace upi::engine {

class AccessPath;
class QueryPlanner;
struct Plan;

/// Shared observability hooks for query execution, owned by the Database and
/// handed by pointer to every Table and PreparedQuery it creates. All fields
/// are optional (null/0 disables that hook), so paths constructed without a
/// Database — unit tests, hand-built benches — run uninstrumented with zero
/// overhead. Configure before serving traffic; the hot path reads these
/// fields unsynchronized.
struct ExecInstruments {
  /// Device whose thread stripes time query executions.
  const sim::SimDisk* disk = nullptr;
  /// Slow-query sink; armed only when slow_query_ms > 0.
  obs::SlowQueryLog* slow_log = nullptr;
  double slow_query_ms = 0.0;

  obs::Counter* queries_total = nullptr;
  obs::Counter* slow_queries_total = nullptr;
  obs::Counter* plan_cache_hits = nullptr;
  obs::Counter* plan_cache_misses = nullptr;
  obs::Counter* plan_cache_invalidations = nullptr;
  obs::Histogram* query_sim_ms = nullptr;

  /// Fills the metric pointers from `registry` (names upi_query_* /
  /// upi_plan_cache_*).
  void RegisterMetrics(obs::MetricsRegistry* registry);
};

/// exec::Execute wrapped in the engine's instrumentation: counts the query,
/// attributes its simulated cost via a scoped thread-stats delta, and — when
/// the slow-query log is armed and no outer trace is active — records a
/// per-operator QueryTrace for entries that cross the threshold. With
/// `ins == nullptr` this is exactly exec::Execute.
Status InstrumentedExecute(const AccessPath& path, const Plan& plan,
                           const ExecInstruments* ins,
                           std::function<bool(const catalog::Tuple&)> predicate,
                           std::vector<core::PtqMatch>* out);

/// One declarative query. Build with the factories; chain WithLimit/Where.
struct Query {
  enum class Kind { kPtq, kSecondary, kTopK, kScanFilter };

  Kind kind = Kind::kPtq;
  /// Target column: the secondary / scan-filter column, or -1 for the path's
  /// primary uncertain attribute.
  int column = -1;
  /// The probe value. May be empty at Prepare() time — it is the parameter
  /// that Bind() supplies per execution.
  std::string value;
  /// Quality threshold (ignored by top-k).
  double qt = 0.5;
  /// Top-k result count.
  size_t k = 0;
  /// Stop after this many rows (0 = all). Cursor consumers stop the
  /// underlying descent; materialized execution truncates after the
  /// confidence sort.
  size_t limit = 0;
  /// Optional residual filter, applied to every candidate row.
  std::function<bool(const catalog::Tuple&)> predicate;

  static Query Ptq(std::string_view value, double qt);
  static Query Secondary(int column, std::string_view value, double qt);
  static Query TopK(std::string_view value, size_t k);
  static Query ScanFilter(int column, std::string_view value, double qt);

  Query&& WithLimit(size_t n) &&;
  Query&& Where(std::function<bool(const catalog::Tuple&)> pred) &&;

  /// Shape-level validation against a concrete path (no I/O).
  Status Validate(const AccessPath& path) const;
};

/// A borrowed view of the cursor's current row; valid until the next
/// Next()/TakeNext() call or cursor destruction.
struct RowView {
  catalog::TupleId id = 0;
  double confidence = 0.0;
  const catalog::Tuple* tuple = nullptr;
};

/// Pull-based result stream: the one physical read interface (every
/// AccessPath probe and every executed Plan answers through one).
/// Implementations either stream straight off the storage structures
/// (clustered PTQ and top-k, the Fractured PTQ fan-out, PII probes), paying
/// for each row as it is pulled, or are eager: every row was computed, and
/// its I/O charged, at open (MaterializedCursor, which also serves the
/// partitioned gather). The base class enforces the row limit and the residual predicate so every
/// producer stays simple.
///
/// Streaming cursors read live index pages: drain them before writing to
/// the table (see Table::OpenCursor for the full lifetime contract).
class ResultCursor {
 public:
  virtual ~ResultCursor() = default;

  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;

  /// Views the next row; false at end of stream or error (check status()).
  bool Next(RowView* row);

  /// Moves the next row out (avoids a tuple copy when the caller keeps it).
  bool TakeNext(core::PtqMatch* match);

  /// Moves every remaining row onto the end of `out`; returns status().
  Status Drain(std::vector<core::PtqMatch>* out);

  /// True when every row was computed at open: pulling reads nothing more,
  /// so a predicate cannot make the producer fetch rows past its bound.
  virtual bool eager() const { return false; }

  const Status& status() const { return status_; }
  /// Rows handed to the consumer so far.
  size_t rows_returned() const { return rows_; }

  /// Caps the rows this cursor returns (0 = unlimited). Set before pulling.
  void SetLimit(size_t limit) { limit_ = limit; }

  /// Residual filter; rows failing it are skipped (and not counted against
  /// the limit).
  void SetPredicate(std::function<bool(const catalog::Tuple&)> pred) {
    predicate_ = std::move(pred);
  }

 protected:
  ResultCursor() = default;

  /// Produces the next raw row, pre-limit/predicate. False = end or error
  /// (set status_ before returning false on error).
  virtual bool Produce(core::PtqMatch* out) = 0;

  Status status_;

 private:
  bool Advance();

  size_t limit_ = 0;  // 0 = unlimited
  std::function<bool(const catalog::Tuple&)> predicate_;
  core::PtqMatch slot_;
  size_t rows_ = 0;
};

/// Eager cursor over a result set computed at open, served in descending
/// confidence (ties by TupleId). A non-OK `status` — the computation failed
/// after charging its I/O — makes it produce nothing.
class MaterializedCursor : public ResultCursor {
 public:
  explicit MaterializedCursor(std::vector<core::PtqMatch> rows,
                              Status status = Status::OK());

  /// Runs `compute(&rows)` now and serves what it produced (or its error).
  template <typename Fn>
  static std::unique_ptr<ResultCursor> Of(Fn&& compute) {
    std::vector<core::PtqMatch> rows;
    Status st = compute(&rows);
    return std::make_unique<MaterializedCursor>(std::move(rows),
                                                std::move(st));
  }

  bool eager() const override { return true; }

 private:
  bool Produce(core::PtqMatch* out) override;

  std::vector<core::PtqMatch> rows_;
  size_t idx_ = 0;
};

class PreparedQuery;

namespace detail {
struct PreparedState;  // the shared plan cache behind PreparedQuery
}

/// A prepared query with its parameter bound: holds the (cached or freshly
/// planned) Plan for this parameter and executes it on demand. Shares
/// ownership of the prepared state, so it stays valid past the PreparedQuery
/// handle it came from.
class BoundQuery {
 public:
  /// The plan this execution will use (EXPLAIN it before running).
  const Plan& plan() const { return *plan_; }

  /// Materialized execution: rows sorted by descending confidence, top-k /
  /// LIMIT applied. Returns the plan it ran.
  Result<Plan> Execute(std::vector<core::PtqMatch>* out) const;

  /// Streaming execution; see Table::OpenCursor for ordering semantics.
  Result<std::unique_ptr<ResultCursor>> OpenCursor() const;

 private:
  friend class PreparedQuery;
  BoundQuery(std::shared_ptr<const detail::PreparedState> state,
             std::shared_ptr<const Plan> plan)
      : state_(std::move(state)), plan_(std::move(plan)) {}

  std::shared_ptr<const detail::PreparedState> state_;
  std::shared_ptr<const Plan> plan_;
};

/// Plan-once / execute-many handle produced by Table::Prepare(). Copyable
/// and thread-safe: copies share one plan cache, so any number of clients
/// (or Sessions) can Bind/Execute concurrently.
class PreparedQuery {
 public:
  const Query& query() const;

  /// Binds the parameter value: looks the plan up in the cache (planning
  /// only on a miss or after a stats-epoch change) and returns the bound
  /// execution handle.
  BoundQuery Bind(std::string_view value) const;

  /// Bind with a per-execution threshold override (same plan-cache rules;
  /// the threshold is part of the cache key).
  BoundQuery Bind(std::string_view value, double qt) const;

  /// Cache telemetry: full plannings performed / cache hits served.
  uint64_t plans() const;
  uint64_t hits() const;

 private:
  friend class Table;
  PreparedQuery(const AccessPath* path, const QueryPlanner* planner, Query q,
                const ExecInstruments* instruments = nullptr);

  std::shared_ptr<detail::PreparedState> impl_;
};

}  // namespace upi::engine
