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
// All three read through the cursor the table's design returns
// (core::ResultCursor, core/result_cursor.h): the executor caps and filters
// it, and Run drains it. Run and Execute append to the caller's vector.
//
// A result row (core::PtqMatch) is its id, its confidence and its tuple's
// serialized bytes: `row.tuple.Column(i)` decodes one column,
// `row.tuple.Decode()` the whole tuple. A row that Run, Execute or a Session
// future returns owns its bytes, so it stays readable after the cursor, a
// flush or a merge.
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
#include "core/result_cursor.h"
#include "obs/metrics.h"

namespace upi::sim {
class SimDisk;
}
namespace upi::obs {
class SlowQueryLog;
}
namespace upi::core {
class AccessPath;
struct PathStats;
}

namespace upi::engine {

/// The one read contract starts at the designs (core/result_cursor.h,
/// core/access_path.h); the engine plans and serves the same types.
using core::AccessPath;
using core::MaterializedCursor;
using core::PathStats;
using core::ResultCursor;
using core::RowView;

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
  /// Optional residual filter, applied to every candidate row. Rows stay
  /// encoded (core::PtqMatch), so each candidate's tuple is decoded once
  /// for it: a Where costs a full decode per candidate.
  std::function<bool(const catalog::Tuple&)> predicate;

  static Query Ptq(std::string_view value, double qt);
  static Query Secondary(int column, std::string_view value, double qt);
  static Query TopK(std::string_view value, size_t k);
  static Query ScanFilter(int column, std::string_view value, double qt);

  Query&& WithLimit(size_t n) &&;
  /// Sets the residual predicate (see `predicate`: it decodes each
  /// candidate row's tuple once).
  Query&& Where(std::function<bool(const catalog::Tuple&)> pred) &&;

  /// Shape-level validation against a concrete path (no I/O).
  Status Validate(const AccessPath& path) const;
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

  /// Materialized execution: appends this execution's rows to `out`, after
  /// whatever it already holds, sorted by descending confidence with top-k /
  /// LIMIT applied (exec::Execute). Returns the plan it ran.
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
