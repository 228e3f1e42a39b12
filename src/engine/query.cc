#include "engine/query.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>

#include "core/access_path.h"
#include "engine/planner.h"
#include "exec/cursor.h"
#include "exec/operators.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "sim/sim_disk.h"
#include "sync/sync.h"

namespace upi::engine {

// ---------------------------------------------------------------------------
// ExecInstruments / InstrumentedExecute
// ---------------------------------------------------------------------------

void ExecInstruments::RegisterMetrics(obs::MetricsRegistry* registry) {
  queries_total = registry->counter("upi_query_executions_total");
  slow_queries_total = registry->counter("upi_query_slow_total");
  plan_cache_hits = registry->counter("upi_plan_cache_hits_total");
  plan_cache_misses = registry->counter("upi_plan_cache_misses_total");
  plan_cache_invalidations =
      registry->counter("upi_plan_cache_invalidations_total");
  query_sim_ms = registry->histogram("upi_query_sim_ms");
}

namespace {

/// The query shape + bound value, as the slow-query log prints it.
std::string DescribeBoundQuery(const Plan& plan) {
  char buf[160];
  if (plan.k > 0) {
    std::snprintf(buf, sizeof(buf), "top-%zu(\"%s\")", plan.k,
                  plan.value.c_str());
  } else if (plan.column >= 0) {
    std::snprintf(buf, sizeof(buf), "secondary(col=%d, \"%s\", qt=%.2f)",
                  plan.column, plan.value.c_str(), plan.qt);
  } else {
    std::snprintf(buf, sizeof(buf), "ptq(\"%s\", qt=%.2f)", plan.value.c_str(),
                  plan.qt);
  }
  return buf;
}

}  // namespace

Status InstrumentedExecute(const AccessPath& path, const Plan& plan,
                           const ExecInstruments* ins,
                           std::function<bool(const catalog::Tuple&)> predicate,
                           std::vector<core::PtqMatch>* out) {
  if (ins == nullptr || ins->disk == nullptr) {
    return exec::Execute(path, plan, out, std::move(predicate));
  }
  if (ins->queries_total != nullptr) ins->queries_total->Add();
  // The slow log wants per-operator actuals, which only exist if a trace was
  // active while the query ran — but a slow query is only known to be slow
  // afterwards. So when armed, run every execution under a local trace (the
  // recording cost is a few thread-stats snapshots); an already-active outer
  // trace (ExplainAnalyze) is left in place and the entry skipped — that
  // caller owns the trace.
  const bool arm_slow = ins->slow_log != nullptr && ins->slow_query_ms > 0.0 &&
                        obs::CurrentTrace() == nullptr;
  obs::QueryTrace trace;
  trace.disk = ins->disk;
  std::optional<obs::TraceScope> scope;
  if (arm_slow) scope.emplace(&trace);

  sim::ThreadStatsWindow window(ins->disk);
  const size_t rows_before = out->size();
  Status st = exec::Execute(path, plan, out, std::move(predicate));
  const sim::DiskStats delta = window.Delta();
  const double sim_ms = delta.SimMs(ins->disk->params());
  if (ins->query_sim_ms != nullptr) ins->query_sim_ms->Record(sim_ms);

  if (st.ok() && arm_slow && sim_ms >= ins->slow_query_ms) {
    if (ins->slow_queries_total != nullptr) ins->slow_queries_total->Add();
    trace.total = delta;
    trace.total_sim_ms = sim_ms;
    trace.rows = out->size() - rows_before;
    obs::SlowQueryEntry entry;
    entry.table = plan.table;
    entry.query = DescribeBoundQuery(plan);
    entry.plan = PlanKindName(plan.kind);
    entry.predicted_ms = plan.predicted_ms;
    entry.sim_ms = sim_ms;
    entry.threshold_ms = ins->slow_query_ms;
    entry.rows = trace.rows;
    entry.trace = std::move(trace);
    ins->slow_log->Record(std::move(entry));
  }
  return st;
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

Query Query::Ptq(std::string_view value, double qt) {
  Query q;
  q.kind = Kind::kPtq;
  q.value = std::string(value);
  q.qt = qt;
  return q;
}

Query Query::Secondary(int column, std::string_view value, double qt) {
  Query q;
  q.kind = Kind::kSecondary;
  q.column = column;
  q.value = std::string(value);
  q.qt = qt;
  return q;
}

Query Query::TopK(std::string_view value, size_t k) {
  Query q;
  q.kind = Kind::kTopK;
  q.value = std::string(value);
  q.k = k;
  return q;
}

Query Query::ScanFilter(int column, std::string_view value, double qt) {
  Query q;
  q.kind = Kind::kScanFilter;
  q.column = column;
  q.value = std::string(value);
  q.qt = qt;
  return q;
}

Query&& Query::WithLimit(size_t n) && {
  limit = n;
  return std::move(*this);
}

Query&& Query::Where(std::function<bool(const catalog::Tuple&)> pred) && {
  predicate = std::move(pred);
  return std::move(*this);
}

Status Query::Validate(const AccessPath& path) const {
  if (qt < 0.0 || qt > 1.0) {
    return Status::InvalidArgument("threshold must be in [0, 1]");
  }
  size_t columns = path.schema().num_columns();
  switch (kind) {
    case Kind::kPtq:
      return Status::OK();
    case Kind::kSecondary:
    case Kind::kScanFilter:
      if (column < 0 || static_cast<size_t>(column) >= columns) {
        return Status::InvalidArgument("target column out of range");
      }
      return Status::OK();
    case Kind::kTopK:
      if (k == 0) return Status::InvalidArgument("top-k needs k > 0");
      return Status::OK();
  }
  return Status::Internal("unknown query kind");
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

namespace detail {
struct PreparedState {
  const AccessPath* path = nullptr;
  const QueryPlanner* planner = nullptr;
  const ExecInstruments* instruments = nullptr;  // null = uninstrumented
  Query query;

  /// Cache key: (quantized threshold, parameter histogram bucket, expected
  /// probed-fracture count). The prune coordinate keeps a plan priced for a
  /// heavily-pruned value from being reused by a same-cardinality value
  /// that probes every fracture (and vice versa). Guarded by mu; cleared
  /// wholesale when the table's stats epoch moves.
  mutable sync::Mutex mu{sync::LockRank::kPlanCache};
  mutable std::map<std::tuple<int, int, int>, std::shared_ptr<const Plan>>
      cache;
  mutable uint64_t epoch = 0;
  mutable uint64_t plans = 0;
  mutable uint64_t hits = 0;

  std::shared_ptr<const Plan> PlanFor(std::string_view value, double qt) const;
};
}  // namespace detail

namespace {

/// Log-scale bucket of an estimated cardinality: parameters whose estimates
/// differ by less than ~2x land in the same bucket and share a plan.
int CardinalityBucket(double estimate) {
  if (estimate <= 0.0) return -1;
  return static_cast<int>(std::log2(estimate + 1.0));
}

}  // namespace

std::shared_ptr<const Plan> detail::PreparedState::PlanFor(
    std::string_view value, double qt) const {
  // The parameter's histogram bucket: the same RAM-only statistics the
  // planner prices with, reduced to one coordinate. Far cheaper than a full
  // planning pass (no Stats() assembly, no candidate sweep math).
  int bucket = -1;
  double topk_qt = 0.0;
  int prune = 0;
  switch (query.kind) {
    case Query::Kind::kPtq: {
      histogram::PtqEstimate est = path->EstimatePtq(value, qt);
      bucket = CardinalityBucket(est.heap_entries + est.cutoff_pointers);
      prune = static_cast<int>(
          std::lround(path->EstimatePrune(-1, value, qt).probed_fractures));
      break;
    }
    case Query::Kind::kScanFilter:
      // A forced sweep's plan shape is parameter-independent, but its
      // pruned fan-out (and Explain numbers) are not.
      bucket = 0;
      prune = static_cast<int>(std::lround(
          path->EstimatePrune(query.column, value, qt).probed_fractures));
      break;
    case Query::Kind::kSecondary:
      bucket = CardinalityBucket(
          path->EstimateSecondaryMatches(query.column, value, qt));
      prune = static_cast<int>(std::lround(
          path->EstimatePrune(query.column, value, qt).probed_fractures));
      break;
    case Query::Kind::kTopK:
      // Top-k plans embed the starting threshold, so bucket on it directly.
      topk_qt = path->EstimateTopKThreshold(value, query.k);
      bucket = static_cast<int>(std::lround(topk_qt * 32.0));
      prune = static_cast<int>(
          std::lround(path->EstimatePrune(-1, value, 0.0).probed_fractures));
      break;
  }
  std::tuple<int, int, int> key{static_cast<int>(std::lround(qt * 32.0)),
                                bucket, prune};

  uint64_t now = path->StatsEpoch();
  std::shared_ptr<const Plan> base;
  {
    std::lock_guard<sync::Mutex> lock(mu);
    if (now != epoch) {
      // Insert/Delete or a maintenance flush/merge moved the cost inputs:
      // every cached plan is potentially wrong. Re-plan on demand.
      cache.clear();
      epoch = now;
      if (instruments != nullptr &&
          instruments->plan_cache_invalidations != nullptr) {
        instruments->plan_cache_invalidations->Add();
      }
    }
    if (auto it = cache.find(key); it != cache.end()) {
      ++hits;
      base = it->second;
    }
  }
  if (instruments != nullptr) {
    obs::Counter* c = base != nullptr ? instruments->plan_cache_hits
                                      : instruments->plan_cache_misses;
    if (c != nullptr) c->Add();
  }
  if (base == nullptr) {
    // Plan outside the lock: a full planning pass reads table stats and
    // histograms, and a write-heavy table re-plans often — concurrent
    // sessions must not serialize through the cache mutex for it. A racing
    // Bind may plan the same bucket twice; first one in wins the slot.
    Query bound = query;
    bound.value = std::string(value);
    bound.qt = qt;
    base = std::make_shared<const Plan>(planner->PlanQuery(bound));
    std::lock_guard<sync::Mutex> lock(mu);
    ++plans;
    if (epoch == now) {
      auto [it, inserted] = cache.emplace(key, base);
      if (!inserted) base = it->second;
    }
  }
  if (base->value == value && base->qt == qt &&
      query.kind != Query::Kind::kTopK) {
    return base;
  }
  // Re-bind the cached plan to this call's parameter: a cheap copy (the
  // candidate list is shared), with the top-k starting threshold refreshed
  // from this value's histogram — the same choice PlanTopK would make.
  auto rebound = std::make_shared<Plan>(*base);
  rebound->value = std::string(value);
  rebound->qt = qt;
  if (query.kind == Query::Kind::kTopK) {
    rebound->initial_qt = rebound->kind == PlanKind::kTopKDecreasingThreshold
                              ? 0.5
                              : (topk_qt > 0 ? topk_qt : 0.25);
  }
  return rebound;
}

PreparedQuery::PreparedQuery(const AccessPath* path, const QueryPlanner* planner,
                             Query q, const ExecInstruments* instruments)
    : impl_(std::make_shared<detail::PreparedState>()) {
  impl_->path = path;
  impl_->planner = planner;
  impl_->instruments = instruments;
  impl_->query = std::move(q);
  impl_->epoch = path->StatsEpoch();
}

const Query& PreparedQuery::query() const { return impl_->query; }

BoundQuery PreparedQuery::Bind(std::string_view value) const {
  return Bind(value, impl_->query.qt);
}

BoundQuery PreparedQuery::Bind(std::string_view value, double qt) const {
  return BoundQuery(impl_, impl_->PlanFor(value, qt));
}

uint64_t PreparedQuery::plans() const {
  std::lock_guard<sync::Mutex> lock(impl_->mu);
  return impl_->plans;
}

uint64_t PreparedQuery::hits() const {
  std::lock_guard<sync::Mutex> lock(impl_->mu);
  return impl_->hits;
}

// ---------------------------------------------------------------------------
// BoundQuery
// ---------------------------------------------------------------------------

Result<Plan> BoundQuery::Execute(std::vector<core::PtqMatch>* out) const {
  UPI_RETURN_NOT_OK(InstrumentedExecute(*state_->path, *plan_,
                                        state_->instruments,
                                        state_->query.predicate, out));
  return *plan_;
}

Result<std::unique_ptr<ResultCursor>> BoundQuery::OpenCursor() const {
  return exec::OpenCursor(*state_->path, *plan_, state_->query.predicate);
}

}  // namespace upi::engine
