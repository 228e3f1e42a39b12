#include "engine/database.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "common/check.h"
#include "exec/cursor.h"
#include "exec/operators.h"

namespace upi::engine {

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

Result<Plan> Table::Run(const Query& q, std::vector<core::PtqMatch>* out) const {
  UPI_RETURN_NOT_OK(q.Validate(*path_));
  Plan plan = planner_->PlanQuery(q);
  UPI_RETURN_NOT_OK(InstrumentedExecute(*path_, plan, instruments_,
                                        q.predicate, out));
  return plan;
}

Result<std::unique_ptr<ResultCursor>> Table::OpenCursor(const Query& q) const {
  UPI_RETURN_NOT_OK(q.Validate(*path_));
  Plan plan = planner_->PlanQuery(q);
  return exec::OpenCursor(*path_, plan, q.predicate);
}

Result<PreparedQuery> Table::Prepare(Query q) const {
  UPI_RETURN_NOT_OK(q.Validate(*path_));
  return PreparedQuery(path_.get(), planner_.get(), std::move(q),
                       instruments_);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

namespace {

std::string FormatAnalyzeOp(const obs::TraceOp& op) {
  char buf[256];
  char est[64] = "";
  if (op.est_pages >= 0.0) {
    std::snprintf(est, sizeof(est), "  (est rows=%.0f pages=%.0f)",
                  op.est_rows, op.est_pages);
  }
  // opens = Costinit charges: a fracture served from an open handle shows 0.
  std::snprintf(
      buf, sizeof(buf),
      "  -> %-28s rows=%-6llu pages=%-5llu seeks=%-4llu opens=%-2llu %9.2f "
      "ms%s%s\n",
      op.label.c_str(), static_cast<unsigned long long>(op.rows),
      static_cast<unsigned long long>(op.io.reads),
      static_cast<unsigned long long>(op.io.seeks),
      static_cast<unsigned long long>(op.io.file_opens), op.sim_ms,
      op.pruned ? "  [pruned]" : "", est);
  return buf;
}

}  // namespace

Result<Table::AnalyzeResult> Table::AnalyzeQuery(const Query& q) const {
  UPI_RETURN_NOT_OK(q.Validate(*path_));
  AnalyzeResult r;
  r.plan = planner_->PlanQuery(q);

  const sim::SimDisk* disk = db_->env()->disk();
  r.trace.disk = disk;
  {
    obs::TraceScope scope(&r.trace);
    sim::ThreadStatsWindow window(disk);
    UPI_RETURN_NOT_OK(exec::Execute(*path_, r.plan, &r.rows, q.predicate));
    r.trace.total = window.Delta();
  }
  r.trace.total_sim_ms = r.trace.total.SimMs(disk->params());
  r.trace.rows = r.rows.size();

  // The planner's whole-query expectations, from the same RAM statistics the
  // plan was priced with.
  PathStats s = path_->Stats();
  const double page_size = s.table.page_size > 0 ? s.table.page_size : 8192.0;
  const uint32_t height = s.table.btree_height > 0 ? s.table.btree_height : 1;
  const double qt = q.kind == Query::Kind::kTopK ? r.plan.initial_qt : q.qt;
  histogram::PtqEstimate est = path_->EstimatePtq(q.value, qt);
  core::PruneEstimate pe = path_->EstimatePrune(q.column, q.value, qt);
  switch (q.kind) {
    case Query::Kind::kPtq:
      r.est_rows = est.heap_entries + est.cutoff_pointers;
      r.est_pages = pe.probed_fractures * height +
                    est.heap_entries * s.avg_entry_bytes / page_size +
                    est.cutoff_pointers;
      break;
    case Query::Kind::kSecondary:
      r.est_rows = path_->EstimateSecondaryMatches(q.column, q.value, q.qt);
      r.est_pages = pe.probed_fractures * height +
                    r.est_rows * s.avg_entry_bytes / page_size;
      break;
    case Query::Kind::kTopK:
      r.est_rows = static_cast<double>(q.k);
      r.est_pages = pe.probed_fractures * height +
                    r.est_rows * s.avg_entry_bytes / page_size;
      break;
    case Query::Kind::kScanFilter:
      r.est_rows = est.heap_entries + est.cutoff_pointers;
      r.est_pages = static_cast<double>(pe.probed_bytes) / page_size;
      break;
  }

  // Spread the whole-query expectation uniformly over the probed operators
  // (the planner's own uniformity assumption); pruned nodes expect zero.
  size_t probed_ops = 0;
  for (const obs::TraceOp& op : r.trace.ops) {
    if (!op.pruned && (op.io.reads > 0 || op.io.seeks > 0)) ++probed_ops;
  }
  for (obs::TraceOp& op : r.trace.ops) {
    if (op.pruned) {
      op.est_rows = 0.0;
      op.est_pages = 0.0;
    } else if (probed_ops > 0 && (op.io.reads > 0 || op.io.seeks > 0)) {
      op.est_rows = r.est_rows / static_cast<double>(probed_ops);
      op.est_pages = r.est_pages / static_cast<double>(probed_ops);
    }
  }

  std::string text = r.plan.Explain();
  text += "ANALYZE\n";
  for (const obs::TraceOp& op : r.trace.ops) text += FormatAnalyzeOp(op);
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  total: rows=%llu pages=%llu seeks=%llu opens=%llu "
                "sim=%.2f ms  (est rows=%.0f pages=%.0f, predicted=%.1f ms)\n",
                static_cast<unsigned long long>(r.trace.rows),
                static_cast<unsigned long long>(r.trace.total.reads),
                static_cast<unsigned long long>(r.trace.total.seeks),
                static_cast<unsigned long long>(r.trace.total.file_opens),
                r.trace.total_sim_ms, r.est_rows, r.est_pages,
                r.plan.predicted_ms);
  text += buf;
  r.text = std::move(text);
  return r;
}

Result<std::string> Table::ExplainAnalyze(const Query& q) const {
  UPI_ASSIGN_OR_RETURN(AnalyzeResult r, AnalyzeQuery(q));
  return std::move(r.text);
}


Status Table::Insert(const catalog::Tuple& tuple) {
  wal::WalWriter* w = db_->wal();
  if (w == nullptr) return ApplyInsert(tuple);
  // Gate held shared across append + apply: the checkpoint's exclusive hold
  // is an atomic cut (never applied-but-unlogged or logged-but-unapplied).
  std::shared_lock<sync::SharedMutex> gate(w->gate());
  wal::Lsn lsn = w->Append(wal::EncodeInsert(name_, tuple));
  Status s = ApplyInsert(tuple);
  gate.unlock();
  w->Commit(lsn);  // may park on the group-commit condvar — no locks held
  db_->MaybeScheduleCheckpoint();
  return s;
}

Status Table::Delete(const catalog::Tuple& tuple) {
  wal::WalWriter* w = db_->wal();
  if (w == nullptr) return ApplyDelete(tuple);
  std::shared_lock<sync::SharedMutex> gate(w->gate());
  wal::Lsn lsn = w->Append(wal::EncodeDelete(name_, tuple));
  Status s = ApplyDelete(tuple);
  gate.unlock();
  w->Commit(lsn);
  db_->MaybeScheduleCheckpoint();
  return s;
}

Status Table::ApplyInsert(const catalog::Tuple& tuple) {
  switch (kind_) {
    case Kind::kUpi:
      return upi_->Insert(tuple);
    case Kind::kFractured: {
      UPI_RETURN_NOT_OK(fractured_->Insert(tuple));
      db_->maintenance()->NotifyWrite(fractured_.get());
      return Status::OK();
    }
    case Kind::kUnclustered:
      return unclustered_->Insert(tuple);
    case Kind::kPartitioned:
      // Routed to the owning shard; the table notifies maintenance itself.
      return partitioned_->Insert(tuple);
  }
  return Status::Internal("unknown table kind");
}

Status Table::ApplyDelete(const catalog::Tuple& tuple) {
  switch (kind_) {
    case Kind::kUpi:
      return upi_->Delete(tuple);
    case Kind::kFractured: {
      UPI_RETURN_NOT_OK(fractured_->Delete(tuple.id()));
      db_->maintenance()->NotifyWrite(fractured_.get());
      return Status::OK();
    }
    case Kind::kUnclustered:
      return unclustered_->Delete(tuple.id());
    case Kind::kPartitioned:
      return partitioned_->Delete(tuple);
  }
  return Status::Internal("unknown table kind");
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Database::Database(DatabaseOptions options)
    : options_(options),
      profile_(options.device),
      env_(options.pool_bytes, profile_, options.pool_shards),
      slow_log_(options.slow_query_log_capacity),
      manager_(&env_, options.maintenance) {
  env_.metrics()->set_enabled(options.enable_metrics);
  instruments_.disk = env_.disk();
  instruments_.slow_log = &slow_log_;
  instruments_.slow_query_ms = options.slow_query_ms;
  instruments_.RegisterMetrics(env_.metrics());

  if (!options_.wal_dir.empty()) {
    wal_path_ = options_.wal_dir + "/wal.log";
    auto read = wal::ReadLogFile(wal_path_);
    // A log that exists but is not a WAL is operator error, not crash
    // damage — refuse to silently overwrite it.
    UPI_CHECK(read.ok(), read.status().ToString().c_str());
    wal::LogContents log = std::move(read).value();
    if (!log.payloads.empty()) {
      // Replay with the writer unarmed (wal_ is still null, so the ops are
      // not re-journaled) and watermark notifications paused (the logged
      // maintenance records reproduce the original flush/merge sequence).
      manager_.SetNotifyPaused(true);
      sim::ThreadStatsWindow window(env_.disk());
      auto replayed = wal::Replay(this, log);
      UPI_CHECK(replayed.ok(), replayed.status().ToString().c_str());
      recovery_stats_ = std::move(replayed).value();
      recovery_stats_.sim_ms = window.Delta().SimMs(profile_.cost);
      manager_.SetNotifyPaused(false);
    }
    wal::WalWriterOptions wopts;
    wopts.path = wal_path_;
    wopts.mode = options_.wal_mode;
    wopts.group_window_us = options_.wal_group_window_us;
    auto writer = wal::WalWriter::Open(&env_, std::move(wopts),
                                       log.missing ? 0 : log.valid_bytes,
                                       recovery_stats_.records + 1);
    UPI_CHECK(writer.ok(), writer.status().ToString().c_str());
    wal_ = std::move(writer).value();
    if (!log.missing && log.valid_bytes > 0) {
      // Recovery scanned the whole surviving log once, sequentially.
      wal_->ChargeReplayRead();
    }
    env_.metrics()->gauge("upi_wal_recovery_ms")->Set(recovery_stats_.sim_ms);
    env_.metrics()
        ->counter("upi_wal_records_replayed_total")
        ->Add(recovery_stats_.records);
    manager_.SetCheckpointCallback([this] { return Checkpoint(); });
  }
}

Database::~Database() {
  // Stop maintenance before any table goes away (the manager's destructor
  // would do it too, but being explicit keeps the ordering obvious).
  for (auto& [name, table] : tables_) {
    if (table->fractured() != nullptr) manager_.Unregister(table->fractured());
    if (table->partitioned() != nullptr) table->partitioned()->UnregisterShards();
  }
  manager_.Stop();
}

GatherPool* Database::EnsureGatherPool() {
  if (gather_pool_ == nullptr && options_.gather_workers > 0) {
    size_t workers = options_.gather_workers;
    if (workers == kGatherWorkersAuto) {
      size_t hw = std::thread::hardware_concurrency();
      workers = std::clamp<size_t>(hw, 4, 16);
    }
    gather_pool_ = std::make_unique<GatherPool>(workers, env_.metrics());
  }
  return gather_pool_.get();
}

Result<Table*> Database::Install(std::unique_ptr<Table> table) {
  auto [it, inserted] = tables_.emplace(table->name_, std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first + "' already exists");
  }
  return it->second.get();
}

Result<Table*> Database::CreateUpiTable(
    const std::string& name, catalog::Schema schema, core::UpiOptions options,
    std::vector<int> secondary_columns,
    const std::vector<catalog::Tuple>& tuples) {
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::unique_ptr<Table>(new Table());
  table->name_ = name;
  table->kind_ = Table::Kind::kUpi;
  table->db_ = this;
  table->spec_.kind = wal::TableKind::kUpi;
  table->spec_.schema = schema;
  table->spec_.options = options;
  table->spec_.secondary_columns = secondary_columns;
  UPI_ASSIGN_OR_RETURN(
      table->upi_, core::Upi::Build(&env_, name, std::move(schema), options,
                                    std::move(secondary_columns), tuples));
  table->path_ = std::make_unique<UpiAccessPath>(table->upi_.get());
  table->planner_ = std::make_unique<QueryPlanner>(table->path_.get(), profile_,
                                                   env_.metrics());
  table->instruments_ = &instruments_;
  UPI_ASSIGN_OR_RETURN(Table * installed, Install(std::move(table)));
  LogCreate(installed, tuples);
  return installed;
}

Result<Table*> Database::CreateFracturedTable(
    const std::string& name, catalog::Schema schema, core::UpiOptions options,
    std::vector<int> secondary_columns,
    const std::vector<catalog::Tuple>& tuples) {
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::unique_ptr<Table>(new Table());
  table->name_ = name;
  table->kind_ = Table::Kind::kFractured;
  table->db_ = this;
  table->spec_.kind = wal::TableKind::kFractured;
  table->spec_.schema = schema;
  table->spec_.options = options;
  table->spec_.secondary_columns = secondary_columns;
  table->fractured_ = std::make_unique<core::FracturedUpi>(
      &env_, name, std::move(schema), options, std::move(secondary_columns));
  if (!tuples.empty()) {
    UPI_RETURN_NOT_OK(table->fractured_->BuildMain(tuples));
  }
  table->path_ = std::make_unique<FracturedAccessPath>(table->fractured_.get());
  table->planner_ = std::make_unique<QueryPlanner>(table->path_.get(), profile_,
                                                   env_.metrics());
  table->instruments_ = &instruments_;
  InstallMaintenanceHook(table->fractured_.get(), name, /*shard=*/-1);
  manager_.Register(table->fractured_.get());
  UPI_ASSIGN_OR_RETURN(Table * installed, Install(std::move(table)));
  LogCreate(installed, tuples);
  return installed;
}

Result<Table*> Database::CreatePartitionedTable(
    const std::string& name, catalog::Schema schema, core::UpiOptions options,
    std::vector<int> secondary_columns, PartitionOptions popts,
    const std::vector<catalog::Tuple>& tuples) {
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::unique_ptr<Table>(new Table());
  table->name_ = name;
  table->kind_ = Table::Kind::kPartitioned;
  table->db_ = this;
  table->spec_.kind = wal::TableKind::kPartitioned;
  table->spec_.schema = schema;
  table->spec_.options = options;
  table->spec_.secondary_columns = secondary_columns;
  table->spec_.partition = popts;
  UPI_ASSIGN_OR_RETURN(
      std::unique_ptr<PartitionedTable> partitioned,
      PartitionedTable::Create(&env_, &manager_, EnsureGatherPool(), name,
                               std::move(schema), options,
                               std::move(secondary_columns), popts, tuples));
  table->partitioned_ = partitioned.get();
  table->path_ = std::move(partitioned);
  table->planner_ = std::make_unique<QueryPlanner>(table->path_.get(), profile_,
                                                   env_.metrics());
  table->instruments_ = &instruments_;
  for (size_t i = 0; i < table->partitioned_->num_shards(); ++i) {
    core::FracturedUpi* shard = table->partitioned_->shard_fractured(i);
    if (shard != nullptr) {
      InstallMaintenanceHook(shard, name, static_cast<int>(i));
    }
  }
  UPI_ASSIGN_OR_RETURN(Table * installed, Install(std::move(table)));
  LogCreate(installed, tuples);
  return installed;
}

Result<Table*> Database::CreateUnclusteredTable(
    const std::string& name, catalog::Schema schema, int primary_column,
    std::vector<int> pii_columns, const std::vector<catalog::Tuple>& tuples) {
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::unique_ptr<Table>(new Table());
  table->name_ = name;
  table->kind_ = Table::Kind::kUnclustered;
  table->db_ = this;
  table->spec_.kind = wal::TableKind::kUnclustered;
  table->spec_.schema = schema;
  table->spec_.primary_column = primary_column;
  table->spec_.pii_columns = pii_columns;
  UPI_ASSIGN_OR_RETURN(table->unclustered_,
                       baseline::UnclusteredTable::Build(
                           &env_, name, std::move(schema),
                           std::move(pii_columns), tuples));
  auto path = std::make_unique<UnclusteredAccessPath>(table->unclustered_.get(),
                                                      primary_column);
  path->BuildStatistics(tuples);
  table->path_ = std::move(path);
  table->planner_ = std::make_unique<QueryPlanner>(table->path_.get(), profile_,
                                                   env_.metrics());
  table->instruments_ = &instruments_;
  UPI_ASSIGN_OR_RETURN(Table * installed, Install(std::move(table)));
  LogCreate(installed, tuples);
  return installed;
}

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

void Database::LogCreate(Table* table,
                         const std::vector<catalog::Tuple>& tuples) {
  if (wal_ == nullptr) return;  // WAL off, or constructor-time replay
  std::shared_lock<sync::SharedMutex> gate(wal_->gate());
  wal::Lsn lsn =
      wal_->Append(wal::EncodeCreateTable(table->name_, table->spec_, tuples));
  gate.unlock();
  wal_->Commit(lsn);
  // A bulk-build record alone can dwarf the checkpoint watermark.
  MaybeScheduleCheckpoint();
}

void Database::LogMaintenance(const std::string& table, int shard,
                              core::FracturedUpi::MaintenanceEvent event,
                              size_t merge_count) {
  if (wal_ == nullptr) return;
  wal::MaintenanceOp op = wal::MaintenanceOp::kFlush;
  switch (event) {
    case core::FracturedUpi::MaintenanceEvent::kFlush:
      op = wal::MaintenanceOp::kFlush;
      break;
    case core::FracturedUpi::MaintenanceEvent::kMergeAll:
      op = wal::MaintenanceOp::kMergeAll;
      break;
    case core::FracturedUpi::MaintenanceEvent::kMergePartial:
      op = wal::MaintenanceOp::kMergePartial;
      break;
  }
  std::shared_lock<sync::SharedMutex> gate(wal_->gate());
  wal::Lsn lsn =
      wal_->Append(wal::EncodeMaintenance(table, shard, op, merge_count));
  gate.unlock();
  wal_->Commit(lsn);
  MaybeScheduleCheckpoint();
}

void Database::InstallMaintenanceHook(core::FracturedUpi* frac,
                                      const std::string& name, int shard) {
  frac->SetMaintenanceHook(
      [this, name, shard](core::FracturedUpi::MaintenanceEvent event,
                          size_t merge_count) {
        LogMaintenance(name, shard, event, merge_count);
      });
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("checkpoint: database has no WAL");
  }
  // Exclusive gate: every logged write is fully applied-and-logged or not
  // started; Sync() drains the pending group tail before the snapshot scan.
  std::unique_lock<sync::SharedMutex> gate(wal_->gate());
  wal_->Sync();
  std::vector<std::string> payloads;
  payloads.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    std::vector<catalog::Tuple> tuples;
    UPI_RETURN_NOT_OK(table->path()->ScanTuples(
        [&tuples](const catalog::Tuple& t) { tuples.push_back(t); }));
    payloads.push_back(wal::EncodeCreateTable(name, table->spec_, tuples));
  }
  return wal_->Rotate(payloads);
}

void Database::MaybeScheduleCheckpoint() {
  if (wal_ == nullptr || options_.wal_checkpoint_bytes == 0) return;
  if (wal_->bytes_since_checkpoint() < options_.wal_checkpoint_bytes) return;
  manager_.ScheduleCheckpoint();
}

Table* Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace upi::engine
