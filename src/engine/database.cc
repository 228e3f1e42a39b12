#include "engine/database.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "baseline/unclustered_table.h"
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
                    est.heap_entries * s.avg_entry_bytes() / page_size +
                    est.cutoff_pointers;
      break;
    case Query::Kind::kSecondary:
      r.est_rows = path_->EstimateSecondaryMatches(q.column, q.value, q.qt);
      r.est_pages = pe.probed_fractures * height +
                    r.est_rows * s.avg_entry_bytes() / page_size;
      break;
    case Query::Kind::kTopK:
      r.est_rows = static_cast<double>(q.k);
      r.est_pages = pe.probed_fractures * height +
                    r.est_rows * s.avg_entry_bytes() / page_size;
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
  if (w == nullptr) return path_->Insert(tuple);
  // Gate held shared across append + apply: the checkpoint's exclusive hold
  // is an atomic cut (never applied-but-unlogged or logged-but-unapplied).
  std::shared_lock<sync::SharedMutex> gate(w->gate());
  wal::Lsn lsn = w->Append(wal::EncodeInsert(name_, tuple));
  Status s = path_->Insert(tuple);
  gate.unlock();
  w->Commit(lsn);  // may park on the group-commit condvar — no locks held
  db_->MaybeScheduleCheckpoint();
  return s;
}

Status Table::Delete(const catalog::Tuple& tuple) {
  wal::WalWriter* w = db_->wal();
  if (w == nullptr) return path_->Delete(tuple);
  std::shared_lock<sync::SharedMutex> gate(w->gate());
  wal::Lsn lsn = w->Append(wal::EncodeDelete(name_, tuple));
  Status s = path_->Delete(tuple);
  gate.unlock();
  w->Commit(lsn);
  db_->MaybeScheduleCheckpoint();
  return s;
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Database::Database(DatabaseOptions options)
    : options_(options),
      profile_(options.device),
      env_(options.pool_bytes, profile_),
      manager_(&env_, options.maintenance) {
  instruments_.disk = env_.disk();
  instruments_.slow_log = &slow_log_;
  instruments_.slow_query_ms = options.slow_query_ms;
  instruments_.RegisterMetrics(env_.metrics());

  if (!options_.wal_dir.empty()) {
    wal_path_ = options_.wal_dir + "/wal.log";
    // Replay with the writer unarmed (wal_ is still null, so the ops are not
    // re-journaled) and watermark notifications paused (the logged
    // maintenance records reproduce the original flush/merge sequence).
    manager_.SetNotifyPaused(true);
    sim::ThreadStatsWindow window(env_.disk());
    auto recovered = wal::Recover(this, wal_path_);
    // A log that exists but is not a WAL is operator error, not crash
    // damage — refuse to silently overwrite it.
    UPI_CHECK(recovered.ok(), recovered.status().ToString().c_str());
    recovery_stats_ = std::move(recovered).value();
    recovery_stats_.sim_ms = window.Delta().SimMs(profile_.cost);
    manager_.SetNotifyPaused(false);
    wal::WalWriterOptions wopts;
    wopts.path = wal_path_;
    wopts.mode = options_.wal_mode;
    // valid_bytes is 0 only when there was no log: an existing one holds at
    // least its header.
    auto writer =
        wal::WalWriter::Open(&env_, std::move(wopts),
                             recovery_stats_.valid_bytes,
                             recovery_stats_.records + 1);
    UPI_CHECK(writer.ok(), writer.status().ToString().c_str());
    wal_ = std::move(writer).value();
    if (recovery_stats_.valid_bytes > 0) {
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
  // Stop maintenance before any table goes away: a synchronous queue's
  // never-started tasks are dropped, a worker queue drains.
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

namespace {

wal::TableSpec UpiSpec(wal::TableKind kind, catalog::Schema schema,
                       core::UpiOptions options,
                       std::vector<int> secondary_columns) {
  wal::TableSpec spec;
  spec.kind = kind;
  spec.schema = std::move(schema);
  spec.options = options;
  spec.secondary_columns = std::move(secondary_columns);
  return spec;
}

}  // namespace

Result<Table*> Database::CreateTable(
    const std::string& name, wal::TableSpec spec,
    const std::vector<catalog::Tuple>& tuples) {
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  // Each design's Build checks its whole input and creates its files through
  // storage::NewFiles: a rejected create, or one whose file name collides
  // with another table's file, leaves no file behind. The built design is
  // the table's path.
  std::unique_ptr<AccessPath> path;
  switch (spec.kind) {
    case wal::TableKind::kUpi: {
      UPI_ASSIGN_OR_RETURN(
          path, core::Upi::Build(&env_, name, spec.schema, spec.options,
                                 spec.secondary_columns, tuples));
      break;
    }
    case wal::TableKind::kFractured: {
      UPI_ASSIGN_OR_RETURN(
          path,
          core::FracturedUpi::Build(&env_, name, spec.schema, spec.options,
                                    spec.secondary_columns, tuples));
      break;
    }
    case wal::TableKind::kUnclustered: {
      UPI_ASSIGN_OR_RETURN(
          path, baseline::UnclusteredTable::Build(&env_, name, spec.schema,
                                                  spec.primary_column,
                                                  spec.pii_columns, tuples));
      break;
    }
    case wal::TableKind::kPartitioned: {
      UPI_ASSIGN_OR_RETURN(
          path, PartitionedTable::Create(&env_, EnsureGatherPool(), name,
                                         spec.schema, spec.options,
                                         spec.secondary_columns,
                                         spec.partition, tuples));
      break;
    }
  }
  if (path == nullptr) return Status::InvalidArgument("unknown table kind");

  auto owned = std::unique_ptr<Table>(new Table());
  Table* table = owned.get();
  table->name_ = name;
  table->db_ = this;
  table->spec_ = std::move(spec);
  table->path_ = std::move(path);
  table->planner_ = std::make_unique<QueryPlanner>(table->path_.get(), profile_,
                                                   env_.metrics());
  table->instruments_ = &instruments_;
  tables_.emplace(name, std::move(owned));
  if (core::FracturedUpi* fractured = table->fractured()) {
    ManageFractured(fractured, name, /*shard=*/-1);
  } else if (PartitionedTable* partitioned = table->partitioned()) {
    for (size_t i = 0; i < partitioned->num_shards(); ++i) {
      ManageFractured(partitioned->shard_fractured(i), name,
                      static_cast<int>(i));
    }
  }
  LogCreate(table, tuples);
  return table;
}

Result<Table*> Database::CreateUpiTable(
    const std::string& name, catalog::Schema schema, core::UpiOptions options,
    std::vector<int> secondary_columns,
    const std::vector<catalog::Tuple>& tuples) {
  return CreateTable(name,
                     UpiSpec(wal::TableKind::kUpi, std::move(schema), options,
                             std::move(secondary_columns)),
                     tuples);
}

Result<Table*> Database::CreateFracturedTable(
    const std::string& name, catalog::Schema schema, core::UpiOptions options,
    std::vector<int> secondary_columns,
    const std::vector<catalog::Tuple>& tuples) {
  return CreateTable(name,
                     UpiSpec(wal::TableKind::kFractured, std::move(schema),
                             options, std::move(secondary_columns)),
                     tuples);
}

Result<Table*> Database::CreatePartitionedTable(
    const std::string& name, catalog::Schema schema, core::UpiOptions options,
    std::vector<int> secondary_columns, PartitionOptions popts,
    const std::vector<catalog::Tuple>& tuples) {
  wal::TableSpec spec = UpiSpec(wal::TableKind::kPartitioned, std::move(schema),
                                options, std::move(secondary_columns));
  spec.partition = std::move(popts);
  return CreateTable(name, std::move(spec), tuples);
}

Result<Table*> Database::CreateUnclusteredTable(
    const std::string& name, catalog::Schema schema, int primary_column,
    std::vector<int> pii_columns, const std::vector<catalog::Tuple>& tuples) {
  wal::TableSpec spec;
  spec.kind = wal::TableKind::kUnclustered;
  spec.schema = std::move(schema);
  spec.primary_column = primary_column;
  spec.pii_columns = std::move(pii_columns);
  return CreateTable(name, std::move(spec), tuples);
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
                              core::MaintenanceOp op, size_t merge_count) {
  if (wal_ == nullptr) return;
  std::shared_lock<sync::SharedMutex> gate(wal_->gate());
  wal::Lsn lsn =
      wal_->Append(wal::EncodeMaintenance(table, shard, op, merge_count));
  gate.unlock();
  wal_->Commit(lsn);
  MaybeScheduleCheckpoint();
}

void Database::ManageFractured(core::FracturedUpi* frac,
                               const std::string& name, int shard) {
  frac->SetMaintenanceHook(
      [this, name, shard](core::MaintenanceOp op, size_t merge_count) {
        LogMaintenance(name, shard, op, merge_count);
      });
  frac->SetWriteHook([this, frac] { manager_.NotifyWrite(frac); });
  manager_.Register(frac);
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("checkpoint: database has no WAL");
  }
  // Exclusive gate: every logged write is fully applied-and-logged or not
  // started; Sync() drains the pending group tail before the snapshot scan.
  std::unique_lock<sync::SharedMutex> gate(wal_->gate());
  wal_->Sync();
  // Each table's snapshot record is written before the next table is
  // scanned, so the checkpoint holds one table's rows at a time.
  return wal_->Rotate([this](const wal::WalWriter::SnapshotSink& sink) {
    for (const auto& [name, table] : tables_) {
      // The snapshot record holds each tuple's serialized bytes, which the
      // scan hands over: they are kept as they are, never decoded.
      std::vector<catalog::EncodedTuple> tuples;
      std::vector<catalog::TupleId> ids;
      Status copied = Status::OK();
      UPI_RETURN_NOT_OK(
          table->path()->ScanTuples([&](catalog::TupleView t) {
            if (!copied.ok()) return;
            copied = tuples.emplace_back().Assign(t.bytes());
            ids.push_back(t.id());
          }));
      UPI_RETURN_NOT_OK(copied);
      // An unclustered table refuses an insert under a live TupleId, but the
      // UPI, Fractured UPI and partitioned insert paths accept one, and a
      // partitioned scan reports both tuples when they sit in two shards. A
      // create record that repeats an id does not replay (CreateTable
      // rejects it), so the table would be lost: refuse, and keep the
      // current log, which replays.
      Status distinct = core::CheckDistinctIds(std::move(ids));
      if (!distinct.ok()) {
        return Status::InvalidArgument("checkpoint: table '" + name +
                                       "': " + distinct.message());
      }
      UPI_RETURN_NOT_OK(
          sink(wal::EncodeCreateTable(name, table->spec_, tuples)));
    }
    return Status::OK();
  });
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
