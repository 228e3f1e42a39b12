// The Database facade: named tables over one shared DbEnv, with declarative
// planner-backed query execution and automatic background maintenance.
//
// This is the deployment shape the engine layer exists for: callers create
// tables by name (clustered UPI, Fractured UPI, or the unclustered baseline)
// and describe reads as Query values (see engine/query.h) — run one-shot
// with Run(), streamed through OpenCursor(), or planned-once via Prepare()
// whose plan cache the table's stats epoch invalidates. Every execution
// returns its explainable Plan. Maintenance is never scheduled by hand:
// every Fractured UPI under a table (the table itself, or each partition
// shard) is auto-registered with the environment's MaintenanceManager, and
// its write hook notifies the manager after every Insert/Delete so the
// Section 6.2 watermarks drive flushes and merges.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fractured_upi.h"
#include "core/upi.h"
#include "engine/partition.h"
#include "engine/planner.h"
#include "engine/query.h"
#include "maintenance/manager.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "storage/db_env.h"
#include "wal/recovery.h"
#include "wal/wal_writer.h"

namespace upi::engine {

class Database;

/// DatabaseOptions::gather_workers sentinel: size the gather pool from
/// std::thread::hardware_concurrency (clamped to [4, 16]).
inline constexpr size_t kGatherWorkersAuto = static_cast<size_t>(-1);

/// A named table: its physical design (the AccessPath: a core::Upi, a
/// core::FracturedUpi, a PartitionedTable or a baseline::UnclusteredTable),
/// the WAL spec that re-creates it, and a QueryPlanner. Created and owned by
/// a Database.
class Table {
 public:
  const std::string& name() const { return name_; }
  AccessPath* path() const { return path_.get(); }
  const QueryPlanner& planner() const { return *planner_; }

  // --- Declarative execution (see engine/query.h). ------------------------

  /// Plans `q` and executes it materialized: appends this execution's rows
  /// to `out`, after whatever it already holds, sorted by descending
  /// confidence with top-k / LIMIT / predicate applied (exec::Execute).
  /// Returns the Plan (feed it to Plan::Explain() for the EXPLAIN output).
  Result<Plan> Run(const Query& q, std::vector<core::PtqMatch>* out) const;

  /// Plans `q` and opens a pull-based cursor: LIMIT/top-k consumers stop the
  /// underlying descent early instead of materializing the match set. Row
  /// order is plan-dependent (see exec/cursor.h).
  ///
  /// Lifetime contract: a *streaming* cursor (clustered PTQ / direct top-k
  /// on a plain UPI table, PII probes) walks live index pages — drain it
  /// before any Insert/Delete on this table, and do not hold it across
  /// another session's writes. A fractured PTQ cursor streams the pruned
  /// fan-out lazily while *holding the table's shared lock*: results stay
  /// consistent under background maintenance, but writes and maintenance
  /// installs on that table block until it is destroyed — drain promptly,
  /// and never write to the table from the thread holding the cursor.
  /// Eager cursors (secondary probes, scans, threshold top-k, fractured
  /// top-k, every partitioned read) computed their rows at open and have no
  /// such hazard.
  Result<std::unique_ptr<ResultCursor>> OpenCursor(const Query& q) const;

  /// Validates and prepares `q` for repeated execution: the plan is cached
  /// per parameter-histogram bucket and re-planned only when this table's
  /// stats_epoch() moves. `q.value` is a placeholder — Bind() supplies it.
  Result<PreparedQuery> Prepare(Query q) const;

  /// Bumped by every Insert/Delete, maintenance flush, and merge install.
  uint64_t stats_epoch() const { return path_->StatsEpoch(); }

  /// The planner's snapshot of the table's physical shape (RAM-only).
  PathStats stats() const { return path_->Stats(); }

  // --- EXPLAIN ANALYZE (see obs/trace.h). ---------------------------------

  /// One analyzed execution: the chosen plan, the per-operator trace with
  /// estimates filled in, the rows, and the rendered report.
  struct AnalyzeResult {
    Plan plan;
    obs::QueryTrace trace;
    std::vector<core::PtqMatch> rows;
    double est_rows = 0.0;   // planner's expectation for the whole query
    double est_pages = 0.0;
    std::string text;        // the EXPLAIN ANALYZE report
  };

  /// Plans and executes `q` under a QueryTrace, reconciling per-operator
  /// actuals (pages/seeks/rows/simulated ms from scoped thread-stats deltas)
  /// against the planner's estimates. Charges the query's normal simulated
  /// I/O — run it as you would the query itself.
  Result<AnalyzeResult> AnalyzeQuery(const Query& q) const;

  /// AnalyzeQuery rendered as text: Plan::Explain() followed by the
  /// per-operator actual rows/pages/seeks/sim-ms and the estimated vs.
  /// actual totals.
  Result<std::string> ExplainAnalyze(const Query& q) const;

  // --- Writes: the path's Insert/Delete (fractured designs notify the
  // maintenance manager through their write hook; it flushes/merges per its
  // cost-model policy).
  // When the database has a WAL, the write is journaled first (holding the
  // checkpoint gate shared across append + apply) and made durable per the
  // configured WalMode before returning.
  Status Insert(const catalog::Tuple& tuple);
  Status Delete(const catalog::Tuple& tuple);

  // --- Escape hatches to the concrete design (nullptr when not that kind).
  core::Upi* upi() const { return dynamic_cast<core::Upi*>(path_.get()); }
  core::FracturedUpi* fractured() const {
    return dynamic_cast<core::FracturedUpi*>(path_.get());
  }
  PartitionedTable* partitioned() const {
    return dynamic_cast<PartitionedTable*>(path_.get());
  }

 private:
  friend class Database;
  Table() = default;

  std::string name_;
  Database* db_ = nullptr;
  /// Everything needed to journal this table's creation (and checkpoint
  /// snapshots of it) as a WAL kCreateTable record.
  wal::TableSpec spec_;
  const ExecInstruments* instruments_ = nullptr;  // owned by the Database
  std::unique_ptr<AccessPath> path_;
  std::unique_ptr<QueryPlanner> planner_;
};

struct DatabaseOptions {
  /// Buffer-pool bytes (see DbEnv for the default's rationale).
  uint64_t pool_bytes = 32ull << 20;
  /// Device profile the database runs on (sim/device_profile.h): disk,
  /// planners, and merge policy all price against it. The default is the
  /// paper's spinning disk (Table 6).
  sim::DeviceProfile device = sim::DeviceProfile::SpinningDisk();
  /// Maintenance setup; num_workers == 0 keeps maintenance synchronous
  /// (drain with RunMaintenance()), > 0 runs it on background threads.
  maintenance::MaintenanceManagerOptions maintenance{};
  /// Simulated-ms threshold above which executions are recorded in the
  /// slow-query log; 0 disables the log entirely.
  double slow_query_ms = 0.0;
  /// Scatter-gather worker threads shared by every partitioned table (see
  /// engine/partition.h). kGatherWorkersAuto sizes from the hardware; 0 runs
  /// shard probes serially on the querying thread. The pool is spawned
  /// lazily, on the first CreatePartitionedTable().
  size_t gather_workers = kGatherWorkersAuto;

  // --- Durability (see src/wal/). -----------------------------------------

  /// Host directory for the write-ahead log; empty disables durability
  /// entirely (the seed behaviour — nothing is journaled, nothing is
  /// recovered, no log device is registered). When set, the constructor
  /// replays `wal_dir + "/wal.log"` if it exists and journals every
  /// mutation from then on.
  std::string wal_dir;
  /// Per-operation sync (kCommit) vs. leader/follower group commit (kGroup).
  wal::WalMode wal_mode = wal::WalMode::kGroup;
  /// Schedules a background checkpoint (snapshot + log truncation) once the
  /// log grows this many bytes past the last one. 0 = only explicit
  /// Checkpoint() calls truncate the log.
  uint64_t wal_checkpoint_bytes = 0;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates the table `spec` describes, bulk-building it from `tuples`, and
  /// journals the creation. Every Fractured UPI under it (the table itself,
  /// or each partition shard) is registered with the maintenance manager and
  /// journals its flushes and merges. WAL recovery replays a create record
  /// through this call; the Create*Table helpers below build the spec.
  Result<Table*> CreateTable(const std::string& name, wal::TableSpec spec,
                             const std::vector<catalog::Tuple>& tuples);

  /// Bulk-builds a clustered UPI table.
  Result<Table*> CreateUpiTable(const std::string& name, catalog::Schema schema,
                                core::UpiOptions options,
                                std::vector<int> secondary_columns,
                                const std::vector<catalog::Tuple>& tuples);

  /// Creates a Fractured UPI table, bulk-building the main fracture from
  /// `tuples` when non-empty.
  Result<Table*> CreateFracturedTable(const std::string& name,
                                      catalog::Schema schema,
                                      core::UpiOptions options,
                                      std::vector<int> secondary_columns,
                                      const std::vector<catalog::Tuple>& tuples);

  /// Creates a horizontally partitioned table (see engine/partition.h): N
  /// independent Fractured-UPI shards behind one logical name, writes
  /// routed by `popts`'s scheme on the clustered attribute, reads gathered
  /// across the shards the per-shard summaries admit. Shards register with
  /// the maintenance manager individually, so their flushes and merges
  /// interleave instead of serializing behind one lock.
  Result<Table*> CreatePartitionedTable(const std::string& name,
                                        catalog::Schema schema,
                                        core::UpiOptions options,
                                        std::vector<int> secondary_columns,
                                        PartitionOptions popts,
                                        const std::vector<catalog::Tuple>& tuples);

  /// Bulk-builds an unclustered baseline table with PII indexes on
  /// `pii_columns`; `primary_column` is the attribute PTQs probe.
  Result<Table*> CreateUnclusteredTable(const std::string& name,
                                        catalog::Schema schema,
                                        int primary_column,
                                        std::vector<int> pii_columns,
                                        const std::vector<catalog::Tuple>& tuples);

  /// nullptr when no such table exists.
  Table* GetTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  storage::DbEnv* env() { return &env_; }
  maintenance::MaintenanceManager* maintenance() { return &manager_; }
  /// The shared scatter-gather pool; nullptr until the first partitioned
  /// table is created (or forever, when gather_workers == 0).
  GatherPool* gather_pool() const { return gather_pool_.get(); }

  // --- Observability (see obs/metrics.h). ---------------------------------

  obs::MetricsRegistry* metrics() const { return env_.metrics(); }
  /// Point-in-time copy of every engine metric: native counters, disk and
  /// buffer-pool exports. Serialize with ToJson()/ToPrometheus().
  obs::MetricsSnapshot MetricsSnapshot() const {
    return env_.metrics()->Snapshot();
  }
  obs::SlowQueryLog* slow_query_log() { return &slow_log_; }
  /// Adjusts the slow-query threshold (0 disarms). Not synchronized against
  /// in-flight queries — set it between workloads, not during one.
  void set_slow_query_ms(double ms) { instruments_.slow_query_ms = ms; }
  const ExecInstruments& instruments() const { return instruments_; }

  /// Synchronous maintenance: drains pending flush/merge tasks on the calling
  /// thread. Returns tasks executed.
  size_t RunMaintenance() { return manager_.RunPending(); }

  // --- Durability (see src/wal/). -----------------------------------------

  /// The write-ahead log, or nullptr when DatabaseOptions::wal_dir is empty
  /// (and during constructor-time recovery, so replayed operations are not
  /// re-journaled).
  wal::WalWriter* wal() const { return wal_.get(); }

  /// What constructor-time recovery replayed (no records when the log was
  /// absent or empty; valid_bytes is 0 only when it was absent).
  const wal::RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Snapshots every table into a fresh log and truncates the old one, under
  /// the WAL gate held exclusive (an atomic cut: no mutation is applied but
  /// unlogged, or logged but unapplied, across the snapshot). Runs on the
  /// caller's thread; not synchronized against concurrent Create*Table DDL.
  /// Each table's record is written to the new log before the next table is
  /// scanned. A table whose snapshot repeats a TupleId (a partitioned table
  /// can hold one id in two shards; an unclustered table refuses the second
  /// insert) fails the checkpoint with InvalidArgument, and a failed host
  /// write, flush or rename with IOError; either leaves the log as it was (a
  /// repeated id's create record would not replay).
  Status Checkpoint();

  /// Enqueues a background checkpoint with the maintenance manager when the
  /// log has outgrown DatabaseOptions::wal_checkpoint_bytes.
  void MaybeScheduleCheckpoint();

  /// The Section 7.1 cold-cache protocol (benches).
  void ColdCache() { env_.ColdCache(); }

  const sim::DeviceProfile& profile() const { return profile_; }

 private:
  /// Spawns the shared gather pool on first use (per options_.gather_workers).
  GatherPool* EnsureGatherPool();
  /// Journals a table's creation (no-op while wal_ is unarmed).
  void LogCreate(Table* table, const std::vector<catalog::Tuple>& tuples);
  /// Installed as the FracturedUpi maintenance hook on every fractured table
  /// and partition shard: journals the completed flush/merge so recovery
  /// reproduces the exact fracture layout. shard < 0 = the table itself.
  void LogMaintenance(const std::string& table, int shard,
                      core::MaintenanceOp op, size_t merge_count);
  /// Registers `frac` (owned by table `name`, shard `shard`) with the
  /// maintenance manager, hooks its writes into the manager's watermark
  /// check and its maintenance ops into LogMaintenance.
  void ManageFractured(core::FracturedUpi* frac, const std::string& name,
                       int shard);

  DatabaseOptions options_;
  sim::DeviceProfile profile_;
  storage::DbEnv env_;
  obs::SlowQueryLog slow_log_;
  ExecInstruments instruments_;  // handed by pointer to every table
  // Declared after env_ (the writer's destructor syncs through the env's
  // simulated log device) and before tables_/manager_ (the checkpoint task
  // and the tables' write paths use it until the manager stops).
  std::unique_ptr<wal::WalWriter> wal_;
  wal::RecoveryStats recovery_stats_;
  std::string wal_path_;
  // The gather pool is declared before the tables so in-flight shard probes
  // can never outlive it... and the tables before the manager, which the
  // destructor stops before any table goes away.
  std::unique_ptr<GatherPool> gather_pool_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  maintenance::MaintenanceManager manager_;
};

}  // namespace upi::engine
