// Shared pieces of the benchmark program: the op stream, the span recorder
// used by the traced run, the brute-force answer oracle, process probes, and
// the Workload interface the four workloads implement.
//
// Everything here sits *outside* the engine: spans are recorded around the
// benchmark's own calls into the public engine API, and counters are read
// through public accessors (SimDisk::thread_stats, BufferPool::counters,
// MetricsSnapshot), so the benchmark measures the engine as a user drives it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "core/upi.h"
#include "engine/database.h"
#include "exec/aggregate.h"
#include "sim/sim_disk.h"
#include "storage/buffer_pool.h"

namespace perfbench {

using upi::catalog::Tuple;
using upi::catalog::TupleId;

// ---------------------------------------------------------------------------
// Op stream
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t { kPtq, kTopK, kSecondary, kInsert, kDelete };
inline constexpr size_t kNumOpKinds = 5;
inline constexpr size_t kNumPlanKinds =
    static_cast<size_t>(upi::engine::PlanKind::kTopKDecreasingThreshold) + 1;
const char* OpKindName(OpKind kind);

/// One client operation, drawn up front from the seed. `key` indexes the
/// workload's key table (institution, country or segment names); `tuple`
/// indexes its insert pool (inserts) or names the insert being undone
/// (deletes).
struct Op {
  OpKind kind = OpKind::kPtq;
  bool sampled = false;  // answer captured and checked after the window
  uint32_t key = 0;
  uint32_t tuple = 0;
  double qt = 0.0;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

enum class SpanName : uint8_t {
  kOpPtq,
  kOpTopK,
  kOpSecondary,
  kOpInsert,
  kOpDelete,
  kEngineBind,
  kExecPtq,
  kExecTopK,
  kExecSecondary,
  kExecAggregate,
  kEngineInsert,
  kEngineDelete,
  kMaintenance,
};
inline constexpr size_t kNumSpanNames = 13;
const char* SpanNameString(SpanName name);
SpanName RootSpanFor(OpKind kind);
SpanName ExecSpanFor(OpKind kind);

/// The counters a span carries: the calling thread's SimDisk stripe and the
/// buffer pool's totals.
struct Counters {
  upi::sim::DiskStats disk;
  upi::storage::BufferPool::PoolCounters pool;
};

struct Span {
  SpanName name = SpanName::kOpPtq;
  int32_t parent = -1;  // index of the enclosing span; -1 = root
  uint64_t op = 0;      // window op index (UINT64_MAX: not tied to an op)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;   // thread CPU of the recording thread
  uint64_t rows = 0;
  double sim_ms = 0.0;  // simulated device time the span charged
  Counters delta;       // zero for detached (session) spans
};

/// In-memory span recorder. Nested spans (Begin/End) follow a stack on the
/// client thread and carry counter deltas; detached spans (fleet sessions)
/// time a submit-to-result interval and carry the simulated ms the session
/// worker measured. Disabled, every call is a single branch.
class Tracer {
 public:
  Tracer(bool enabled, const upi::sim::SimDisk* disk,
         const upi::storage::BufferPool* pool);

  bool enabled() const { return enabled_; }
  int32_t Begin(SpanName name, uint64_t op);
  void End(int32_t id, uint64_t rows = 0);
  int32_t BeginDetached(SpanName name, uint64_t op);
  void EndDetached(int32_t id, uint64_t rows, double sim_ms);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t origin_ns() const { return origin_ns_; }

 private:
  Counters Read() const;

  bool enabled_;
  const upi::sim::SimDisk* disk_;
  const upi::storage::BufferPool* pool_;
  int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  std::vector<Counters> open_counters_;  // parallel to stack_
};

/// RAII nested span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tr, SpanName name, uint64_t op)
      : tr_(tr), id_(tr->enabled() ? tr->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tr_->End(id_, rows_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_rows(uint64_t rows) { rows_ = rows; }

 private:
  Tracer* tr_;
  int32_t id_;
  uint64_t rows_ = 0;
};

/// Writes the spans as TSV (one line per span, times relative to the
/// tracer's origin) to `path`. Returns false when the file cannot be written.
bool WriteSpans(const Tracer& tracer, const std::string& path);

// ---------------------------------------------------------------------------
// Answer oracle
// ---------------------------------------------------------------------------

/// One sampled read: its query and the rows the engine returned.
struct CapturedRead {
  uint64_t op = 0;  // window op index
  OpKind kind = OpKind::kPtq;
  int column = 0;
  std::string value;
  double qt = 0.0;
  size_t k = 0;
  std::vector<std::pair<TupleId, double>> rows;  // (id, confidence)
  int group_column = -1;  // GROUP BY column applied to the rows (-1: none)
  std::map<std::string, upi::exec::GroupCount> groups;  // its result
};

std::vector<std::pair<TupleId, double>> RowsOf(
    const std::vector<upi::core::PtqMatch>& matches);

/// Re-evaluates `read` by brute force over `live` with Tuple::ConfidenceOf
/// (1e-6 tolerance, as the engine's own integration test does). PTQ and
/// secondary reads must return exactly the tuples whose confidence passes
/// QT (tuples within the tolerance of QT may go either way); top-k reads
/// must return the k highest confidences. A read with a GROUP BY must
/// report, per group of the returned rows, their number and the sum of their
/// oracle confidences (within the tolerance per row). Returns an empty string
/// on a match, else a description of the first mismatch.
std::string CheckRead(const CapturedRead& read,
                      const std::vector<const Tuple*>& live);

// ---------------------------------------------------------------------------
// Process and host probes
// ---------------------------------------------------------------------------

int64_t NowNs();             // steady clock
double ProcessCpuSeconds();  // user + system CPU of the whole process
int64_t ThreadCpuNs();
/// Reads a numeric field ("Threads", "VmHWM", ...) from /proc/self/status;
/// -1 when absent.
int64_t ProcStatusField(const char* field);
/// Times a fixed memory-bound reference loop that never touches the engine,
/// in ms. Printed as a diagnostic so that runs on a drifting host can be
/// told apart from a regression.
double HostProbeMs();

double Percentile(std::vector<double> v, double p);

uint64_t SerializedBytes(const Tuple& t);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;      // tiny data and op counts (the benchmark's test)
  std::string work_dir;    // where WAL directories and span files go
};

/// Latencies and counts the op loop records, per op kind.
struct OpLog {
  std::array<std::vector<double>, kNumOpKinds> latency_us;
  std::array<uint64_t, kNumOpKinds> count{};
  std::array<uint64_t, kNumOpKinds> rows{};
  uint64_t failed = 0;              // non-OK ops and failed answer checks
  uint64_t user_bytes_written = 0;  // serialized bytes inserted + deleted
  std::vector<CapturedRead> captured;  // sampled answers
  std::vector<std::string> errors;     // first few failure messages
  /// Executions per (op kind, plan kind the planner chose).
  std::array<std::array<uint64_t, kNumPlanKinds>, kNumOpKinds> plans{};
  void Fail(const std::string& what);
  void CountPlan(OpKind op, upi::engine::PlanKind plan) {
    ++plans[static_cast<size_t>(op)][static_cast<size_t>(plan)];
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The options the database is opened with (set by CreateTables).
  virtual const upi::engine::DatabaseOptions& options() const = 0;
  /// Client sessions the workload drives; 0 means the client thread runs
  /// every op itself.
  virtual size_t sessions() const { return 0; }
  /// Generates the data set and draws the op stream (`ops` operations).
  virtual void Generate(size_t ops) = 0;
  /// Opens the database and bulk-builds the tables.
  virtual void CreateTables() = 0;
  /// Brings the caches and plan caches to their steady state.
  virtual void WarmUp() = 0;
  /// Runs the op stream: the measured window.
  virtual void RunOps(Tracer* tracer, OpLog* log) = 0;
  /// After the window: checks every captured answer against the oracle
  /// replayed to the op that produced it; mismatches go to log->Fail.
  virtual void Verify(OpLog* log) const = 0;
  /// The tuples live at the end of the window.
  virtual std::vector<const Tuple*> FinalLive() const = 0;
  /// The tuples CreateTables bulk-loaded.
  virtual std::vector<const Tuple*> Loaded() const = 0;
  /// The fixed set of reads timed under the cold-cache protocol after the
  /// window (queries only; rows empty).
  virtual std::vector<CapturedRead> ColdProbes() const = 0;
  /// Executes `q` on the calling thread through the workload's prepared
  /// queries.
  virtual upi::Status RunRead(const CapturedRead& q,
                              std::vector<upi::core::PtqMatch>* rows) const = 0;
  /// Closes the database and reopens it from its write-ahead log (recovery
  /// replays every record). False when the workload has no log.
  virtual bool Reopen() = 0;

  virtual upi::engine::Database* db() = 0;
  /// Prepared queries whose plan-cache counters the window reports.
  virtual std::vector<const upi::engine::PreparedQuery*> prepared() const = 0;
  /// Fractures across every fractured table / shard (0 with none).
  virtual size_t Fractures() const { return 0; }
  /// The partitioned table, when the workload has one.
  virtual const upi::engine::PartitionedTable* partitioned() const {
    return nullptr;
  }
};

std::unique_ptr<Workload> MakeWorkload(const RunOptions& opts);
/// Nominal ops per second of each workload: the window runs
/// nominal * --seconds ops, so every run of one seed does the same work.
double NominalOpsPerSecond(const std::string& workload);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench
