// The background maintenance subsystem: an autonomous flush & merge scheduler
// for Fractured UPIs.
//
// The paper's Fractured UPI defers index maintenance LSM-style but leaves
// *when* to flush and merge entirely to the caller. The MaintenanceManager
// closes that loop: NotifyWrite() runs after each Insert/Delete (a
// Database installs it as each table's write hook, FracturedUpi::SetWriteHook;
// a caller that registers a table itself calls it after each write), the
// MergePolicy checks its watermarks, and due work is
// handed to a worker-thread pool through a condition-variable task queue
// (the buffer-tree flush-pool pattern). After every completed task the
// policy re-evaluates the Section 6.2 cost model and schedules follow-up
// partial or full merges when the fracture tax warrants repayment.
//
// Invariants:
//   - Per table, at most ONE maintenance task is queued or executing at any
//     time (FracturedUpi requires serialized maintenance; queries and
//     Insert/Delete stay fully concurrent).
//   - In synchronous mode (num_workers == 0) nothing runs until RunPending()
//     drains the queue on the calling thread — deterministic, thread-free,
//     what tests and the simulated-time benches use.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "maintenance/merge_policy.h"
#include "maintenance/task_queue.h"
#include "obs/metrics.h"
#include "sync/sync.h"

namespace upi::storage {
class DbEnv;
}

namespace upi::maintenance {

struct MaintenanceStats {
  uint64_t flushes = 0;
  uint64_t partial_merges = 0;
  uint64_t full_merges = 0;
  uint64_t checkpoints = 0;  // WAL checkpoints (not counted in tasks())
  /// Simulated disk time spent inside tasks. Exact in synchronous mode; in
  /// threaded mode concurrent foreground I/O shares the spindle, so this is
  /// an upper bound.
  double flush_sim_ms = 0.0;
  double merge_sim_ms = 0.0;

  uint64_t tasks() const { return flushes + partial_merges + full_merges; }
  double sim_ms() const { return flush_sim_ms + merge_sim_ms; }
};

struct MaintenanceManagerOptions {
  /// Worker threads. 0 = synchronous mode: tasks accumulate until
  /// RunPending() executes them on the calling thread.
  size_t num_workers = 0;
  MergePolicyOptions policy;
};

class MaintenanceManager {
 public:
  MaintenanceManager(storage::DbEnv* env, MaintenanceManagerOptions options);
  ~MaintenanceManager();

  MaintenanceManager(const MaintenanceManager&) = delete;
  MaintenanceManager& operator=(const MaintenanceManager&) = delete;

  /// Puts `table` under management. The caller keeps ownership; the table
  /// must outlive Stop() (Database stops its manager before any table goes
  /// away). Installs no write hook: the caller arranges NotifyWrite.
  void Register(core::FracturedUpi* table);

  /// Call after each Insert/Delete (or install as the table's write hook).
  /// Checks the flush watermarks
  /// and enqueues a flush when due (deduplicated: a table with a task
  /// already queued or running is left alone — the follow-up re-check after
  /// that task catches anything that accumulated meanwhile).
  void NotifyWrite(core::FracturedUpi* table);

  /// Pauses/resumes the NotifyWrite watermark checks. WAL recovery replays
  /// with notifications paused: the logged maintenance records reproduce the
  /// original flush/merge sequence, so the policy must not inject its own.
  void SetNotifyPaused(bool paused) {
    notify_paused_.store(paused, std::memory_order_relaxed);
  }

  /// Force-schedules regardless of watermarks (still serialized per table;
  /// if a task is in flight the request runs as its follow-up).
  void ScheduleFlush(core::FracturedUpi* table);
  void ScheduleMergeAll(core::FracturedUpi* table);

  /// The database-wide WAL checkpoint body (Database::Checkpoint). Set once
  /// at construction time, before workers can see a checkpoint task.
  void SetCheckpointCallback(std::function<Status()> cb) {
    checkpoint_cb_ = std::move(cb);
  }

  /// Enqueues one checkpoint task (deduplicated: a queued or running
  /// checkpoint absorbs the request). Returns whether a task was enqueued.
  bool ScheduleCheckpoint();

  /// Synchronous mode: drains the queue — including follow-up tasks pushed
  /// by the policy re-check — on the calling thread. Returns the number of
  /// tasks executed. Also usable in threaded mode to lend a hand.
  size_t RunPending();

  /// Blocks until no task is queued or executing.
  void WaitIdle();

  /// Closes the queue, lets queued tasks drain, joins the workers. Idempotent;
  /// the destructor calls it.
  void Stop();

  MaintenanceStats stats() const;
  /// First task failure, if any (tasks keep running after a failure).
  Status last_error() const;
  const MergePolicy& policy() const { return policy_; }
  size_t queued_tasks() const { return queue_.size(); }

 private:
  struct TableState {
    bool active = false;      // a task is queued or executing
    /// The op a Schedule* asked for while the table was active.
    std::optional<core::MaintenanceOp> forced;
  };

  void WorkerLoop();
  Status Execute(const MaintenanceTask& task);
  void ExecuteAndFollowUp(const MaintenanceTask& task);
  /// Marks the table active and pushes; no-op if already active (returns
  /// false). Caller must NOT hold mu_.
  bool TryEnqueue(core::FracturedUpi* table, core::MaintenanceOp op,
                  size_t merge_count, bool force);
  /// Publishes the current queue length to the registry gauge.
  void UpdateQueueGauge() {
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<double>(queue_.size()));
    }
  }

  storage::DbEnv* env_;
  MaintenanceManagerOptions options_;
  MergePolicy policy_;
  TaskQueue queue_;

  // Guards tables_, in_flight_, stats_, last_error_. Ranked before the
  // TaskQueue mutex: ExecuteAndFollowUp pushes the follow-up task (and
  // refreshes the queue-depth gauge) while holding it.
  mutable sync::Mutex mu_{sync::LockRank::kMaintenanceManager};
  sync::CondVar idle_cv_;
  std::unordered_map<core::FracturedUpi*, TableState> tables_;
  size_t in_flight_ = 0;  // tables with active == true, plus a checkpoint
  bool checkpoint_active_ = false;  // a checkpoint task is queued or running
  MaintenanceStats stats_;
  Status last_error_;

  std::function<Status()> checkpoint_cb_;
  std::atomic<bool> notify_paused_{false};
  std::atomic<bool> stopped_{false};
  std::vector<std::thread> workers_;

  // Registry metrics, cached from env->metrics() at construction (the env
  // outlives the manager; Database destroys the manager first).
  obs::Counter* m_flushes_ = nullptr;
  obs::Counter* m_partial_merges_ = nullptr;
  obs::Counter* m_full_merges_ = nullptr;
  obs::Histogram* m_task_sim_ms_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
};

}  // namespace upi::maintenance
