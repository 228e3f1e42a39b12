// Blocking MPMC task queue for the maintenance subsystem: the
// condition-variable handoff a buffer-tree's flush pool uses (cf. the
// GutterTree design referenced in SNIPPETS.md — "a flush queue will be
// maintained, from which threads pick tasks").
//
// Producers are NotifyWrite callers (foreground insert path) and workers
// enqueueing follow-up merges; consumers are the worker pool, or
// MaintenanceManager::RunPending() draining on the calling thread in
// synchronous mode.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>

#include "core/fractured_upi.h"
#include "sync/sync.h"

namespace upi::maintenance {

/// `op` on `table` (FracturedUpi::Run), or the database-wide WAL checkpoint
/// when `table` is nullptr.
struct MaintenanceTask {
  core::MaintenanceOp op = core::MaintenanceOp::kFlush;
  core::FracturedUpi* table = nullptr;
  /// kMergePartial only: how many of the oldest delta fractures to merge.
  size_t merge_count = 0;
};

class TaskQueue {
 public:
  /// Returns false (and drops the task) iff the queue is already closed —
  /// the caller must release whatever slot the task was holding.
  bool Push(MaintenanceTask task);

  /// Blocks until a task arrives. Returns false only when the queue is
  /// closed *and* drained — queued tasks are still handed out after Close(),
  /// so shutdown finishes scheduled work.
  bool Pop(MaintenanceTask* out);

  /// Non-blocking pop (synchronous mode / RunPending).
  bool TryPop(MaintenanceTask* out);

  /// Wakes every blocked Pop; subsequent Pushes are dropped.
  void Close();

  size_t size() const;
  bool closed() const;

 private:
  mutable sync::Mutex mu_{sync::LockRank::kTaskQueue};
  sync::CondVar cv_;
  std::deque<MaintenanceTask> tasks_;
  bool closed_ = false;
};

}  // namespace upi::maintenance
