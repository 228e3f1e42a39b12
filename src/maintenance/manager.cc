#include "maintenance/manager.h"

#include "core/fractured_upi.h"
#include "storage/db_env.h"

namespace upi::maintenance {

MaintenanceManager::MaintenanceManager(storage::DbEnv* env,
                                       MaintenanceManagerOptions options)
    : env_(env),
      options_(options),
      policy_(options.policy, env->profile()),
      m_flushes_(env->metrics()->counter("upi_maintenance_flushes_total")),
      m_partial_merges_(
          env->metrics()->counter("upi_maintenance_partial_merges_total")),
      m_full_merges_(
          env->metrics()->counter("upi_maintenance_full_merges_total")),
      m_task_sim_ms_(env->metrics()->histogram("upi_maintenance_task_sim_ms")),
      m_queue_depth_(env->metrics()->gauge("upi_maintenance_queue_depth")) {
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MaintenanceManager::~MaintenanceManager() { Stop(); }

void MaintenanceManager::Register(core::FracturedUpi* table) {
  std::lock_guard<sync::Mutex> lock(mu_);
  tables_.try_emplace(table);
}

bool MaintenanceManager::TryEnqueue(core::FracturedUpi* table,
                                    core::MaintenanceOp op,
                                    size_t merge_count, bool force) {
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) return false;  // not registered
    if (it->second.active) {
      if (force) {
        // Remember the request; it runs as the in-flight task's follow-up.
        it->second.forced = op;
      }
      return false;
    }
    it->second.active = true;
    ++in_flight_;
  }
  if (!queue_.Push(MaintenanceTask{op, table, merge_count})) {
    // Queue closed between the slot claim and the push: release the slot.
    std::lock_guard<sync::Mutex> lock(mu_);
    auto it = tables_.find(table);
    if (it != tables_.end()) it->second.active = false;
    --in_flight_;
    idle_cv_.notify_all();
    return false;
  }
  UpdateQueueGauge();
  return true;
}

void MaintenanceManager::NotifyWrite(core::FracturedUpi* table) {
  if (stopped_.load(std::memory_order_relaxed)) return;
  if (notify_paused_.load(std::memory_order_relaxed)) return;
  if (!policy_.DecideFlush(*table).action.has_value()) return;
  TryEnqueue(table, core::MaintenanceOp::kFlush, 0, /*force=*/false);
}

void MaintenanceManager::ScheduleFlush(core::FracturedUpi* table) {
  TryEnqueue(table, core::MaintenanceOp::kFlush, 0, /*force=*/true);
}

void MaintenanceManager::ScheduleMergeAll(core::FracturedUpi* table) {
  TryEnqueue(table, core::MaintenanceOp::kMergeAll, 0, /*force=*/true);
}

bool MaintenanceManager::ScheduleCheckpoint() {
  if (stopped_.load(std::memory_order_relaxed)) return false;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    if (checkpoint_active_) return false;  // absorbed by the pending one
    checkpoint_active_ = true;
    ++in_flight_;
  }
  if (!queue_.Push(MaintenanceTask{})) {  // table == nullptr: checkpoint
    std::lock_guard<sync::Mutex> lock(mu_);
    checkpoint_active_ = false;
    --in_flight_;
    idle_cv_.notify_all();
    return false;
  }
  UpdateQueueGauge();
  return true;
}

Status MaintenanceManager::Execute(const MaintenanceTask& task) {
  if (task.table == nullptr) {
    return checkpoint_cb_ ? checkpoint_cb_() : Status::OK();
  }
  return task.table->Run(task.op, task.merge_count);
}

void MaintenanceManager::ExecuteAndFollowUp(const MaintenanceTask& task) {
  if (task.table == nullptr) {
    // Checkpoints are database-wide (no per-table slot, no follow-up).
    UpdateQueueGauge();
    sim::StatsWindow window(env_->disk());
    Status st;
    {
      // Maintenance I/O is an independent issuer to the device queue: on a
      // profile with internal parallelism it overlaps with concurrent query
      // traffic (no effect on the spinning disk's single head).
      sim::ConcurrentIoScope io_scope(env_->disk());
      st = Execute(task);
    }
    double sim_ms = window.ElapsedMs();
    if (m_task_sim_ms_ != nullptr) m_task_sim_ms_->Record(sim_ms);
    {
      std::lock_guard<sync::Mutex> lock(mu_);
      ++stats_.checkpoints;
      if (!st.ok() && last_error_.ok()) last_error_ = st;
      checkpoint_active_ = false;
      --in_flight_;
    }
    idle_cv_.notify_all();
    return;
  }
  UpdateQueueGauge();
  sim::StatsWindow window(env_->disk());
  Status st;
  {
    sim::ConcurrentIoScope io_scope(env_->disk());
    st = Execute(task);
  }
  double sim_ms = window.ElapsedMs();
  if (m_task_sim_ms_ != nullptr) m_task_sim_ms_->Record(sim_ms);

  std::optional<core::MaintenanceOp> forced;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    switch (task.op) {
      case core::MaintenanceOp::kFlush:
        ++stats_.flushes;
        stats_.flush_sim_ms += sim_ms;
        if (m_flushes_ != nullptr) m_flushes_->Add();
        break;
      case core::MaintenanceOp::kMergePartial:
        ++stats_.partial_merges;
        stats_.merge_sim_ms += sim_ms;
        if (m_partial_merges_ != nullptr) m_partial_merges_->Add();
        break;
      case core::MaintenanceOp::kMergeAll:
        ++stats_.full_merges;
        stats_.merge_sim_ms += sim_ms;
        if (m_full_merges_ != nullptr) m_full_merges_->Add();
        break;
    }
    if (!st.ok() && last_error_.ok()) last_error_ = st;
    auto it = tables_.find(task.table);
    if (it != tables_.end()) {
      forced = it->second.forced;
      it->second.forced.reset();
    }
  }

  // Follow-up: forced request first, then the policy re-check — writes that
  // accumulated during this task may already be over a watermark, and the
  // flush just installed may have tipped the cost model's merge trigger.
  // (Policy reads table stats; safe here because this thread still owns the
  // table's single maintenance slot.)
  MaintenanceTask next{core::MaintenanceOp::kFlush, task.table, 0};
  bool have_next = false;
  if (forced.has_value()) {
    next.op = *forced;
    have_next = true;
  } else if (st.ok()) {
    Decision d = policy_.DecideFlush(*task.table);
    if (!d.action.has_value()) d = policy_.DecideMerge(*task.table);
    if (d.action.has_value()) {
      next.op = *d.action;
      next.merge_count = d.merge_count;
      have_next = true;
    }
  }

  {
    std::lock_guard<sync::Mutex> lock(mu_);
    auto it = tables_.find(task.table);
    if (it != tables_.end()) {
      // A forced Schedule* may have arrived while the follow-up was being
      // computed above; without this re-check it would be dropped (the table
      // goes inactive with the request recorded but never enqueued).
      if (!have_next && it->second.forced.has_value()) {
        next = MaintenanceTask{*it->second.forced, task.table, 0};
        it->second.forced.reset();
        have_next = true;
      }
      if (have_next && queue_.Push(next)) {
        UpdateQueueGauge();
        return;  // table stays active: the slot passes to the successor task
      }
      it->second.active = false;
      it->second.forced.reset();  // shutdown path: drop, don't go stale
    }
    --in_flight_;
  }
  idle_cv_.notify_all();
}

void MaintenanceManager::WorkerLoop() {
  MaintenanceTask task;
  while (queue_.Pop(&task)) {
    ExecuteAndFollowUp(task);
  }
}

size_t MaintenanceManager::RunPending() {
  size_t executed = 0;
  MaintenanceTask task;
  while (queue_.TryPop(&task)) {
    ExecuteAndFollowUp(task);
    ++executed;
  }
  return executed;
}

void MaintenanceManager::WaitIdle() {
  std::unique_lock<sync::Mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void MaintenanceManager::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Close();  // queued tasks drain; follow-ups are dropped
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // Synchronous mode: anything still queued was never started; release the
  // slots so WaitIdle() can't hang.
  MaintenanceTask task;
  size_t dropped = 0;
  while (queue_.TryPop(&task)) {
    std::lock_guard<sync::Mutex> lock(mu_);
    if (task.table == nullptr) {
      checkpoint_active_ = false;
    } else {
      auto it = tables_.find(task.table);
      if (it != tables_.end()) it->second.active = false;
    }
    --in_flight_;
    ++dropped;
  }
  if (dropped > 0) idle_cv_.notify_all();
}

MaintenanceStats MaintenanceManager::stats() const {
  std::lock_guard<sync::Mutex> lock(mu_);
  return stats_;
}

Status MaintenanceManager::last_error() const {
  std::lock_guard<sync::Mutex> lock(mu_);
  return last_error_;
}

}  // namespace upi::maintenance
