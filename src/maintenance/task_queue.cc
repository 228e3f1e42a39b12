#include "maintenance/task_queue.h"

namespace upi::maintenance {

bool TaskQueue::Push(MaintenanceTask task) {
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    if (closed_) return false;
    tasks_.push_back(task);
  }
  cv_.notify_one();
  return true;
}

bool TaskQueue::Pop(MaintenanceTask* out) {
  std::unique_lock<sync::Mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !tasks_.empty(); });
  if (tasks_.empty()) return false;  // closed and drained
  *out = tasks_.front();
  tasks_.pop_front();
  return true;
}

bool TaskQueue::TryPop(MaintenanceTask* out) {
  std::lock_guard<sync::Mutex> lock(mu_);
  if (tasks_.empty()) return false;
  *out = tasks_.front();
  tasks_.pop_front();
  return true;
}

void TaskQueue::Close() {
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

size_t TaskQueue::size() const {
  std::lock_guard<sync::Mutex> lock(mu_);
  return tasks_.size();
}

bool TaskQueue::closed() const {
  std::lock_guard<sync::Mutex> lock(mu_);
  return closed_;
}

}  // namespace upi::maintenance
