#include "engine/session.h"

#include <utility>

namespace upi::engine {

Session::Session(Database* db)
    : db_(db),
      m_ops_(db->metrics()->counter("upi_session_ops_total")),
      m_sim_ms_(db->metrics()->histogram("upi_session_sim_ms")) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

Session::~Session() {
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void Session::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<sync::Mutex> lock(mu_);
      cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::future<Result<QueryResult>> Session::Enqueue(Task task) {
  std::future<Result<QueryResult>> fut = task.get_future();
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++submitted_;
  }
  cv_.notify_one();
  return fut;
}

Result<QueryResult> Session::Measure(
    const std::function<Result<Plan>(std::vector<core::PtqMatch>*)>& run)
    const {
  // The worker's own SimDisk stripe delimits exactly this operation's
  // simulated device time (nothing else runs on this thread).
  sim::ThreadStatsWindow window(db_->env()->disk());
  QueryResult result;
  UPI_ASSIGN_OR_RETURN(result.plan, run(&result.rows));
  result.sim_ms = window.ElapsedMs();
  if (m_ops_ != nullptr) m_ops_->Add();
  if (m_sim_ms_ != nullptr) m_sim_ms_->Record(result.sim_ms);
  return result;
}

std::future<Result<QueryResult>> Session::Submit(const PreparedQuery& prepared,
                                                 std::string value) {
  return Submit(prepared, std::move(value), prepared.query().qt);
}

std::future<Result<QueryResult>> Session::Submit(const PreparedQuery& prepared,
                                                 std::string value, double qt) {
  return Enqueue(Task([this, prepared, value = std::move(value), qt] {
    return Measure([&](std::vector<core::PtqMatch>* rows) {
      return prepared.Bind(value, qt).Execute(rows);
    });
  }));
}

std::future<Result<QueryResult>> Session::Submit(const Table& table, Query q) {
  return Enqueue(Task([this, &table, q = std::move(q)] {
    return Measure([&](std::vector<core::PtqMatch>* rows) {
      return table.Run(q, rows);
    });
  }));
}

std::future<Result<QueryResult>> Session::SubmitInsert(Table& table,
                                                       catalog::Tuple tuple) {
  return Enqueue(Task([this, &table, tuple = std::move(tuple)] {
    return Measure([&](std::vector<core::PtqMatch>*) -> Result<Plan> {
      UPI_RETURN_NOT_OK(table.Insert(tuple));
      return Plan{};
    });
  }));
}

uint64_t Session::submitted() const {
  std::lock_guard<sync::Mutex> lock(mu_);
  return submitted_;
}

}  // namespace upi::engine
