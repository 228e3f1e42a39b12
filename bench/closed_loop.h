// The closed-loop client driver of the multi-client benches
// (bench_throughput's three sweeps and its metrics-overhead loop,
// bench_device_profiles --wal): N client threads, each with its own
// engine::Session, submit one operation, wait for it, and only then submit
// the next. A sweep supplies the operation; what the window measured comes
// back for its row and its gate.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/database.h"
#include "engine/session.h"

namespace upi::bench {

/// One closed-loop window: its wall seconds, from the first client's start
/// to the last client's end, and for every operation the wall microseconds
/// around submit + wait and the simulated device milliseconds its session
/// measured (QueryResult::sim_ms).
struct ClosedLoopRun {
  double wall_s = 0.0;
  std::vector<double> wall_us;
  std::vector<double> sim_ms;

  double ops_per_sec() const {
    return static_cast<double>(wall_us.size()) / wall_s;
  }
};

/// Issues operation `op` of client `client` on that client's session.
using SubmitOp = std::function<std::future<Result<engine::QueryResult>>(
    engine::Session& session, size_t client, size_t op)>;

/// Runs `clients` threads of `ops` operations each against `db`. An
/// operation that fails ends the bench (CheckOk).
inline ClosedLoopRun RunClosedLoop(engine::Database* db, size_t clients,
                                   size_t ops, const SubmitOp& submit) {
  std::vector<std::vector<double>> wall(clients), sim(clients);
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      engine::Session session(db);
      wall[c].reserve(ops);
      sim[c].reserve(ops);
      for (size_t op = 0; op < ops; ++op) {
        auto op_t0 = std::chrono::steady_clock::now();
        Result<engine::QueryResult> res = submit(session, c, op).get();
        CheckOk(res.status());
        auto op_t1 = std::chrono::steady_clock::now();
        wall[c].push_back(
            std::chrono::duration<double, std::micro>(op_t1 - op_t0).count());
        sim[c].push_back(res.value().sim_ms);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopRun run;
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  for (size_t c = 0; c < clients; ++c) {
    run.wall_us.insert(run.wall_us.end(), wall[c].begin(), wall[c].end());
    run.sim_ms.insert(run.sim_ms.end(), sim[c].begin(), sim[c].end());
  }
  return run;
}

/// The element of rank p * (n - 1) (0 <= p <= 1); 0 for an empty series.
/// Reorders `v`.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + idx, v->end());
  return (*v)[idx];
}

struct Tail {
  double p50 = 0.0;
  double p99 = 0.0;
};

/// The p50 and p99 of one latency series. Reorders `v`.
inline Tail P50P99(std::vector<double>* v) {
  Tail t;
  t.p50 = Percentile(v, 0.50);
  t.p99 = Percentile(v, 0.99);
  return t;
}

}  // namespace upi::bench
