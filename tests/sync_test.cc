// The lock-rank enforcement layer (src/sync/): rank inversions, re-entrant
// acquisition, condvar waits that pin another lock, and latches held across
// simulated I/O must all abort in UPI_SYNC_CHECKS builds — and the wrappers
// must be free in release builds. The checked death tests compile out (with
// a skip marker) when UPI_SYNC_CHECKS is off, so the suite is green in every
// build flavor; CI's sync-checks job runs the real thing.

#include <mutex>
#include <shared_mutex>
#include <thread>

#include <gtest/gtest.h>

#include "maintenance/task_queue.h"
#include "sim/sim_disk.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "sync/sync.h"

namespace upi::sync {
namespace {

/// A page whose load by a second thread stays in flight for a while of real
/// time (its simulated read is realtime-scaled), so a Fetch of the same page
/// from the calling thread waits on the buffer-pool shard's condvar.
struct InFlightLoad {
  sim::SimDisk disk;
  storage::PageFile file{&disk, "f", 4096};
  storage::BufferPool pool{1 << 20, 1};
  storage::PageId id = file.Allocate();
  std::thread loader;

  explicit InFlightLoad(double wall_us_per_sim_ms) {
    file.Write(id, "page");
    disk.ResetHead();  // the load pays a full seek
    disk.SetRealtimeScale(wall_us_per_sim_ms);
    loader = std::thread([this] {
      pool.Fetch(&file, id);
      pool.Unpin(&file, id);
    });
    // The loading frame is installed (and charged to the pool) before the
    // loader starts its read.
    while (pool.cached_bytes() == 0) std::this_thread::yield();
  }
  ~InFlightLoad() { loader.join(); }
};

TEST(LockRankTest, NamesAndIoPolicy) {
  EXPECT_STREQ(LockRankName(LockRank::kBufferPoolShard), "BufferPoolShard");
  EXPECT_STREQ(LockRankName(LockRank::kFracturedUpi), "FracturedUpi");
  EXPECT_STREQ(LockRankName(LockRank::kWalGate), "WalGate");
  EXPECT_STREQ(LockRankName(LockRank::kWalSync), "WalSync");
  EXPECT_STREQ(LockRankName(LockRank::kWalTail), "WalTail");
  // Exactly three ranks may span a SimDisk charge: the fracture list
  // (queries read pages under it), the WAL checkpoint gate (the snapshot
  // scan and rotation run under it), and the WAL sync lock (held across the
  // durable write it serializes). Everything else is a short latch — the
  // WAL tail latch included: it orders LSNs and swaps buffers, never I/O.
  EXPECT_TRUE(LockRankAllowsIo(LockRank::kFracturedUpi));
  EXPECT_TRUE(LockRankAllowsIo(LockRank::kWalGate));
  EXPECT_TRUE(LockRankAllowsIo(LockRank::kWalSync));
  EXPECT_FALSE(LockRankAllowsIo(LockRank::kWalTail));
  EXPECT_FALSE(LockRankAllowsIo(LockRank::kBufferPoolShard));
  EXPECT_FALSE(LockRankAllowsIo(LockRank::kPageFile));
  EXPECT_FALSE(LockRankAllowsIo(LockRank::kMetricsRegistry));
}

TEST(SyncMutexTest, OrderedAcquisitionAndReleaseWork) {
  // static: TSan's lock-order graph keys mutexes by address and remembers
  // them past destruction, so stack slots reused by another test's mutexes
  // would read as a cross-test inversion. Distinct static instances keep
  // each test's ordering facts separate.
  static Mutex outer(LockRank::kMaintenanceManager);
  static Mutex inner(LockRank::kTaskQueue);
  {
    std::lock_guard<Mutex> a(outer);
    std::lock_guard<Mutex> b(inner);
  }
  // Out-of-order release (unlock the outer first) is legal: the buffer
  // pool's Fetch unlocks and relocks its unique_lock around I/O.
  std::unique_lock<Mutex> a(outer);
  std::unique_lock<Mutex> b(inner);
  a.unlock();
  b.unlock();
  // try_lock participates in the bookkeeping the same way.
  ASSERT_TRUE(outer.try_lock());
  outer.unlock();
}

TEST(SyncSharedMutexTest, SharedThenExclusiveByRankWorks) {
  static SharedMutex outer(LockRank::kFracturedUpi);  // static: see above
  static Mutex inner(LockRank::kPageFile);
  std::shared_lock<SharedMutex> s(outer);
  std::lock_guard<Mutex> x(inner);
}

TEST(SyncCondVarTest, WaitWithOnlyItsMutexHeldWorks) {
  Mutex mu(LockRank::kTaskQueue);
  CondVar cv;
  bool ready = false;
  std::thread t([&] {
    std::lock_guard<Mutex> lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    std::unique_lock<Mutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
  }
  t.join();
}

#ifdef UPI_SYNC_CHECKS

TEST(SyncChecksDeathTest, RankInversionAborts) {
  Mutex inner(LockRank::kPageFile);
  Mutex outer(LockRank::kFracturedUpi);
  std::lock_guard<Mutex> held(inner);
  EXPECT_DEATH(outer.lock(), "lock-rank inversion.*FracturedUpi.*PageFile");
}

TEST(SyncChecksDeathTest, EqualRankAborts) {
  // Equal ranks never nest: shard latches and stripes are taken one at a
  // time. Strictly-increasing means a second lock of the same rank aborts.
  Mutex a(LockRank::kBufferPoolShard);
  Mutex b(LockRank::kBufferPoolShard);
  std::lock_guard<Mutex> held(a);
  EXPECT_DEATH(b.lock(), "lock-rank inversion.*BufferPoolShard");
}

TEST(SyncChecksDeathTest, ReentrantAcquisitionAborts) {
  Mutex mu(LockRank::kTaskQueue);
  std::lock_guard<Mutex> held(mu);
  EXPECT_DEATH(mu.lock(), "re-entrant acquisition.*TaskQueue");
}

TEST(SyncChecksDeathTest, SharedUpgradeAborts) {
  // shared -> exclusive on the same instance is an upgrade attempt — UB on
  // std::shared_mutex, deadlock in practice. Caught as re-entrancy.
  SharedMutex mu(LockRank::kFracturedUpi);
  std::shared_lock<SharedMutex> held(mu);
  EXPECT_DEATH(mu.lock(), "re-entrant acquisition.*FracturedUpi");
}

TEST(SyncChecksDeathTest, RecursiveSharedAborts) {
  // Recursive read-locking is UB too (it can deadlock behind a queued
  // writer on writer-preferring implementations) — the exact bug the
  // checker flushed out of FracturedPtqCursor's callers.
  SharedMutex mu(LockRank::kFracturedUpi);
  std::shared_lock<SharedMutex> held(mu);
  EXPECT_DEATH(mu.lock_shared(), "re-entrant acquisition.*FracturedUpi");
}

TEST(SyncChecksDeathTest, CondVarWaitHoldingAnotherLockAborts) {
  Mutex outer(LockRank::kMaintenanceManager);
  Mutex mu(LockRank::kTaskQueue);
  CondVar cv;
  std::lock_guard<Mutex> pinned(outer);
  std::unique_lock<Mutex> lock(mu);
  EXPECT_DEATH(cv.wait(lock),
               "condvar wait while still holding.*MaintenanceManager");
}

TEST(SyncChecksDeathTest, IoChargeUnderNoIoLatchAborts) {
  sim::SimDisk disk;
  uint64_t addr = disk.Allocate(4096);
  Mutex latch(LockRank::kBufferPoolShard);
  std::lock_guard<Mutex> held(latch);
  EXPECT_DEATH(disk.Read(addr, 4096),
               "simulated I/O \\(SimDisk::Read\\).*BufferPoolShard");
}

TEST(SyncChecksDeathTest, IoChargeUnderFracturedUpiLockIsAllowed) {
  // The one sanctioned I/O-spanning rank: queries hold the fracture list
  // shared across their page reads, flushes hold it exclusive.
  sim::SimDisk disk;
  uint64_t addr = disk.Allocate(4096);
  SharedMutex table_lock(LockRank::kFracturedUpi);
  std::shared_lock<SharedMutex> held(table_lock);
  disk.Read(addr, 4096);  // must not abort
  EXPECT_EQ(disk.stats().reads, 1u);
}

TEST(SyncChecksDeathTest, IoChargeUnderWalTailLatchAborts) {
  // The group-commit tail latch orders LSNs and swaps pending buffers; a
  // device charge under it would put rotational latency inside the latch
  // every committer contends on. The leader must release it before syncing.
  sim::SimDisk disk;
  uint64_t addr = disk.Allocate(4096);
  Mutex tail(LockRank::kWalTail);
  std::lock_guard<Mutex> held(tail);
  EXPECT_DEATH(disk.Read(addr, 4096),
               "simulated I/O \\(SimDisk::Read\\).*WalTail");
}

TEST(SyncChecksDeathTest, WalTailBeforeSyncInversionAborts) {
  // The WAL's internal order is sync before tail (the leader publishes the
  // durable LSN under tail only after its device write). Taking them the
  // other way is the lost-wakeup deadlock shape; the ranks forbid it.
  static Mutex sync_mu(LockRank::kWalSync);
  static Mutex tail_mu(LockRank::kWalTail);
  std::lock_guard<Mutex> tail(tail_mu);
  // The transcript names the lock being acquired, then the held stack.
  EXPECT_DEATH(sync_mu.lock(), "lock-rank inversion.*WalSync.*WalTail");
}

TEST(SyncChecksDeathTest, IoChargeUnderWalSyncLockIsAllowed) {
  // The sanctioned shape: the sync lock exists to serialize durable writes,
  // so it legitimately spans the simulated device charge.
  sim::SimDisk disk;
  uint64_t addr = disk.Allocate(4096);
  Mutex sync_mu(LockRank::kWalSync);
  std::lock_guard<Mutex> held(sync_mu);
  disk.Read(addr, 4096);  // must not abort
  EXPECT_EQ(disk.stats().reads, 1u);
}

TEST(SyncChecksDeathTest, PoolLoadWaitUnderNoIoLatchAborts) {
  // Waiting for another thread's in-flight page load is an I/O wait: it may
  // span only the I/O-sanctioned ranks. The WAL tail latch is not one, so
  // pinning it across the wait still aborts.
  EXPECT_DEATH(
      {
        InFlightLoad load(/*wall_us_per_sim_ms=*/1e6);  // seconds in flight
        static Mutex tail(LockRank::kWalTail);
        std::lock_guard<Mutex> held(tail);
        load.pool.Fetch(&load.file, load.id);
      },
      "condvar wait while still holding WalTail");
}

TEST(SyncChecksDeathTest, PoolLoadWaitUnderFracturedUpiLockIsAllowed) {
  // The sanctioned shape: a fractured query holds its table's lock shared
  // across its page reads, and so across a wait for a page another reader
  // is loading — it could have read the page itself.
  InFlightLoad load(/*wall_us_per_sim_ms=*/2e4);  // ~0.1 s in flight
  SharedMutex table_lock(LockRank::kFracturedUpi);
  {
    std::shared_lock<SharedMutex> held(table_lock);
    EXPECT_EQ(*load.pool.Fetch(&load.file, load.id), "page");  // no abort
    load.pool.Unpin(&load.file, load.id);
  }
  EXPECT_EQ(load.pool.misses(), 1u);  // one device read, shared
}

TEST(SyncChecksDeathTest, OppositeOrderDeadlockAbortsDeterministically) {
  // The deadlock-order regression: one thread takes a BufferPool shard
  // latch then touches the maintenance queue; another takes them in the
  // documented order. Without rank checking this is a timing-dependent
  // deadlock waiting for unlucky scheduling; under UPI_SYNC_CHECKS the
  // wrong-order thread aborts deterministically on its second acquisition —
  // no matter what the other thread is doing.
  maintenance::TaskQueue queue;  // its mutex is ranked kTaskQueue (30)
  Mutex shard_latch(LockRank::kBufferPoolShard);  // 80

  // Documented order: queue (30) before shard latch (80). Fine.
  {
    std::lock_guard<Mutex> latch_after(shard_latch);
    (void)latch_after;
  }
  (void)queue.size();

  // Opposite order: shard latch (80) held, then the queue mutex (30).
  EXPECT_DEATH(
      {
        std::lock_guard<Mutex> held(shard_latch);
        (void)queue.size();  // acquires TaskQueue(30) under BufferPoolShard(80)
      },
      "lock-rank inversion.*TaskQueue.*BufferPoolShard");
}

#else  // !UPI_SYNC_CHECKS

TEST(SyncReleaseBuildTest, WrappersAreLayoutIdenticalAndFree) {
  // The zero-overhead contract, smoke-tested at runtime on top of the
  // header's static_asserts: a release-build wrapper is a bare std::mutex.
  static_assert(sizeof(Mutex) == sizeof(std::mutex));
  static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex));
  static_assert(sizeof(CondVar) == sizeof(std::condition_variable));
  Mutex mu(LockRank::kTaskQueue);
  // A release-build wrapper performs no per-thread bookkeeping: recursive
  // rank use that would abort under checks simply works on distinct
  // instances, and a tight lock/unlock loop is just the primitive.
  for (int i = 0; i < 1000; ++i) {
    std::lock_guard<Mutex> lock(mu);
  }
  SUCCEED();
}

TEST(SyncReleaseBuildTest, CheckedDeathTestsRequireSyncChecks) {
  GTEST_SKIP() << "build without UPI_SYNC_CHECKS: abort-path death tests "
                  "compiled out (CI's sync-checks job runs them)";
}

#endif  // UPI_SYNC_CHECKS

}  // namespace
}  // namespace upi::sync
