// Rank-checked synchronization primitives — the only mutexes allowed in the
// engine (tools/lint_invariants.py fails CI on a raw std::mutex /
// std::shared_mutex / std::condition_variable anywhere else under src/).
//
// Every sync::Mutex / sync::SharedMutex is constructed with a LockRank from
// the central hierarchy in sync/lock_rank.h. Two build modes:
//
//  * UPI_SYNC_CHECKS defined (the CMake option; CI runs a Debug ctest job
//    with it ON): each thread keeps a stack of the checked locks it holds.
//    Every acquisition validates, and aborts via UPI_CHECK with both the
//    held stack's and the offender's lock names printed, on:
//      - rank inversion: acquiring a rank <= any currently held rank;
//      - re-entrant acquisition of the same instance (which also catches a
//        shared -> exclusive upgrade attempt on one SharedMutex, UB on the
//        underlying std::shared_mutex);
//      - waiting on a sync::CondVar while holding any lock besides the one
//        being waited with (a blocked thread must not pin an outer lock) —
//        except that an I/O wait (CondVar::io_wait) may also span the
//        ranks an I/O may span;
//      - holding any latch whose rank forbids it across a simulated I/O
//        charge (SimDisk calls sync::CheckIoAllowed on every transfer).
//
//  * UPI_SYNC_CHECKS absent (every release/bench build): the wrappers are
//    bare std::mutex / std::shared_mutex / std::condition_variable — same
//    size, same alignment (static_assert'd below), every method a direct
//    inline forward, and CheckIoAllowed an empty inline. bench_throughput
//    --smoke gates the migration at <= 1% ops/s.
//
// Locks must be released on the thread that acquired them (already required
// by the std primitives; the per-thread stack additionally relies on it).
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "sync/lock_rank.h"

namespace upi::sync {

#ifdef UPI_SYNC_CHECKS

namespace detail {

/// Registers an acquisition of `instance` at `rank` on this thread's stack,
/// aborting on inversion or re-entrancy. `shared` only affects the printed
/// transcript.
void OnAcquire(const void* instance, LockRank rank, bool shared);
/// Pops `instance` from this thread's stack (any position: early unlock of
/// a unique_lock is legal and used by the buffer pool).
void OnRelease(const void* instance);
/// Validates a condvar wait: `mutex` must be the only checked lock held,
/// apart from — when `io_wait` — locks whose rank allows I/O.
void OnCondVarWait(const void* mutex, bool io_wait);

}  // namespace detail

/// Aborts if this thread holds any lock whose rank forbids being held
/// across a simulated I/O charge. SimDisk calls this on every Read/Write/
/// ChargeFileOpen; `what` names the charge in the transcript.
void CheckIoAllowed(const char* what);

class Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
    detail::OnAcquire(this, rank_, /*shared=*/false);
    mu_.lock();
  }
  bool try_lock() {
    // Validate first: even a try_lock on an instance this thread already
    // holds is UB on the underlying std::mutex.
    detail::OnAcquire(this, rank_, /*shared=*/false);
    if (!mu_.try_lock()) {
      detail::OnRelease(this);
      return false;
    }
    return true;
  }
  void unlock() {
    detail::OnRelease(this);
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const LockRank rank_;
};

class SharedMutex {
 public:
  explicit SharedMutex(LockRank rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() {
    detail::OnAcquire(this, rank_, /*shared=*/false);
    mu_.lock();
  }
  bool try_lock() {
    detail::OnAcquire(this, rank_, /*shared=*/false);
    if (!mu_.try_lock()) {
      detail::OnRelease(this);
      return false;
    }
    return true;
  }
  void unlock() {
    detail::OnRelease(this);
    mu_.unlock();
  }

  void lock_shared() {
    detail::OnAcquire(this, rank_, /*shared=*/true);
    mu_.lock_shared();
  }
  bool try_lock_shared() {
    detail::OnAcquire(this, rank_, /*shared=*/true);
    if (!mu_.try_lock_shared()) {
      detail::OnRelease(this);
      return false;
    }
    return true;
  }
  void unlock_shared() {
    detail::OnRelease(this);
    mu_.unlock_shared();
  }

  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
};

/// Condition variable paired with sync::Mutex. Waits validate that the
/// associated mutex is the only checked lock this thread holds — blocking
/// while pinning an outer (lower-rank) lock is the condvar flavor of a
/// deadlock. The held-stack entry for the mutex is deliberately kept across
/// the wait: the thread cannot run (and thus cannot acquire) while blocked,
/// and it owns the mutex again before the wait returns.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(std::unique_lock<Mutex>& lock) { Wait(lock, /*io_wait=*/false); }

  /// A wait for another thread's device transfer that this thread could
  /// have issued itself (the buffer pool's in-flight page load or
  /// write-back), where the transferring thread needs no lock the waiter
  /// holds. Like the transfer, it may span locks whose rank allows I/O
  /// (LockRankAllowsIo); any other held lock aborts as in wait().
  void io_wait(std::unique_lock<Mutex>& lock) { Wait(lock, /*io_wait=*/true); }

  template <typename Predicate>
  void wait(std::unique_lock<Mutex>& lock, Predicate pred) {
    while (!pred()) wait(lock);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  void Wait(std::unique_lock<Mutex>& lock, bool io_wait) {
    detail::OnCondVarWait(lock.mutex(), io_wait);
    std::unique_lock<std::mutex> native(lock.mutex()->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  std::condition_variable cv_;
};

#else  // !UPI_SYNC_CHECKS — bare std primitives, zero overhead.

inline void CheckIoAllowed(const char* /*what*/) {}

class Mutex {
 public:
  explicit Mutex(LockRank /*rank*/) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

class SharedMutex {
 public:
  explicit SharedMutex(LockRank /*rank*/) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }
  void lock_shared() { mu_.lock_shared(); }
  bool try_lock_shared() { return mu_.try_lock_shared(); }
  void unlock_shared() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(std::unique_lock<Mutex>& lock) {
    std::unique_lock<std::mutex> native(lock.mutex()->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void io_wait(std::unique_lock<Mutex>& lock) { wait(lock); }

  template <typename Predicate>
  void wait(std::unique_lock<Mutex>& lock, Predicate pred) {
    std::unique_lock<std::mutex> native(lock.mutex()->mu_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// The release-build contract: the wrappers add nothing to the std types.
static_assert(sizeof(Mutex) == sizeof(std::mutex) &&
                  alignof(Mutex) == alignof(std::mutex),
              "release-build sync::Mutex must be layout-identical to "
              "std::mutex");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex) &&
                  alignof(SharedMutex) == alignof(std::shared_mutex),
              "release-build sync::SharedMutex must be layout-identical to "
              "std::shared_mutex");
static_assert(sizeof(CondVar) == sizeof(std::condition_variable) &&
                  alignof(CondVar) == alignof(std::condition_variable),
              "release-build sync::CondVar must be layout-identical to "
              "std::condition_variable");

#endif  // UPI_SYNC_CHECKS

}  // namespace upi::sync
