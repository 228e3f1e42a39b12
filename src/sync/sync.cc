#include "sync/sync.h"

#ifdef UPI_SYNC_CHECKS

#include <execinfo.h>

#include <cstddef>
#include <cstdio>

#include "common/check.h"

namespace upi::sync {
namespace detail {
namespace {

struct HeldLock {
  const void* instance;
  LockRank rank;
  bool shared;
};

// Deepest real nesting today is 4 (FracturedUpi -> DbEnv -> PageFile ->
// SimDiskHead during a flush's file creation); 16 leaves generous headroom.
constexpr int kMaxHeld = 16;

struct ThreadLockStack {
  HeldLock held[kMaxHeld];
  int depth = 0;
};

thread_local ThreadLockStack tls_stack;

// Renders "held (outer->inner): MaintenanceManager(20), TaskQueue(30,shared)"
// into buf. Empty stack renders as "held: none".
void FormatHeldStack(const ThreadLockStack& s, char* buf, size_t cap) {
  size_t off = 0;
  auto append = [&](const char* fmt, auto... args) {
    if (off >= cap) return;
    int n = std::snprintf(buf + off, cap - off, fmt, args...);
    if (n > 0) off += static_cast<size_t>(n);
  };
  if (s.depth == 0) {
    append("%s", "held: none");
    return;
  }
  append("%s", "held (outer->inner):");
  for (int i = 0; i < s.depth; ++i) {
    append(" %s(%u%s)%s", LockRankName(s.held[i].rank),
           static_cast<unsigned>(s.held[i].rank),
           s.held[i].shared ? ",shared" : "", i + 1 < s.depth ? "," : "");
  }
}

// The call stack is the half of the story the held-lock stack can't tell
// (which acquire site misbehaved); glibc's backtrace is async-signal-safe
// enough for an abort path and costs nothing until a check actually fires.
void DumpBacktrace() {
  void* frames[32];
  int n = backtrace(frames, 32);
  backtrace_symbols_fd(frames, n, 2);
}

[[noreturn]] void AbortWithStack(const char* what, LockRank rank,
                                 bool shared) {
  char held[512];
  FormatHeldStack(tls_stack, held, sizeof(held));
  char msg[768];
  std::snprintf(msg, sizeof(msg), "%s %s(%u%s); %s", what, LockRankName(rank),
                static_cast<unsigned>(rank), shared ? ",shared" : "", held);
  DumpBacktrace();
  common::CheckFailed(__FILE__, __LINE__, "sync lock-rank check", msg);
}

}  // namespace

void OnAcquire(const void* instance, LockRank rank, bool shared) {
  ThreadLockStack& s = tls_stack;
  for (int i = 0; i < s.depth; ++i) {
    if (s.held[i].instance == instance) {
      AbortWithStack("re-entrant acquisition of", rank, shared);
    }
  }
  // Each push is validated against everything held, so the stack is always
  // strictly rank-increasing (out-of-order unlock only removes entries):
  // comparing against the innermost (last) entry covers the whole stack.
  if (s.depth > 0 && rank <= s.held[s.depth - 1].rank) {
    AbortWithStack("lock-rank inversion acquiring", rank, shared);
  }
  UPI_CHECK(s.depth < kMaxHeld, "sync: per-thread lock stack overflow");
  s.held[s.depth++] = HeldLock{instance, rank, shared};
}

void OnRelease(const void* instance) {
  ThreadLockStack& s = tls_stack;
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.held[i].instance != instance) continue;
    for (int j = i; j + 1 < s.depth; ++j) s.held[j] = s.held[j + 1];
    --s.depth;
    return;
  }
  UPI_CHECK(false, "sync: releasing a lock this thread does not hold");
}

void OnCondVarWait(const void* mutex, bool io_wait) {
  const ThreadLockStack& s = tls_stack;
  bool found = false;
  for (int i = 0; i < s.depth; ++i) {
    if (s.held[i].instance == mutex) {
      found = true;
    } else if (!(io_wait && LockRankAllowsIo(s.held[i].rank))) {
      AbortWithStack("condvar wait while still holding",
                     s.held[i].rank, s.held[i].shared);
    }
  }
  UPI_CHECK(found, "sync: condvar wait on a mutex this thread does not hold");
}

}  // namespace detail

void CheckIoAllowed(const char* what) {
  const detail::ThreadLockStack& s = detail::tls_stack;
  for (int i = 0; i < s.depth; ++i) {
    if (LockRankAllowsIo(s.held[i].rank)) continue;
    char held[512];
    detail::FormatHeldStack(s, held, sizeof(held));
    char msg[768];
    std::snprintf(msg, sizeof(msg),
                  "simulated I/O (%s) charged while holding a no-I/O latch "
                  "%s(%u); %s",
                  what, LockRankName(s.held[i].rank),
                  static_cast<unsigned>(s.held[i].rank), held);
    common::CheckFailed(__FILE__, __LINE__, "sync I/O-latch check", msg);
  }
}

}  // namespace upi::sync

#endif  // UPI_SYNC_CHECKS
