// WalWriter: durable appends to the write-ahead log, with group commit.
//
// Two durability modes (DatabaseOptions::wal_mode):
//
//  * kCommit — every Append() is synchronously made durable before it
//    returns: the appender takes the WAL sync lock, writes its frame to the
//    host file, and charges the log device a sequential append plus the
//    commit barrier (storage/log_file.h). Commit() is a no-op. One
//    rotational latency per operation — the classic fsync-per-commit tax.
//
//  * kGroup — Append() only frames the record into the in-memory pending
//    tail (under the tail latch, no I/O) and assigns it an LSN; Commit(lsn)
//    makes it durable with leader/follower group commit, the GutterTree
//    RootControlBlock double-buffer shape: the first committer to find no
//    sync in flight becomes the leader, swaps the pending buffer for the
//    empty one under the tail latch, releases it, and performs ONE device
//    sync for every record in the batch; committers whose record is covered
//    by the in-flight batch park on a sync::CondVar until the leader
//    publishes the new durable LSN. One rotational latency per *batch*.
//
// Lock protocol (ranks in sync/lock_rank.h; all three are WalWriter-owned):
//
//   gate (kWalGate, SharedMutex, I/O-sanctioned)
//     Logged mutations hold it SHARED across Append() + the in-memory
//     apply, so the checkpoint's EXCLUSIVE hold gives an atomic cut: no
//     operation is ever applied-but-unlogged (it would vanish when the
//     snapshot replaces the log) or logged-into-the-old-file-but-unapplied
//     (it would replay twice on top of the snapshot). Commit() is called
//     AFTER the gate is released — parking on the condvar while pinning the
//     gate would trip the sync checker, and durability needs no atomicity
//     with the apply.
//   sync (kWalSync, Mutex, I/O-sanctioned)
//     Serializes durable writes; held across the host fwrite/fflush and the
//     simulated device charge.
//   tail (kWalTail, Mutex, NO I/O)
//     Guards the LSN counter, the pending frame buffer, the durable
//     watermark, and the group-commit condvar. Always acquired after sync
//     when both are needed.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/db_env.h"
#include "sync/sync.h"

namespace upi::wal {

/// Log sequence number: 1-based count of records ever appended (replayed
/// records included). durable_lsn >= lsn means the record is on disk.
using Lsn = uint64_t;

enum class WalMode {
  kCommit,  // every append synced individually
  kGroup,   // leader/follower batched sync
};

struct WalWriterOptions {
  std::string path;  // host file backing the log
  WalMode mode = WalMode::kGroup;
};

class WalWriter {
 public:
  /// Opens (or creates) the log at options.path for appending.
  /// `valid_bytes` is ScanLogFile()'s validated prefix length — a longer
  /// host file (torn tail) is truncated to it; 0 means create fresh with a
  /// new header (a failed header write is an IOError). `next_lsn` continues
  /// the sequence after the replayed records. Registers the simulated log
  /// device and the upi_wal_* metric families with `env`.
  static Result<std::unique_ptr<WalWriter>> Open(storage::DbEnv* env,
                                                 WalWriterOptions options,
                                                 uint64_t valid_bytes,
                                                 Lsn next_lsn);

  /// Syncs any pending records, then closes the host file.
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// The checkpoint gate (see the lock protocol above). Logged mutations
  /// hold it shared around Append()+apply; Database::Checkpoint() holds it
  /// exclusive.
  sync::SharedMutex& gate() { return gate_; }

  /// Seals `frame` (an encoder's output, see wal_format.h) in place, logs
  /// it and returns its LSN. kCommit writes the frame as it is; kGroup moves
  /// it into an empty pending tail and appends it only behind other pending
  /// records. Caller must hold gate() shared. kCommit: durable on return.
  /// kGroup: durable only after Commit(lsn) (or a later Sync()).
  Lsn Append(std::string frame);

  /// Blocks until `lsn` is durable. Caller must NOT hold gate() — group
  /// followers park on the condvar here. No-op in kCommit mode.
  void Commit(Lsn lsn);

  /// Makes every appended record durable. Safe while holding gate()
  /// exclusive (leads its own sync; never parks).
  void Sync();

  /// Takes one snapshot record (an encoder's unsealed frame), seals it and
  /// writes it to the snapshot file.
  using SnapshotSink = std::function<Status(std::string frame)>;

  /// Atomically replaces the log's contents with the records `write` hands
  /// its sink (the checkpoint's snapshot): each is written to path.tmp as it
  /// arrives, so the snapshot is never held whole; then the file is flushed,
  /// renamed over the live log and reopened for append. Caller must hold
  /// gate() exclusive and have called Sync() first. An error from `write`,
  /// or a failed host write, flush, close or rename (IOError), removes the
  /// temp file, keeps the live log and is returned. On success resets the
  /// bytes-since-checkpoint watermark and charges the snapshot as one
  /// sequential log write plus one barrier.
  Status Rotate(const std::function<Status(const SnapshotSink& sink)>& write);

  /// Charges the simulated log device one sequential scan of the durable
  /// bytes — the read recovery just performed on the host file. Call with no
  /// locks held (Database's constructor, after recovery).
  void ChargeReplayRead() { log_device_->ChargeSequentialRead(); }

  WalMode mode() const { return mode_; }
  /// Host-file bytes guaranteed flushed (header included). A crash loses
  /// nothing before this offset — tests snapshot the log by copying exactly
  /// this many bytes.
  uint64_t durable_bytes() const {
    return durable_bytes_.load(std::memory_order_acquire);
  }
  uint64_t bytes_since_checkpoint() const {
    return bytes_since_checkpoint_.load(std::memory_order_relaxed);
  }
  Lsn last_assigned_lsn() const;
  Lsn durable_lsn() const;

 private:
  WalWriter(WalWriterOptions options, Lsn next_lsn);

  /// Appends `frames` to the host file, flushes, and charges the simulated
  /// device (sequential append + commit barrier). Caller holds sync_mu_.
  void WriteDurable(const std::string& frames, uint64_t batch_records);

  const WalWriterOptions options_;
  const WalMode mode_;
  std::FILE* file_ = nullptr;            // append position == durable bytes
  storage::LogFile* log_device_ = nullptr;  // owned by the DbEnv

  sync::SharedMutex gate_{sync::LockRank::kWalGate};
  sync::Mutex sync_mu_{sync::LockRank::kWalSync};

  mutable sync::Mutex tail_mu_{sync::LockRank::kWalTail};
  sync::CondVar durable_cv_;
  std::string pending_;       // framed records awaiting a sync (kGroup)
  Lsn next_lsn_;              // next LSN to hand out
  Lsn durable_lsn_;           // highest LSN on disk
  Lsn syncing_lsn_ = 0;       // highest LSN in the in-flight batch
  bool sync_in_flight_ = false;

  std::atomic<uint64_t> durable_bytes_{0};
  std::atomic<uint64_t> bytes_since_checkpoint_{0};

  obs::Counter* m_appends_ = nullptr;     // upi_wal_appends_total
  obs::Counter* m_bytes_ = nullptr;       // upi_wal_bytes_total
  obs::Counter* m_syncs_ = nullptr;       // upi_wal_syncs_total
  obs::Counter* m_checkpoints_ = nullptr; // upi_wal_checkpoints_total
  obs::Histogram* m_group_size_ = nullptr;  // upi_wal_group_size
};

}  // namespace upi::wal
