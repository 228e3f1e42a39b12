// Crash recovery: logical-redo replay of the WAL into a Database.
//
// The log is scanned and replayed in one pass: each intact record is decoded
// and applied as it is read, so recovery holds one read buffer and the
// largest record, never the whole log.
//
// Called by Database's constructor (before the WalWriter is armed, so
// replayed operations are not re-logged) with maintenance watermark
// notifications paused (so replay does not schedule flushes the original
// run never performed — the logged kMaintenance records reproduce the
// original flush/merge sequence instead, giving the recovered database the
// same fracture layout, not just the same logical rows).
//
// Replay tolerance: a record that fails to apply is counted and skipped,
// not fatal — the write it journals failed identically before the crash
// (the engine's apply paths are deterministic), so skipping reproduces the
// pre-crash state.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "wal/wal_format.h"

namespace upi::engine {
class Database;
}

namespace upi::wal {

struct RecoveryStats {
  uint64_t records = 0;      // intact records replayed (failed ones included)
  uint64_t creates = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t maintenance = 0;  // flush / merge records
  uint64_t failed = 0;       // records whose apply returned an error
  uint64_t valid_bytes = 0;  // accepted log prefix (header included)
  uint64_t dropped_bytes = 0;  // torn tail discarded
  double sim_ms = 0.0;       // simulated device time replay charged
};

/// Scans the log at `path` (ScanLogFile) and replays every intact record
/// into `db` in order. A missing log replays nothing (valid_bytes 0). Fails
/// when the file is not a WAL or cannot be read, and on a
/// malformed-but-CRC-valid record (software bug, not crash damage — a torn
/// tail never reaches the decoder).
Result<RecoveryStats> Recover(engine::Database* db, const std::string& path);

}  // namespace upi::wal
