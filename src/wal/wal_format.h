// The write-ahead log's on-disk format: CRC-framed logical-redo records.
//
// The log is *logical*: it records the operations that change a Database's
// durable contents — table creation (with its bulk/snapshot rows), tuple
// inserts and deletes, and the maintenance operations (flush / merge) that
// reshape a Fractured UPI — not page images. Replaying the records in log
// order through the normal engine paths reconstructs tables, fractures, and
// per-shard partition state; because every query path orders results
// deterministically (confidence DESC, TupleID ASC on ties) and probability
// encodings are quantized (common/coding.h), the recovered database answers
// queries bit-identically to the pre-crash one.
//
// Layout:
//
//   file   := header frame*
//   header := "UPIWAL01"                            (8 bytes)
//   frame  := len:u32le crc:u32le payload[len]      (crc = CRC32(payload))
//   payload:= type:u8 body
//
// Record bodies (all integers little-endian via common/coding.h; `lp` is a
// varint32 length-prefixed byte string):
//
//   type | record        | body
//   -----+---------------+---------------------------------------------------
//     1  | CreateTable   | kind:u8 name:lp schema options kind-specific
//        |               | secondary-columns tuples (see wal_format.cc)
//     2  | Insert        | name:lp tuple:lp
//     3  | Delete        | name:lp tuple:lp
//     4  | Maintenance   | name:lp shard:i32 op:u8 merge_count:varint
//
// Torn-tail contract: ScanLogFile() accepts any valid prefix of frames and
// reports the byte length of that prefix plus how many trailing bytes it
// dropped — a crash mid-append leaves a short or CRC-failing final frame,
// which recovery truncates away rather than rejecting the log.
//
// Every bulk path holds one copy of its data: an encoder writes its payload
// after an empty header slot and WalWriter seals the frame in place
// (SealFrame), a checkpoint writes each table's frame before it scans the
// next, and ScanLogFile reads frame by frame through one fixed buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/status.h"
#include "core/fractured_upi.h"
#include "core/upi.h"
#include "engine/partition.h"

namespace upi::wal {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes,
/// eight bytes per step (slicing-by-8).
uint32_t Crc32(const char* data, size_t n);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

inline constexpr char kLogMagic[] = "UPIWAL01";  // 8 chars + NUL
inline constexpr size_t kHeaderBytes = 8;
inline constexpr size_t kFrameOverhead = 8;  // len + crc
/// Sanity cap on a single frame's payload; a length field above this is
/// treated as a torn/garbage tail, not an allocation request.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 30;

enum class RecordType : uint8_t {
  kCreateTable = 1,
  kInsert = 2,
  kDelete = 3,
  kMaintenance = 4,
};

/// The maintenance record's op byte is core::MaintenanceOp's value.
using MaintenanceOp = core::MaintenanceOp;

/// The table design a create record re-creates, pinned to stable wire
/// values. Outside this codec, engine::Database::CreateTable holds the one
/// switch over it.
enum class TableKind : uint8_t {
  kUpi = 0,
  kFractured = 1,
  kUnclustered = 2,
  kPartitioned = 3,
};

/// Everything needed to re-create a table: Database::CreateTable's argument,
/// beside the name and tuples. Each engine::Table retains its spec so
/// checkpoints can snapshot live rows into a fresh CreateTable record.
struct TableSpec {
  TableKind kind = TableKind::kUpi;
  catalog::Schema schema;
  core::UpiOptions options;
  std::vector<int> secondary_columns;
  int primary_column = 0;                // kUnclustered
  std::vector<int> pii_columns;          // kUnclustered
  engine::PartitionOptions partition;    // kPartitioned
};

/// One decoded record (tagged by `type`; unrelated fields left default).
struct WalRecord {
  RecordType type = RecordType::kInsert;
  std::string table;
  // kCreateTable
  TableSpec spec;
  std::vector<catalog::Tuple> tuples;
  // kInsert / kDelete
  catalog::Tuple tuple;
  // kMaintenance
  int32_t shard = -1;  // partitioned shard index; -1 = the table itself
  MaintenanceOp op = MaintenanceOp::kFlush;
  uint64_t merge_count = 0;
};

// --- Frame encoders. --------------------------------------------------------
//
// Each returns an unsealed frame: a kFrameOverhead-byte slot for the length
// and CRC, then the payload. SealFrame fills the slot in place, so a record
// is framed where it was encoded, never copied into a second buffer.

std::string EncodeCreateTable(const std::string& name, const TableSpec& spec,
                              const std::vector<catalog::Tuple>& tuples);
/// The same record from tuples already serialized (a checkpoint's scan):
/// byte for byte what the decoded tuples encode to.
std::string EncodeCreateTable(const std::string& name, const TableSpec& spec,
                              const std::vector<catalog::EncodedTuple>& tuples);
std::string EncodeInsert(const std::string& table, const catalog::Tuple& t);
std::string EncodeDelete(const std::string& table, const catalog::Tuple& t);
std::string EncodeMaintenance(const std::string& table, int32_t shard,
                              MaintenanceOp op, uint64_t merge_count);

/// Writes the length and CRC of `frame`'s payload into its header slot.
void SealFrame(std::string* frame);

/// The payload of an encoded frame, sealed or not.
inline std::string_view FramePayload(std::string_view frame) {
  return frame.substr(kFrameOverhead);
}

Result<WalRecord> DecodeRecord(std::string_view payload);

/// The 8-byte file header.
std::string LogHeader();

/// What a scan found: the byte length of the valid prefix (header
/// included), and the torn/garbage tail bytes dropped after it.
struct LogScan {
  uint64_t valid_bytes = 0;
  uint64_t dropped_bytes = 0;
  bool missing = false;  // no file at that path: a fresh log
};

/// Reads `path` front to back, one frame at a time, through a fixed read
/// buffer and one payload buffer reused across frames, and hands each intact
/// payload to `visit` in log order; the view is valid only during the call.
/// Stops at the torn tail (see the header comment). Fails when the file
/// exists but its header is not a WAL header — silently "recovering" from a
/// wrong file would discard it — when a read fails, or with the first error
/// `visit` returns.
Result<LogScan> ScanLogFile(
    const std::string& path,
    const std::function<Status(std::string_view payload)>& visit);

}  // namespace upi::wal
