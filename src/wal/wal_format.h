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
// Torn-tail contract: ReadLogFile() accepts any valid prefix of frames and
// reports the byte length of that prefix plus how many trailing bytes it
// dropped — a crash mid-append leaves a short or CRC-failing final frame,
// which recovery truncates away rather than rejecting the log.
#pragma once

#include <cstdint>
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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes.
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

// --- Payload encoders (framing is separate; see AppendFrame). --------------

std::string EncodeCreateTable(const std::string& name, const TableSpec& spec,
                              const std::vector<catalog::Tuple>& tuples);
std::string EncodeInsert(const std::string& table, const catalog::Tuple& t);
std::string EncodeDelete(const std::string& table, const catalog::Tuple& t);
std::string EncodeMaintenance(const std::string& table, int32_t shard,
                              MaintenanceOp op, uint64_t merge_count);

Result<WalRecord> DecodeRecord(std::string_view payload);

/// Appends `[len][crc][payload]` to `dst`.
void AppendFrame(std::string* dst, std::string_view payload);

/// The 8-byte file header.
std::string LogHeader();

/// A scanned log: every intact payload, the byte length of the valid prefix
/// (header included), and the torn/garbage tail bytes dropped after it.
struct LogContents {
  std::vector<std::string> payloads;
  uint64_t valid_bytes = 0;
  uint64_t dropped_bytes = 0;
  bool missing = false;  // no file at that path: a fresh log
};

/// Reads and validates `path`, tolerating a torn tail (see the header
/// comment). Fails only when the file exists but its header is not a WAL
/// header — silently "recovering" from a wrong file would discard it.
Result<LogContents> ReadLogFile(const std::string& path);

}  // namespace upi::wal
