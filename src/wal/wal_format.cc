#include "wal/wal_format.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "common/coding.h"

namespace upi::wal {

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

namespace {

/// entries[0] is the classic bytewise table; entries[k][i] is the CRC of
/// byte i followed by k zero bytes, so one step folds eight input bytes
/// through eight independent lookups.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFFu];
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

}  // namespace

uint32_t Crc32(const char* data, size_t n) {
  const auto& t = Tables().entries;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  // The two words load in host order: little-endian, like the frame fields.
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

namespace {

void PutLP(std::string* dst, std::string_view s) {
  PutVarint32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

/// Reads a length-prefixed byte string in place; `out` views the record.
Status GetLP(const char** p, const char* limit, std::string_view* out) {
  uint32_t len = 0;
  size_t n = GetVarint32(*p, limit, &len);
  if (n == 0) return Status::Corruption("wal: bad length prefix");
  *p += n;
  if (static_cast<size_t>(limit - *p) < len) {
    return Status::Corruption("wal: length prefix past record end");
  }
  *out = std::string_view(*p, len);
  *p += len;
  return Status::OK();
}

Status GetLP(const char** p, const char* limit, std::string* out) {
  std::string_view view;
  UPI_RETURN_NOT_OK(GetLP(p, limit, &view));
  out->assign(view);
  return Status::OK();
}

void PutDouble(std::string* dst, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64BE(dst, bits);
}

Status GetDouble(const char** p, const char* limit, double* out) {
  if (limit - *p < 8) return Status::Corruption("wal: truncated double");
  uint64_t bits = GetFixed64BE(*p);
  *p += 8;
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

void PutInt32(std::string* dst, int32_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v));
}

Status GetInt32(const char** p, const char* limit, int32_t* out) {
  if (limit - *p < 4) return Status::Corruption("wal: truncated int32");
  *out = static_cast<int32_t>(GetFixed32(*p));
  *p += 4;
  return Status::OK();
}

Status GetU8(const char** p, const char* limit, uint8_t* out) {
  if (*p >= limit) return Status::Corruption("wal: truncated byte");
  *out = static_cast<uint8_t>(**p);
  ++*p;
  return Status::OK();
}

Status GetVar(const char** p, const char* limit, uint32_t* out) {
  size_t n = GetVarint32(*p, limit, out);
  if (n == 0) return Status::Corruption("wal: bad varint");
  *p += n;
  return Status::OK();
}

void PutColumnList(std::string* dst, const std::vector<int>& cols) {
  PutVarint32(dst, static_cast<uint32_t>(cols.size()));
  for (int c : cols) PutInt32(dst, c);
}

Status GetColumnList(const char** p, const char* limit,
                     std::vector<int>* out) {
  uint32_t n = 0;
  UPI_RETURN_NOT_OK(GetVar(p, limit, &n));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t c = 0;
    UPI_RETURN_NOT_OK(GetInt32(p, limit, &c));
    out->push_back(c);
  }
  return Status::OK();
}

/// `scratch` holds the serialized tuple; reusing it across tuples saves an
/// allocation per tuple.
void PutTuple(std::string* dst, const catalog::Tuple& t, std::string* scratch) {
  scratch->clear();
  t.Serialize(scratch);
  PutLP(dst, *scratch);
}

Status GetTuple(const char** p, const char* limit, catalog::Tuple* out) {
  std::string_view bytes;
  UPI_RETURN_NOT_OK(GetLP(p, limit, &bytes));
  UPI_ASSIGN_OR_RETURN(*out, catalog::Tuple::Deserialize(bytes));
  return Status::OK();
}

/// An unsealed frame: the empty header slot, then the record type.
std::string NewFrame(RecordType type) {
  std::string frame(kFrameOverhead, '\0');
  frame.push_back(static_cast<char>(type));
  return frame;
}

/// A create record up to its tuples: the name, the spec and the tuple count.
std::string EncodeCreateSpec(const std::string& name, const TableSpec& spec,
                             size_t num_tuples) {
  std::string out = NewFrame(RecordType::kCreateTable);
  out.push_back(static_cast<char>(spec.kind));
  PutLP(&out, name);
  // Schema.
  PutVarint32(&out, static_cast<uint32_t>(spec.schema.num_columns()));
  for (size_t i = 0; i < spec.schema.num_columns(); ++i) {
    const catalog::Column& c = spec.schema.column(i);
    PutLP(&out, c.name);
    out.push_back(static_cast<char>(c.type));
  }
  // UpiOptions.
  PutInt32(&out, spec.options.cluster_column);
  PutDouble(&out, spec.options.cutoff);
  PutFixed32(&out, core::Upi::kPageSize);  // a slot kept for log compatibility
  PutInt32(&out, spec.options.max_secondary_pointers);
  out.push_back(spec.options.charge_open_per_query ? 1 : 0);
  out.push_back(spec.options.enable_pruning ? 1 : 0);
  // Kind-specific.
  switch (spec.kind) {
    case TableKind::kUpi:
    case TableKind::kFractured:
      break;
    case TableKind::kUnclustered:
      PutInt32(&out, spec.primary_column);
      PutColumnList(&out, spec.pii_columns);
      break;
    case TableKind::kPartitioned: {
      const engine::PartitionOptions& p = spec.partition;
      out.push_back(
          p.scheme == engine::PartitionOptions::Scheme::kRange ? 1 : 0);
      PutVarint32(&out, static_cast<uint32_t>(p.num_shards));
      PutVarint32(&out, static_cast<uint32_t>(p.range_splits.size()));
      for (const std::string& s : p.range_splits) PutLP(&out, s);
      // Retired flags, always on: fractured shards, shard pruning, top-k
      // global bound.
      out.append(3, 1);
      break;
    }
  }
  PutColumnList(&out, spec.secondary_columns);
  PutVarint32(&out, static_cast<uint32_t>(num_tuples));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Record encoders
// ---------------------------------------------------------------------------

std::string EncodeCreateTable(const std::string& name, const TableSpec& spec,
                              const std::vector<catalog::Tuple>& tuples) {
  std::string out = EncodeCreateSpec(name, spec, tuples.size());
  std::string scratch;
  for (const catalog::Tuple& t : tuples) PutTuple(&out, t, &scratch);
  return out;
}

std::string EncodeCreateTable(
    const std::string& name, const TableSpec& spec,
    const std::vector<catalog::EncodedTuple>& tuples) {
  std::string out = EncodeCreateSpec(name, spec, tuples.size());
  for (const catalog::EncodedTuple& t : tuples) PutLP(&out, t.bytes());
  return out;
}

namespace {

std::string EncodeTupleOp(RecordType type, const std::string& table,
                          const catalog::Tuple& t) {
  std::string out = NewFrame(type);
  PutLP(&out, table);
  std::string scratch;
  PutTuple(&out, t, &scratch);
  return out;
}

}  // namespace

std::string EncodeInsert(const std::string& table, const catalog::Tuple& t) {
  return EncodeTupleOp(RecordType::kInsert, table, t);
}

std::string EncodeDelete(const std::string& table, const catalog::Tuple& t) {
  return EncodeTupleOp(RecordType::kDelete, table, t);
}

std::string EncodeMaintenance(const std::string& table, int32_t shard,
                              MaintenanceOp op, uint64_t merge_count) {
  std::string out = NewFrame(RecordType::kMaintenance);
  PutLP(&out, table);
  PutInt32(&out, shard);
  out.push_back(static_cast<char>(op));
  PutVarint32(&out, static_cast<uint32_t>(merge_count));
  return out;
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

Result<WalRecord> DecodeRecord(std::string_view payload) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  WalRecord rec;
  uint8_t type = 0;
  UPI_RETURN_NOT_OK(GetU8(&p, limit, &type));
  switch (static_cast<RecordType>(type)) {
    case RecordType::kCreateTable: {
      rec.type = RecordType::kCreateTable;
      uint8_t kind = 0;
      UPI_RETURN_NOT_OK(GetU8(&p, limit, &kind));
      if (kind > static_cast<uint8_t>(TableKind::kPartitioned)) {
        return Status::Corruption("wal: unknown table kind");
      }
      rec.spec.kind = static_cast<TableKind>(kind);
      UPI_RETURN_NOT_OK(GetLP(&p, limit, &rec.table));
      uint32_t ncols = 0;
      UPI_RETURN_NOT_OK(GetVar(&p, limit, &ncols));
      std::vector<catalog::Column> cols;
      cols.reserve(ncols);
      for (uint32_t i = 0; i < ncols; ++i) {
        catalog::Column c;
        UPI_RETURN_NOT_OK(GetLP(&p, limit, &c.name));
        uint8_t t = 0;
        UPI_RETURN_NOT_OK(GetU8(&p, limit, &t));
        c.type = static_cast<catalog::ValueType>(t);
        cols.push_back(std::move(c));
      }
      rec.spec.schema = catalog::Schema(std::move(cols));
      int32_t i32 = 0;
      UPI_RETURN_NOT_OK(GetInt32(&p, limit, &i32));
      rec.spec.options.cluster_column = i32;
      UPI_RETURN_NOT_OK(GetDouble(&p, limit, &rec.spec.options.cutoff));
      if (limit - p < 4) return Status::Corruption("wal: truncated options");
      if (GetFixed32(p) != core::Upi::kPageSize) {
        return Status::Corruption("wal: unsupported page size");
      }
      p += 4;
      UPI_RETURN_NOT_OK(GetInt32(&p, limit, &i32));
      rec.spec.options.max_secondary_pointers = i32;
      uint8_t b = 0;
      UPI_RETURN_NOT_OK(GetU8(&p, limit, &b));
      rec.spec.options.charge_open_per_query = b != 0;
      UPI_RETURN_NOT_OK(GetU8(&p, limit, &b));
      rec.spec.options.enable_pruning = b != 0;
      switch (rec.spec.kind) {
        case TableKind::kUpi:
        case TableKind::kFractured:
          break;
        case TableKind::kUnclustered:
          UPI_RETURN_NOT_OK(GetInt32(&p, limit, &i32));
          rec.spec.primary_column = i32;
          UPI_RETURN_NOT_OK(GetColumnList(&p, limit, &rec.spec.pii_columns));
          break;
        case TableKind::kPartitioned: {
          engine::PartitionOptions& po = rec.spec.partition;
          UPI_RETURN_NOT_OK(GetU8(&p, limit, &b));
          po.scheme = b != 0 ? engine::PartitionOptions::Scheme::kRange
                             : engine::PartitionOptions::Scheme::kHash;
          uint32_t v = 0;
          UPI_RETURN_NOT_OK(GetVar(&p, limit, &v));
          po.num_shards = v;
          UPI_RETURN_NOT_OK(GetVar(&p, limit, &v));
          po.range_splits.clear();
          po.range_splits.reserve(v);
          for (uint32_t i = 0; i < v; ++i) {
            std::string s;
            UPI_RETURN_NOT_OK(GetLP(&p, limit, &s));
            po.range_splits.push_back(std::move(s));
          }
          // Retired flags (fractured shards, shard pruning, top-k global
          // bound), ignored: every partitioned table has Fractured-UPI
          // shards, and UpiOptions::enable_pruning gates shard pruning.
          for (int i = 0; i < 3; ++i) UPI_RETURN_NOT_OK(GetU8(&p, limit, &b));
          break;
        }
      }
      UPI_RETURN_NOT_OK(GetColumnList(&p, limit, &rec.spec.secondary_columns));
      uint32_t ntuples = 0;
      UPI_RETURN_NOT_OK(GetVar(&p, limit, &ntuples));
      rec.tuples.reserve(ntuples);
      for (uint32_t i = 0; i < ntuples; ++i) {
        catalog::Tuple t;
        UPI_RETURN_NOT_OK(GetTuple(&p, limit, &t));
        rec.tuples.push_back(std::move(t));
      }
      break;
    }
    case RecordType::kInsert:
    case RecordType::kDelete:
      rec.type = static_cast<RecordType>(type);
      UPI_RETURN_NOT_OK(GetLP(&p, limit, &rec.table));
      UPI_RETURN_NOT_OK(GetTuple(&p, limit, &rec.tuple));
      break;
    case RecordType::kMaintenance: {
      rec.type = RecordType::kMaintenance;
      UPI_RETURN_NOT_OK(GetLP(&p, limit, &rec.table));
      UPI_RETURN_NOT_OK(GetInt32(&p, limit, &rec.shard));
      uint8_t op = 0;
      UPI_RETURN_NOT_OK(GetU8(&p, limit, &op));
      if (op > static_cast<uint8_t>(MaintenanceOp::kMergePartial)) {
        return Status::Corruption("wal: unknown maintenance op");
      }
      rec.op = static_cast<MaintenanceOp>(op);
      uint32_t count = 0;
      UPI_RETURN_NOT_OK(GetVar(&p, limit, &count));
      rec.merge_count = count;
      break;
    }
    default:
      return Status::Corruption("wal: unknown record type");
  }
  if (p != limit) return Status::Corruption("wal: trailing bytes in record");
  return rec;
}

// ---------------------------------------------------------------------------
// Framing and file scan
// ---------------------------------------------------------------------------

void SealFrame(std::string* frame) {
  UPI_CHECK(frame->size() >= kFrameOverhead, "wal: frame without header slot");
  const uint32_t len = static_cast<uint32_t>(frame->size() - kFrameOverhead);
  const uint32_t crc = Crc32(frame->data() + kFrameOverhead, len);
  std::memcpy(frame->data(), &len, 4);
  std::memcpy(frame->data() + 4, &crc, 4);
}

std::string LogHeader() { return std::string(kLogMagic, kHeaderBytes); }

namespace {

/// The scan's fixed read buffer.
constexpr size_t kScanBufferBytes = 1 << 16;

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

Result<LogScan> ScanLogFile(
    const std::string& path,
    const std::function<Status(std::string_view payload)>& visit) {
  LogScan scan;
  // Declared before the stream, which reads through it until it is closed.
  std::vector<char> buffer(kScanBufferBytes);
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    if (errno != ENOENT) {
      return Status::IOError("wal: cannot open '" + path + "'");
    }
    scan.missing = true;
    return scan;
  }
  std::FILE* f = file.get();
  // stdio fills `buffer` for the small reads; a read longer than the buffer
  // goes straight into its destination.
  std::setvbuf(f, buffer.data(), _IOFBF, buffer.size());
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0) {
    return Status::IOError("wal: cannot stat '" + path + "'");
  }
  // Every length is checked against the bytes the file holds before it is
  // read, so a garbage length field never becomes an allocation.
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  auto read = [f, &path](char* dst, size_t n) {
    return std::fread(dst, 1, n, f) == n
               ? Status::OK()
               : Status::IOError("wal: cannot read '" + path + "'");
  };
  char header[kHeaderBytes] = {};
  if (size >= kHeaderBytes) UPI_RETURN_NOT_OK(read(header, kHeaderBytes));
  if (size < kHeaderBytes ||
      std::memcmp(header, kLogMagic, kHeaderBytes) != 0) {
    return Status::Corruption("wal: '" + path + "' is not a WAL file");
  }
  uint64_t pos = kHeaderBytes;
  std::string payload;
  // Each iteration consumes one intact frame; anything that fails to parse
  // — short header, insane length, short payload, CRC mismatch — is the
  // torn tail, and the scan stops at the last good frame boundary.
  while (size - pos >= kFrameOverhead) {
    char frame_header[kFrameOverhead] = {};
    UPI_RETURN_NOT_OK(read(frame_header, kFrameOverhead));
    const uint32_t len = GetFixed32(frame_header);
    const uint32_t crc = GetFixed32(frame_header + 4);
    if (len > kMaxPayloadBytes || size - pos - kFrameOverhead < len) break;
    payload.resize(len);
    UPI_RETURN_NOT_OK(read(payload.data(), len));
    if (Crc32(payload) != crc) break;
    UPI_RETURN_NOT_OK(visit(payload));
    pos += kFrameOverhead + len;
  }
  scan.valid_bytes = pos;
  scan.dropped_bytes = size - pos;
  return scan;
}

}  // namespace upi::wal
