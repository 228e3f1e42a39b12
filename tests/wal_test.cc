// Durability tests: WAL format framing, kill-and-recover bit-identity,
// torn-tail tolerance, group commit, and checkpointing.
//
// The kill-and-recover harness simulates a crash without killing the test
// process: kCommit mode makes every operation durable before it returns, so
// the log's durable_bytes() watermark after operation i is exactly what a
// crash immediately after i would leave on disk. The test copies that byte
// prefix into a fresh directory, opens a Database over it (triggering
// constructor-time recovery), and pins its query results bit-identically
// against an uncrashed twin built by applying the same operation prefix with
// the WAL off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "datagen/dblp.h"
#include "engine/database.h"
#include "engine/session.h"
#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace upi {
namespace {

namespace fs = std::filesystem;
using catalog::Tuple;
using datagen::AuthorCols;

/// mkdtemp-backed scratch directory, recursively removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/upi_wal_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string Log() const { return path + "/wal.log"; }
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Copies the first `bytes` bytes of the live log into `dst` — the simulated
/// crash: everything past the durable watermark is lost.
void CrashCopy(const std::string& src, const std::string& dst,
               uint64_t bytes) {
  std::string all = ReadAll(src);
  ASSERT_GE(all.size(), bytes);
  WriteAll(dst, std::string_view(all).substr(0, bytes));
}

/// A sealed maintenance frame on `table`, as the writer puts it in the log.
std::string Frame(const std::string& table, wal::MaintenanceOp op) {
  std::string frame = wal::EncodeMaintenance(table, -1, op, 0);
  wal::SealFrame(&frame);
  return frame;
}

/// A scan of a log file plus every intact payload it handed out.
struct ScannedLog {
  wal::LogScan scan;
  std::vector<std::string> payloads;
};

Result<ScannedLog> ScanAll(const std::string& path) {
  ScannedLog out;
  UPI_ASSIGN_OR_RETURN(out.scan,
                       wal::ScanLogFile(path, [&out](std::string_view p) {
                         out.payloads.emplace_back(p);
                         return Status::OK();
                       }));
  return out;
}

/// Every row of `table`, ordered by id.
std::vector<Tuple> RowsById(engine::Table* table) {
  std::vector<Tuple> rows;
  EXPECT_TRUE(
      table->path()
          ->ScanTuples([&rows](catalog::TupleView t) {
            rows.push_back(t.Decode().ValueOrDie());
          })
          .ok());
  std::sort(rows.begin(), rows.end(),
            [](const Tuple& a, const Tuple& b) { return a.id() < b.id(); });
  return rows;
}

// --- Format layer. ----------------------------------------------------------

TEST(WalFormatTest, Crc32KnownVector) {
  // CRC-32/IEEE of "123456789" is the classic check value.
  EXPECT_EQ(wal::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(wal::Crc32("", 0), 0u);
}

/// The reference: one table lookup per byte.
uint32_t BytewiseCrc32(const char* data, size_t n) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ static_cast<uint8_t>(data[i])) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(WalFormatTest, Crc32EqualsTheBytewiseLoop) {
  std::mt19937_64 rng(24);
  std::string buf(1 << 20, '\0');
  for (char& c : buf) c = static_cast<char>(rng());
  // Every length up to 300 from every alignment: the eight-byte steps run
  // from each offset, and the bytewise tail with each remainder.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(wal::Crc32(buf.data() + offset, len),
                BytewiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  EXPECT_EQ(wal::Crc32(buf), BytewiseCrc32(buf.data(), buf.size()));
}

TEST(WalFormatTest, RecordRoundTrip) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 5;
  cfg.num_institutions = 8;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> tuples = gen.GenerateAuthors();

  wal::TableSpec spec;
  spec.kind = wal::TableKind::kPartitioned;
  spec.schema = datagen::DblpGenerator::AuthorSchema();
  spec.options.cluster_column = AuthorCols::kInstitution;
  spec.options.cutoff = 0.25;
  spec.options.enable_pruning = false;
  spec.secondary_columns = {AuthorCols::kCountry};
  spec.partition.scheme = engine::PartitionOptions::Scheme::kRange;
  spec.partition.num_shards = 3;
  spec.partition.range_splits = {"inst-b", "inst-q"};

  auto create = wal::DecodeRecord(
      wal::FramePayload(wal::EncodeCreateTable("pubs", spec, tuples)));
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  EXPECT_EQ(create.value().type, wal::RecordType::kCreateTable);
  EXPECT_EQ(create.value().table, "pubs");
  EXPECT_EQ(create.value().spec.kind, wal::TableKind::kPartitioned);
  EXPECT_EQ(create.value().spec.options.cutoff, 0.25);
  EXPECT_FALSE(create.value().spec.options.enable_pruning);
  EXPECT_EQ(create.value().spec.secondary_columns,
            std::vector<int>{AuthorCols::kCountry});
  EXPECT_EQ(create.value().spec.partition.scheme,
            engine::PartitionOptions::Scheme::kRange);
  EXPECT_EQ(create.value().spec.partition.num_shards, 3u);
  EXPECT_EQ(create.value().spec.partition.range_splits,
            (std::vector<std::string>{"inst-b", "inst-q"}));
  ASSERT_EQ(create.value().tuples.size(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_TRUE(create.value().tuples[i] == tuples[i]) << "tuple " << i;
  }

  auto ins = wal::DecodeRecord(
      wal::FramePayload(wal::EncodeInsert("authors", tuples[2])));
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().type, wal::RecordType::kInsert);
  EXPECT_EQ(ins.value().table, "authors");
  EXPECT_TRUE(ins.value().tuple == tuples[2]);

  auto del = wal::DecodeRecord(
      wal::FramePayload(wal::EncodeDelete("authors", tuples[4])));
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().type, wal::RecordType::kDelete);
  EXPECT_TRUE(del.value().tuple == tuples[4]);

  auto maint = wal::DecodeRecord(wal::FramePayload(wal::EncodeMaintenance(
      "pubs", 2, wal::MaintenanceOp::kMergePartial, 7)));
  ASSERT_TRUE(maint.ok());
  EXPECT_EQ(maint.value().type, wal::RecordType::kMaintenance);
  EXPECT_EQ(maint.value().table, "pubs");
  EXPECT_EQ(maint.value().shard, 2);
  EXPECT_EQ(maint.value().op, wal::MaintenanceOp::kMergePartial);
  EXPECT_EQ(maint.value().merge_count, 7u);
}

TEST(WalFormatTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(wal::DecodeRecord("").ok());
  EXPECT_FALSE(wal::DecodeRecord(std::string("\x09garbage", 8)).ok());
  // Valid record with trailing junk must be rejected, not silently accepted.
  std::string frame =
      wal::EncodeMaintenance("t", -1, wal::MaintenanceOp::kFlush, 0);
  frame.push_back('!');
  EXPECT_FALSE(wal::DecodeRecord(wal::FramePayload(frame)).ok());
}

TEST(WalFormatTest, DecodeRejectsAPageSizeOtherThanTheUpiPage) {
  // The create record keeps its 4-byte page-size slot, so logs written
  // before the page size became a constant still replay. Every UPI page is
  // core::Upi::kPageSize: any other value is a corrupt record, not a table
  // of another page size.
  wal::TableSpec spec;
  spec.kind = wal::TableKind::kUpi;
  spec.schema = datagen::DblpGenerator::AuthorSchema();
  spec.options.cluster_column = AuthorCols::kInstitution;
  std::string payload(wal::FramePayload(
      wal::EncodeCreateTable("t", spec, std::vector<Tuple>{})));
  ASSERT_TRUE(wal::DecodeRecord(payload).ok());
  std::string page;
  PutFixed32(&page, core::Upi::kPageSize);
  const size_t slot = payload.find(page);
  ASSERT_NE(slot, std::string::npos);
  ASSERT_EQ(payload.find(page, slot + 1), std::string::npos);
  std::string other;
  PutFixed32(&other, 4096);
  payload.replace(slot, other.size(), other);
  EXPECT_EQ(wal::DecodeRecord(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(WalFormatTest, EncodersLeaveTheHeaderSlotForSealFrame) {
  std::string frame =
      wal::EncodeMaintenance("t", 3, wal::MaintenanceOp::kMergeAll, 0);
  EXPECT_EQ(frame.substr(0, wal::kFrameOverhead),
            std::string(wal::kFrameOverhead, '\0'));
  const std::string payload(wal::FramePayload(frame));
  wal::SealFrame(&frame);
  EXPECT_EQ(GetFixed32(frame.data()), payload.size());
  EXPECT_EQ(GetFixed32(frame.data() + 4), wal::Crc32(payload));
  EXPECT_EQ(wal::FramePayload(frame), payload);
}

TEST(WalFormatTest, ScanToleratesTornTail) {
  TempDir dir;
  std::string file = wal::LogHeader();
  file += Frame("a", wal::MaintenanceOp::kFlush);
  file += Frame("b", wal::MaintenanceOp::kMergeAll);
  uint64_t intact = file.size();
  // A torn append: frame header promising more bytes than exist.
  file += std::string("\x40\x00\x00\x00\xef\xbe\xad\xde..", 10);
  WriteAll(dir.Log(), file);

  auto read = ScanAll(dir.Log());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().payloads.size(), 2u);
  EXPECT_EQ(read.value().scan.valid_bytes, intact);
  EXPECT_EQ(read.value().scan.dropped_bytes, 10u);
  EXPECT_FALSE(read.value().scan.missing);
}

TEST(WalFormatTest, ScanStopsAtCrcMismatch) {
  TempDir dir;
  std::string file = wal::LogHeader();
  file += Frame("a", wal::MaintenanceOp::kFlush);
  uint64_t intact = file.size();
  size_t corrupt_at = file.size() + wal::kFrameOverhead + 2;
  file += Frame("b", wal::MaintenanceOp::kMergeAll);
  file += Frame("c", wal::MaintenanceOp::kFlush);
  file[corrupt_at] ^= 0x5a;  // flip a payload byte inside frame 2
  WriteAll(dir.Log(), file);

  auto read = ScanAll(dir.Log());
  ASSERT_TRUE(read.ok());
  // Frame 2 fails its CRC; it and everything after it are dropped.
  EXPECT_EQ(read.value().payloads.size(), 1u);
  EXPECT_EQ(read.value().scan.valid_bytes, intact);
  EXPECT_EQ(read.value().scan.dropped_bytes, file.size() - intact);
}

TEST(WalFormatTest, ScanMissingAndBadHeader) {
  TempDir dir;
  auto missing = ScanAll(dir.Log());
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing.value().scan.missing);
  EXPECT_EQ(missing.value().scan.valid_bytes, 0u);

  WriteAll(dir.Log(), "definitely not a WAL file");
  auto bad = ScanAll(dir.Log());
  EXPECT_FALSE(bad.ok());  // wrong magic is fatal, never "recovered" from
}

TEST(WalFormatTest, ScanStopsAtAnOversizedLengthAndAtAVisitError) {
  TempDir dir;
  std::string file = wal::LogHeader();
  file += Frame("a", wal::MaintenanceOp::kFlush);
  file += Frame("b", wal::MaintenanceOp::kFlush);
  const uint64_t two = file.size();
  // A length past kMaxPayloadBytes is garbage, not a request for memory.
  file += std::string("\xff\xff\xff\x7f\x00\x00\x00\x00", 8);
  WriteAll(dir.Log(), file);

  auto read = ScanAll(dir.Log());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads.size(), 2u);
  EXPECT_EQ(read.value().scan.valid_bytes, two);
  EXPECT_EQ(read.value().scan.dropped_bytes, 8u);

  // The visitor's error ends the scan after the frame that raised it.
  size_t seen = 0;
  auto stopped = wal::ScanLogFile(dir.Log(), [&seen](std::string_view) {
    return ++seen == 1 ? Status::Corruption("stop") : Status::OK();
  });
  EXPECT_EQ(stopped.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(seen, 1u);
}

// --- Kill-and-recover harness. ----------------------------------------------

using Op = std::function<void(engine::Database&)>;

engine::DatabaseOptions TestOptions(const std::string& wal_dir,
                                    wal::WalMode mode = wal::WalMode::kCommit) {
  engine::DatabaseOptions o;
  o.maintenance.num_workers = 0;  // deterministic: no background threads
  o.gather_workers = 0;
  o.wal_dir = wal_dir;
  o.wal_mode = mode;
  return o;
}

core::UpiOptions AuthorUpiOptions() {
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  opt.charge_open_per_query = false;
  return opt;
}

/// Runs the pinned query battery on both tables and requires bit-identical
/// rows: same ids, same confidences (exact ==), same tuples.
void ExpectSameResults(engine::Table* got, engine::Table* want,
                       datagen::DblpGenerator& gen) {
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  std::vector<engine::Query> battery = {
      engine::Query::Ptq(gen.PopularInstitution(), 0.1),
      engine::Query::Ptq(gen.PopularInstitution(), 0.01),
      engine::Query::Ptq(gen.InstitutionName(3), 0.05),
      engine::Query::TopK(gen.PopularInstitution(), 10),
      engine::Query::Secondary(AuthorCols::kCountry,
                               gen.CountryOfInstitution(0), 0.05),
  };
  for (size_t qi = 0; qi < battery.size(); ++qi) {
    std::vector<core::PtqMatch> got_rows, want_rows;
    auto gp = got->Run(battery[qi], &got_rows);
    auto wp = want->Run(battery[qi], &want_rows);
    ASSERT_TRUE(gp.ok()) << gp.status().ToString();
    ASSERT_TRUE(wp.ok()) << wp.status().ToString();
    ASSERT_EQ(got_rows.size(), want_rows.size()) << "query " << qi;
    for (size_t i = 0; i < want_rows.size(); ++i) {
      EXPECT_EQ(got_rows[i].id, want_rows[i].id) << "query " << qi;
      EXPECT_EQ(got_rows[i].confidence, want_rows[i].confidence)
          << "query " << qi << " row " << i;
      EXPECT_TRUE(got_rows[i].tuple == want_rows[i].tuple)
          << "query " << qi << " row " << i;
    }
  }
}

/// Applies ops[0..cut) to a WAL-journaled database, crashes it at the
/// durable watermark recorded after the cut, recovers into a fresh
/// directory, and compares against a WAL-off twin of the same prefix.
void RunKillAndRecover(const std::vector<Op>& ops, const std::string& table,
                       datagen::DblpGenerator& gen) {
  TempDir primary_dir;
  std::vector<uint64_t> marks;  // durable watermark after each op
  {
    engine::Database db(TestOptions(primary_dir.path));
    ASSERT_NE(db.wal(), nullptr);
    marks.push_back(db.wal()->durable_bytes());  // crash before any op
    for (const Op& op : ops) {
      op(db);
      marks.push_back(db.wal()->durable_bytes());
    }
  }
  std::string full_log = ReadAll(primary_dir.Log());

  for (size_t cut = 0; cut <= ops.size(); ++cut) {
    SCOPED_TRACE("crash after op " + std::to_string(cut) + "/" +
                 std::to_string(ops.size()));
    TempDir crash_dir;
    WriteAll(crash_dir.Log(),
             std::string_view(full_log).substr(0, marks[cut]));

    engine::Database recovered(TestOptions(crash_dir.path));
    engine::Database twin(TestOptions(""));  // WAL off: the uncrashed truth
    for (size_t i = 0; i < cut; ++i) ops[i](twin);

    ASSERT_EQ(recovered.TableNames(), twin.TableNames());
    if (recovered.GetTable(table) == nullptr) continue;  // pre-create crash
    ExpectSameResults(recovered.GetTable(table), twin.GetTable(table), gen);
  }
}

TEST(KillAndRecoverTest, FracturedTableBitIdentical) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 200;
  cfg.num_institutions = 25;
  cfg.seed = 7;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();
  std::vector<Tuple> extras;
  for (int i = 0; i < 40; ++i) {
    extras.push_back(gen.MakeAuthor(1'000'000 + i));
  }

  auto frac = [](engine::Database& db) {
    return db.GetTable("authors")->fractured();
  };
  std::vector<Op> ops;
  ops.push_back([&](engine::Database& db) {
    auto t = db.CreateFracturedTable("authors",
                                     datagen::DblpGenerator::AuthorSchema(),
                                     AuthorUpiOptions(),
                                     {AuthorCols::kCountry}, base);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
  });
  ops.push_back([&](engine::Database& db) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.GetTable("authors")->Insert(extras[i]).ok());
    }
  });
  ops.push_back([&](engine::Database& db) {
    ASSERT_TRUE(frac(db)->FlushBuffer().ok());
  });
  ops.push_back([&](engine::Database& db) {
    for (int i = 10; i < 20; ++i) {
      ASSERT_TRUE(db.GetTable("authors")->Insert(extras[i]).ok());
    }
    ASSERT_TRUE(db.GetTable("authors")->Delete(base[3]).ok());
    ASSERT_TRUE(db.GetTable("authors")->Delete(extras[1]).ok());
  });
  ops.push_back([&](engine::Database& db) {
    ASSERT_TRUE(frac(db)->FlushBuffer().ok());
  });
  ops.push_back([&](engine::Database& db) {
    ASSERT_TRUE(frac(db)->MergeOldestFractures(2).ok());
  });
  ops.push_back([&](engine::Database& db) {
    for (int i = 20; i < 30; ++i) {
      ASSERT_TRUE(db.GetTable("authors")->Insert(extras[i]).ok());
    }
  });
  ops.push_back([&](engine::Database& db) {
    ASSERT_TRUE(frac(db)->MergeAll().ok());
  });
  ops.push_back([&](engine::Database& db) {
    for (int i = 30; i < 40; ++i) {
      ASSERT_TRUE(db.GetTable("authors")->Insert(extras[i]).ok());
    }
    ASSERT_TRUE(db.GetTable("authors")->Delete(base[11]).ok());
  });

  RunKillAndRecover(ops, "authors", gen);
}

TEST(KillAndRecoverTest, MergeCallThatOnlyFlushesRecoversItsLayout) {
  // A merge call flushes the buffer first. When that leaves too few
  // fractures to merge, the flush alone must still reach the log: replay
  // reproduces the fracture layout, not just the rows.
  datagen::DblpConfig cfg;
  cfg.num_authors = 120;
  cfg.num_institutions = 15;
  cfg.seed = 29;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();

  for (bool merge_all : {false, true}) {
    SCOPED_TRACE(merge_all ? "MergeAll" : "MergeOldestFractures");
    TempDir dir;
    engine::Database db(TestOptions(dir.path));
    // MergeOldestFractures(4): a main fracture plus 20 buffered inserts,
    // which flush into the only delta. MergeAll: an empty table whose
    // buffer holds only deletes, which flush into no fracture at all.
    auto created = db.CreateFracturedTable(
        "authors", datagen::DblpGenerator::AuthorSchema(), AuthorUpiOptions(),
        {AuthorCols::kCountry}, merge_all ? std::vector<Tuple>{} : base);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    engine::Table* table = created.value();
    if (merge_all) {
      ASSERT_TRUE(table->Delete(base[0]).ok());
      ASSERT_TRUE(table->Delete(base[1]).ok());
      ASSERT_TRUE(table->fractured()->MergeAll().ok());
    } else {
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(table->Insert(gen.MakeAuthor(2'000'000 + i)).ok());
      }
      ASSERT_TRUE(table->fractured()->MergeOldestFractures(4).ok());
    }

    TempDir crash_dir;
    CrashCopy(dir.Log(), crash_dir.Log(), db.wal()->durable_bytes());
    engine::Database recovered(TestOptions(crash_dir.path));
    ASSERT_NE(recovered.GetTable("authors"), nullptr);
    const core::FracturedUpi* got = recovered.GetTable("authors")->fractured();
    const core::FracturedUpi* want = table->fractured();
    EXPECT_EQ(got->num_fractures(), want->num_fractures());
    EXPECT_EQ(got->buffered_inserts(), want->buffered_inserts());
    EXPECT_EQ(got->buffered_deletes(), want->buffered_deletes());
    ExpectSameResults(recovered.GetTable("authors"), table, gen);
  }
}

TEST(KillAndRecoverTest, PartitionedTableBitIdentical) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 180;
  cfg.num_institutions = 20;
  cfg.seed = 19;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();
  std::vector<Tuple> extras;
  for (int i = 0; i < 24; ++i) {
    extras.push_back(gen.MakeAuthor(2'000'000 + i));
  }

  engine::PartitionOptions popts;
  popts.scheme = engine::PartitionOptions::Scheme::kHash;
  popts.num_shards = 3;

  std::vector<Op> ops;
  ops.push_back([&](engine::Database& db) {
    auto t = db.CreatePartitionedTable("authors",
                                       datagen::DblpGenerator::AuthorSchema(),
                                       AuthorUpiOptions(),
                                       {AuthorCols::kCountry}, popts, base);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
  });
  ops.push_back([&](engine::Database& db) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(db.GetTable("authors")->Insert(extras[i]).ok());
    }
  });
  ops.push_back([&](engine::Database& db) {
    // Flush every shard's buffer — each fires its own maintenance record
    // tagged with the shard index.
    auto* part = db.GetTable("authors")->partitioned();
    for (size_t s = 0; s < part->num_shards(); ++s) {
      ASSERT_TRUE(part->shard_fractured(s)->FlushBuffer().ok());
    }
  });
  ops.push_back([&](engine::Database& db) {
    for (int i = 12; i < 24; ++i) {
      ASSERT_TRUE(db.GetTable("authors")->Insert(extras[i]).ok());
    }
    ASSERT_TRUE(db.GetTable("authors")->Delete(base[5]).ok());
  });
  ops.push_back([&](engine::Database& db) {
    auto* part = db.GetTable("authors")->partitioned();
    ASSERT_TRUE(part->shard_fractured(1)->FlushBuffer().ok());
    ASSERT_TRUE(part->shard_fractured(1)->MergeAll().ok());
  });

  RunKillAndRecover(ops, "authors", gen);
}

/// Bytes of the files the live fractures of a database's "fractured" table
/// and of every shard of its "partitioned" table hold: their size_bytes() (a
/// table that never flushed a delete has no delete-set file).
uint64_t LiveFileBytes(engine::Database& db) {
  uint64_t bytes = db.GetTable("fractured")->fractured()->size_bytes();
  const engine::PartitionedTable* part =
      db.GetTable("partitioned")->partitioned();
  for (size_t s = 0; s < part->num_shards(); ++s) {
    bytes += part->shard_fractured(s)->size_bytes();
  }
  return bytes;
}

TEST(KillAndRecoverTest, ReplayedMergesReleaseTheSameFiles) {
  // Replay runs the same merges, so it releases the same retired fractures:
  // after a reopen both tables hold exactly the file bytes they held before
  // the crash, and those are only the live fractures' files.
  datagen::DblpConfig cfg;
  cfg.num_authors = 180;
  cfg.num_institutions = 20;
  cfg.seed = 43;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();
  std::vector<Tuple> extras;
  for (int i = 0; i < 30; ++i) extras.push_back(gen.MakeAuthor(3'000'000 + i));

  TempDir dir;
  engine::Database db(TestOptions(dir.path));
  engine::PartitionOptions popts;
  popts.scheme = engine::PartitionOptions::Scheme::kHash;
  popts.num_shards = 3;
  catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  ASSERT_TRUE(db.CreateFracturedTable("fractured", schema, AuthorUpiOptions(),
                                      {AuthorCols::kCountry}, base)
                  .ok());
  ASSERT_TRUE(db.CreatePartitionedTable("partitioned", schema,
                                        AuthorUpiOptions(),
                                        {AuthorCols::kCountry}, popts, base)
                  .ok());
  core::FracturedUpi* frac = db.GetTable("fractured")->fractured();
  engine::PartitionedTable* part = db.GetTable("partitioned")->partitioned();
  for (int round = 0; round < 3; ++round) {
    for (int i = round * 10; i < round * 10 + 10; ++i) {
      ASSERT_TRUE(db.GetTable("fractured")->Insert(extras[i]).ok());
      ASSERT_TRUE(db.GetTable("partitioned")->Insert(extras[i]).ok());
    }
    ASSERT_TRUE(frac->FlushBuffer().ok());
    for (size_t s = 0; s < part->num_shards(); ++s) {
      ASSERT_TRUE(part->shard_fractured(s)->FlushBuffer().ok());
    }
  }
  ASSERT_TRUE(frac->MergeOldestFractures(2).ok());
  for (size_t s = 0; s < part->num_shards(); ++s) {
    ASSERT_TRUE(part->shard_fractured(s)->MergeOldestFractures(2).ok());
  }
  ASSERT_TRUE(frac->MergeAll().ok());
  ASSERT_TRUE(part->shard_fractured(1)->MergeAll().ok());

  const uint64_t before = db.env()->TotalFileBytes();
  EXPECT_EQ(before, LiveFileBytes(db));

  TempDir crash_dir;
  CrashCopy(dir.Log(), crash_dir.Log(), db.wal()->durable_bytes());
  engine::Database recovered(TestOptions(crash_dir.path));
  EXPECT_EQ(recovered.recovery_stats().failed, 0u);
  EXPECT_EQ(recovered.env()->TotalFileBytes(), before);
  EXPECT_EQ(recovered.env()->TotalFileBytes(), LiveFileBytes(recovered));
  for (const char* name : {"fractured", "partitioned"}) {
    SCOPED_TRACE(name);
    ExpectSameResults(recovered.GetTable(name), db.GetTable(name), gen);
  }
}

/// Creates the recovery sweep's "authors" table in the design `kind` names.
Status CreateSweepTable(engine::Database& db, const std::string& kind,
                        const std::vector<Tuple>& rows) {
  catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  if (kind == "upi") {
    return db
        .CreateUpiTable("authors", schema, AuthorUpiOptions(),
                        {AuthorCols::kCountry}, rows)
        .status();
  }
  if (kind == "fractured") {
    return db
        .CreateFracturedTable("authors", schema, AuthorUpiOptions(),
                              {AuthorCols::kCountry}, rows)
        .status();
  }
  if (kind == "unclustered") {
    return db
        .CreateUnclusteredTable("authors", schema, AuthorCols::kInstitution,
                                {AuthorCols::kInstitution,
                                 AuthorCols::kCountry},
                                rows)
        .status();
  }
  engine::PartitionOptions popts;
  popts.num_shards = 3;
  return db
      .CreatePartitionedTable("authors", schema, AuthorUpiOptions(),
                              {AuthorCols::kCountry}, popts, rows)
      .status();
}

TEST(KillAndRecoverTest, EveryTableKindRecoversExactly) {
  // Every design x {no checkpoint, a checkpoint taken while inserts sit
  // unflushed}, with inserts and deletes on both sides of it. Nothing
  // flushes (synchronous maintenance is never drained), so a fractured
  // design checkpoints rows straight out of its insert buffer.
  datagen::DblpConfig cfg;
  cfg.num_authors = 150;
  cfg.num_institutions = 20;
  cfg.seed = 61;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();
  std::vector<Tuple> extras;
  for (int i = 0; i < 24; ++i) extras.push_back(gen.MakeAuthor(8'000'000 + i));

  auto writes_before = [&](engine::Table* t) {
    for (int i = 0; i < 12; ++i) ASSERT_TRUE(t->Insert(extras[i]).ok());
    ASSERT_TRUE(t->Delete(base[3]).ok());
    ASSERT_TRUE(t->Delete(extras[2]).ok());
  };
  auto writes_after = [&](engine::Table* t) {
    for (int i = 12; i < 24; ++i) ASSERT_TRUE(t->Insert(extras[i]).ok());
    ASSERT_TRUE(t->Delete(base[9]).ok());
    ASSERT_TRUE(t->Delete(extras[14]).ok());
  };

  for (const std::string kind :
       {"upi", "fractured", "unclustered", "partitioned"}) {
    for (bool checkpoint : {false, true}) {
      SCOPED_TRACE(kind + (checkpoint ? " with checkpoint" : ""));
      TempDir dir;
      uint64_t durable = 0;
      {
        engine::Database db(TestOptions(dir.path));
        ASSERT_TRUE(CreateSweepTable(db, kind, base).ok());
        writes_before(db.GetTable("authors"));
        if (checkpoint) {
          ASSERT_TRUE(db.Checkpoint().ok());
        }
        writes_after(db.GetTable("authors"));
        durable = db.wal()->durable_bytes();
      }
      TempDir crash_dir;
      CrashCopy(dir.Log(), crash_dir.Log(), durable);
      engine::Database recovered(TestOptions(crash_dir.path));
      EXPECT_EQ(recovered.recovery_stats().creates, 1u);
      EXPECT_EQ(recovered.recovery_stats().failed, 0u);

      engine::Database twin(TestOptions(""));
      ASSERT_TRUE(CreateSweepTable(twin, kind, base).ok());
      writes_before(twin.GetTable("authors"));
      writes_after(twin.GetTable("authors"));
      ExpectSameResults(recovered.GetTable("authors"),
                        twin.GetTable("authors"), gen);
    }
  }
}

TEST(KillAndRecoverTest, RetiredPartitionBytesReplayAsFracturedShards) {
  // A partitioned create record carries three retired bytes (fractured
  // shards, shard pruning, top-k global bound). An old log may hold 0 in
  // them — a plain-UPI or pruning-off table. Replay ignores them: the table
  // comes back with a Fractured UPI per shard and answers every PTQ like a
  // freshly created one.
  datagen::DblpConfig cfg;
  cfg.num_authors = 150;
  cfg.num_institutions = 20;
  cfg.seed = 23;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();

  wal::TableSpec spec;
  spec.kind = wal::TableKind::kPartitioned;
  spec.schema = datagen::DblpGenerator::AuthorSchema();
  spec.options = AuthorUpiOptions();
  spec.secondary_columns = {AuthorCols::kCountry};
  spec.partition.num_shards = 3;
  std::string record = wal::EncodeCreateTable("authors", spec, base);
  // The retired bytes sit just before the secondary-column list (varint
  // count + one int32) and the tuple count; the bulk-free record ends there.
  std::string bare =
      wal::EncodeCreateTable("authors", spec, std::vector<Tuple>{});
  const size_t retired = bare.size() - 1 - (1 + 4) - 3;
  ASSERT_EQ(record.compare(0, retired + 3, bare, 0, retired + 3), 0);
  ASSERT_EQ(record.substr(retired, 3), std::string(3, '\x01'));
  record.replace(retired, 3, std::string(3, '\0'));

  auto rec = wal::DecodeRecord(wal::FramePayload(record));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  engine::Database replayed_db(TestOptions(""));
  engine::Table* replayed =
      replayed_db
          .CreateTable(rec.value().table, rec.value().spec, rec.value().tuples)
          .ValueOrDie();
  engine::PartitionedTable* part = replayed->partitioned();
  ASSERT_NE(part, nullptr);
  ASSERT_EQ(part->num_shards(), 3u);
  for (size_t s = 0; s < part->num_shards(); ++s) {
    ASSERT_NE(part->shard_fractured(s), nullptr) << "shard " << s;
    EXPECT_EQ(part->shard_fractured(s)->num_fractures(), 1u) << "shard " << s;
  }

  engine::Database fresh_db(TestOptions(""));
  engine::Table* fresh =
      fresh_db
          .CreatePartitionedTable("authors", spec.schema, spec.options,
                                  spec.secondary_columns, spec.partition, base)
          .ValueOrDie();
  ExpectSameResults(replayed, fresh, gen);
  for (size_t i = 0; i < cfg.num_institutions; ++i) {
    for (double qt : {0.05, 0.3, 0.7}) {
      std::vector<core::PtqMatch> got, want;
      engine::Query q = engine::Query::Ptq(gen.InstitutionName(i), qt);
      ASSERT_TRUE(replayed->Run(q, &got).ok());
      ASSERT_TRUE(fresh->Run(q, &want).ok());
      ASSERT_EQ(got.size(), want.size()) << q.value << " qt=" << qt;
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(got[r].id, want[r].id);
        EXPECT_EQ(got[r].confidence, want[r].confidence);
      }
    }
  }
}

TEST(KillAndRecoverTest, TornTailRecoversValidPrefix) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 120;
  cfg.num_institutions = 15;
  cfg.seed = 3;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();
  std::vector<Tuple> extras;
  for (int i = 0; i < 8; ++i) extras.push_back(gen.MakeAuthor(3'000'000 + i));

  TempDir primary_dir;
  std::vector<uint64_t> marks;
  {
    engine::Database db(TestOptions(primary_dir.path));
    auto t = db.CreateFracturedTable("authors",
                                     datagen::DblpGenerator::AuthorSchema(),
                                     AuthorUpiOptions(),
                                     {AuthorCols::kCountry}, base);
    ASSERT_TRUE(t.ok());
    marks.push_back(db.wal()->durable_bytes());
    for (const Tuple& e : extras) {
      ASSERT_TRUE(db.GetTable("authors")->Insert(e).ok());
      marks.push_back(db.wal()->durable_bytes());
    }
  }
  std::string full_log = ReadAll(primary_dir.Log());

  // Crash mid-append: the log ends with 17 bytes of a frame whose length
  // field promises more. Recovery must keep exactly the records before it.
  const size_t keep = 5;  // create + 4 inserts survive
  TempDir crash_dir;
  std::string torn =
      std::string(std::string_view(full_log).substr(0, marks[keep - 1]));
  torn += std::string_view(full_log).substr(marks[keep - 1], 17);
  ASSERT_LT(torn.size(), marks[keep]);  // genuinely mid-frame
  WriteAll(crash_dir.Log(), torn);

  engine::Database recovered(TestOptions(crash_dir.path));
  EXPECT_EQ(recovered.recovery_stats().records, keep);
  EXPECT_EQ(recovered.recovery_stats().dropped_bytes, 17u);
  EXPECT_EQ(recovered.recovery_stats().failed, 0u);

  engine::Database twin(TestOptions(""));
  ASSERT_TRUE(twin.CreateFracturedTable("authors",
                                        datagen::DblpGenerator::AuthorSchema(),
                                        AuthorUpiOptions(),
                                        {AuthorCols::kCountry}, base)
                  .ok());
  for (size_t i = 0; i + 1 < keep; ++i) {
    ASSERT_TRUE(twin.GetTable("authors")->Insert(extras[i]).ok());
  }
  ExpectSameResults(recovered.GetTable("authors"), twin.GetTable("authors"),
                    gen);

  // The writer truncated the torn tail away; the next append must produce a
  // log whose valid prefix simply continues.
  ASSERT_TRUE(recovered.GetTable("authors")->Insert(extras[7]).ok());
  auto reread = ScanAll(crash_dir.Log());
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().payloads.size(), keep + 1);
  EXPECT_EQ(reread.value().scan.dropped_bytes, 0u);
}

TEST(KillAndRecoverTest, CreateRecordLargerThanTheReadBufferRecovers) {
  // The scan reads through a 64 KiB buffer: a record longer than that is read
  // straight into the payload buffer, and the small records after it through
  // the buffer again. Recovery must rebuild every row and every shard's
  // fracture layout bit-identically.
  datagen::DblpConfig cfg;
  cfg.num_authors = 2000;
  cfg.num_institutions = 40;
  cfg.seed = 59;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> base = gen.GenerateAuthors();
  std::vector<Tuple> extras;
  for (int i = 0; i < 12; ++i) extras.push_back(gen.MakeAuthor(8'000'000 + i));
  engine::PartitionOptions popts;
  popts.num_shards = 3;
  const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  auto apply = [&](engine::Database& db) {
    ASSERT_TRUE(db.CreatePartitionedTable("authors", schema, AuthorUpiOptions(),
                                          {AuthorCols::kCountry}, popts, base)
                    .ok());
    engine::Table* table = db.GetTable("authors");
    for (size_t i = 0; i < extras.size(); ++i) {
      ASSERT_TRUE(table->Insert(extras[i]).ok());
      if (i == 5) {
        core::FracturedUpi* shard = table->partitioned()->shard_fractured(0);
        ASSERT_TRUE(shard->FlushBuffer().ok());
      }
    }
  };

  TempDir dir;
  {
    engine::Database db(TestOptions(dir.path));
    apply(db);
  }
  auto scanned = ScanAll(dir.Log());
  ASSERT_TRUE(scanned.ok());
  ASSERT_FALSE(scanned.value().payloads.empty());
  ASSERT_GT(scanned.value().payloads[0].size(), size_t{1} << 16);

  engine::Database recovered(TestOptions(dir.path));
  EXPECT_EQ(recovered.recovery_stats().records,
            scanned.value().payloads.size());
  EXPECT_EQ(recovered.recovery_stats().failed, 0u);
  EXPECT_EQ(recovered.recovery_stats().dropped_bytes, 0u);
  engine::Database twin(TestOptions(""));
  apply(twin);
  engine::Table* got = recovered.GetTable("authors");
  engine::Table* want = twin.GetTable("authors");
  ASSERT_NE(got, nullptr);
  const std::vector<Tuple> got_rows = RowsById(got);
  const std::vector<Tuple> want_rows = RowsById(want);
  ASSERT_EQ(got_rows.size(), base.size() + extras.size());
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (size_t i = 0; i < want_rows.size(); ++i) {
    EXPECT_TRUE(got_rows[i] == want_rows[i]) << "row " << i;
  }
  for (size_t i = 0; i < popts.num_shards; ++i) {
    EXPECT_EQ(got->partitioned()->shard_fractured(i)->num_fractures(),
              want->partitioned()->shard_fractured(i)->num_fractures())
        << "shard " << i;
  }
  ExpectSameResults(got, want, gen);
}

// --- Group commit. ----------------------------------------------------------

TEST(GroupCommitTest, LeaderAbsorbsFollowerRecords) {
  TempDir dir;
  storage::DbEnv env;
  auto opened = wal::WalWriter::Open(
      &env, wal::WalWriterOptions{dir.Log(), wal::WalMode::kGroup},
      /*valid_bytes=*/0, /*next_lsn=*/1);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<wal::WalWriter> w = std::move(opened).value();

  // Ten appends, then one Commit of the last LSN: the leader's single sync
  // must cover the whole batch.
  std::vector<wal::Lsn> lsns;
  {
    std::shared_lock<sync::SharedMutex> gate(w->gate());
    for (int i = 0; i < 10; ++i) {
      lsns.push_back(w->Append(wal::EncodeMaintenance(
          "t", -1, wal::MaintenanceOp::kFlush, static_cast<uint64_t>(i))));
    }
  }
  w->Commit(lsns.back());
  EXPECT_EQ(w->durable_lsn(), lsns.back());

  auto snap = env.metrics()->Snapshot();
  EXPECT_EQ(snap.SumOf("upi_wal_appends_total"), 10.0);
  EXPECT_EQ(snap.SumOf("upi_wal_syncs_total"), 1.0);  // one sync, ten records

  // Earlier LSNs are already durable — their Commit must not sync again.
  w->Commit(lsns[0]);
  EXPECT_EQ(env.metrics()->Snapshot().SumOf("upi_wal_syncs_total"), 1.0);

  w.reset();
  auto read = ScanAll(dir.Log());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().payloads.size(), 10u);
}

TEST(GroupCommitTest, ConcurrentSessionsRecoverEveryCommit) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 60;
  cfg.num_institutions = 12;
  cfg.seed = 23;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();
  constexpr int kClients = 4;
  constexpr int kPerClient = 15;
  std::vector<Tuple> extras;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    extras.push_back(gen.MakeAuthor(4'000'000 + i));
  }

  TempDir dir;
  uint64_t durable = 0;
  {
    engine::Database db(TestOptions(dir.path, wal::WalMode::kGroup));
    ASSERT_TRUE(db.CreateFracturedTable("authors",
                                        datagen::DblpGenerator::AuthorSchema(),
                                        AuthorUpiOptions(),
                                        {AuthorCols::kCountry}, base)
                    .ok());
    engine::Table* table = db.GetTable("authors");
    std::vector<std::unique_ptr<engine::Session>> sessions;
    std::vector<std::future<Result<engine::QueryResult>>> futures;
    for (int c = 0; c < kClients; ++c) {
      sessions.push_back(std::make_unique<engine::Session>(&db));
    }
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPerClient; ++i) {
        futures.push_back(
            sessions[c]->SubmitInsert(*table, extras[c * kPerClient + i]));
      }
    }
    for (auto& f : futures) {
      auto r = f.get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    // Every Commit returned, so every record is covered by some sync.
    EXPECT_EQ(db.wal()->durable_lsn(), db.wal()->last_assigned_lsn());
    auto snap = db.MetricsSnapshot();
    EXPECT_EQ(snap.SumOf("upi_wal_appends_total"),
              1.0 + kClients * kPerClient);
    EXPECT_LE(snap.SumOf("upi_wal_syncs_total"),
              snap.SumOf("upi_wal_appends_total"));
    durable = db.wal()->durable_bytes();
  }

  TempDir crash_dir;
  CrashCopy(dir.Log(), crash_dir.Log(), durable);
  engine::Database recovered(TestOptions(crash_dir.path));
  EXPECT_EQ(recovered.recovery_stats().records, 1u + kClients * kPerClient);
  EXPECT_EQ(recovered.recovery_stats().inserts,
            static_cast<uint64_t>(kClients * kPerClient));

  engine::Database twin(TestOptions(""));
  ASSERT_TRUE(twin.CreateFracturedTable("authors",
                                        datagen::DblpGenerator::AuthorSchema(),
                                        AuthorUpiOptions(),
                                        {AuthorCols::kCountry}, base)
                  .ok());
  // Session interleaving is nondeterministic, but inserts commute for query
  // results (ids are distinct); apply in any fixed order.
  for (const Tuple& e : extras) {
    ASSERT_TRUE(twin.GetTable("authors")->Insert(e).ok());
  }
  ExpectSameResults(recovered.GetTable("authors"), twin.GetTable("authors"),
                    gen);
}

// --- Checkpoint. ------------------------------------------------------------

TEST(CheckpointTest, RotateTruncatesLogAndRecoversSnapshot) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 100;
  cfg.num_institutions = 15;
  cfg.seed = 31;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();
  std::vector<Tuple> extras;
  for (int i = 0; i < 30; ++i) extras.push_back(gen.MakeAuthor(5'000'000 + i));

  TempDir dir;
  uint64_t durable = 0;
  {
    engine::Database db(TestOptions(dir.path));
    ASSERT_TRUE(db.CreateFracturedTable("authors",
                                        datagen::DblpGenerator::AuthorSchema(),
                                        AuthorUpiOptions(),
                                        {AuthorCols::kCountry}, base)
                    .ok());
    engine::Table* table = db.GetTable("authors");
    // Churn: insert 30, delete 20 of them — the snapshot carries only the
    // survivors, so the rotated log is strictly smaller than the history.
    for (const Tuple& e : extras) ASSERT_TRUE(table->Insert(e).ok());
    ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(table->Delete(extras[i]).ok());
    }
    uint64_t before = db.wal()->durable_bytes();

    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_LT(db.wal()->durable_bytes(), before);
    EXPECT_EQ(db.wal()->bytes_since_checkpoint(), 0u);

    // Post-checkpoint writes append to the fresh log.
    for (int i = 20; i < 25; ++i) {
      ASSERT_TRUE(table->Delete(extras[i]).ok());
    }
    durable = db.wal()->durable_bytes();
  }

  TempDir crash_dir;
  CrashCopy(dir.Log(), crash_dir.Log(), durable);
  engine::Database recovered(TestOptions(crash_dir.path));
  // One snapshot create record plus the five post-checkpoint deletes.
  EXPECT_EQ(recovered.recovery_stats().creates, 1u);
  EXPECT_EQ(recovered.recovery_stats().deletes, 5u);
  EXPECT_EQ(recovered.recovery_stats().failed, 0u);

  engine::Database twin(TestOptions(""));
  ASSERT_TRUE(twin.CreateFracturedTable("authors",
                                        datagen::DblpGenerator::AuthorSchema(),
                                        AuthorUpiOptions(),
                                        {AuthorCols::kCountry}, base)
                  .ok());
  for (const Tuple& e : extras) {
    ASSERT_TRUE(twin.GetTable("authors")->Insert(e).ok());
  }
  ASSERT_TRUE(twin.GetTable("authors")->fractured()->FlushBuffer().ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(twin.GetTable("authors")->Delete(extras[i]).ok());
  }
  ExpectSameResults(recovered.GetTable("authors"), twin.GetTable("authors"),
                    gen);
}

TEST(CheckpointTest, SnapshotFrameIsTheCreateRecordOfTheDecodedTuples) {
  // The checkpoint writes each scanned tuple's bytes as they are: the frame
  // must equal, byte for byte, the create record encoded from the decoded
  // tuples in scan order, for heap rows and buffered rows alike.
  datagen::DblpConfig cfg;
  cfg.num_authors = 80;
  cfg.num_institutions = 12;
  cfg.seed = 37;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();
  TempDir dir;
  engine::Database db(TestOptions(dir.path));
  ASSERT_TRUE(db.CreateFracturedTable("authors",
                                      datagen::DblpGenerator::AuthorSchema(),
                                      AuthorUpiOptions(),
                                      {AuthorCols::kCountry}, base)
                  .ok());
  engine::Table* table = db.GetTable("authors");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(table->Insert(gen.MakeAuthor(6'000'000 + i)).ok());
  }
  ASSERT_TRUE(table->Delete(base[3]).ok());
  ASSERT_GT(table->fractured()->buffered_inserts(), 0u);
  std::vector<Tuple> scanned;
  ASSERT_TRUE(table->path()
                  ->ScanTuples([&](catalog::TupleView t) {
                    scanned.push_back(t.Decode().ValueOrDie());
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), base.size() + 11);

  ASSERT_TRUE(db.Checkpoint().ok());
  Result<ScannedLog> log = ScanAll(dir.Log());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log.value().payloads.size(), 1u);
  wal::TableSpec spec;
  spec.kind = wal::TableKind::kFractured;
  spec.schema = datagen::DblpGenerator::AuthorSchema();
  spec.options = AuthorUpiOptions();
  spec.secondary_columns = {AuthorCols::kCountry};
  EXPECT_EQ(log.value().payloads[0],
            wal::FramePayload(
                wal::EncodeCreateTable("authors", spec, scanned)));
}

TEST(CheckpointTest, WatermarkSchedulesBackgroundCheckpoint) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 40;
  cfg.num_institutions = 10;
  cfg.seed = 41;
  datagen::DblpGenerator gen(cfg);
  std::vector<Tuple> base = gen.GenerateAuthors();

  TempDir dir;
  engine::DatabaseOptions opts = TestOptions(dir.path);
  opts.wal_checkpoint_bytes = 4096;
  engine::Database db(opts);
  ASSERT_TRUE(db.CreateFracturedTable("authors",
                                      datagen::DblpGenerator::AuthorSchema(),
                                      AuthorUpiOptions(),
                                      {AuthorCols::kCountry}, base)
                  .ok());
  // The bulk-build create record alone crosses the watermark, so the DDL
  // path must already have enqueued a checkpoint; synchronous mode runs it
  // here.
  ASSERT_GT(db.wal()->bytes_since_checkpoint(), opts.wal_checkpoint_bytes);
  EXPECT_GE(db.RunMaintenance(), 1u);
  EXPECT_EQ(db.maintenance()->stats().checkpoints, 1u);
  EXPECT_LT(db.wal()->bytes_since_checkpoint(), opts.wal_checkpoint_bytes);

  // And the write path: insert until the fresh log outgrows the watermark
  // again, then drain the second scheduled checkpoint.
  int i = 0;
  while (db.wal()->bytes_since_checkpoint() <= opts.wal_checkpoint_bytes) {
    ASSERT_TRUE(
        db.GetTable("authors")->Insert(gen.MakeAuthor(6'000'000 + i++)).ok());
    ASSERT_LT(i, 10000) << "watermark never crossed";
  }
  EXPECT_GE(db.RunMaintenance(), 1u);
  EXPECT_EQ(db.maintenance()->stats().checkpoints, 2u);
  EXPECT_LT(db.wal()->bytes_since_checkpoint(), opts.wal_checkpoint_bytes);
  EXPECT_GE(db.MetricsSnapshot().SumOf("upi_wal_checkpoints_total"), 2.0);
}

TEST(CheckpointTest, RefusesASnapshotThatRepeatsATupleId) {
  // An unclustered table refuses an insert under a live TupleId, but a
  // partitioned table accepts it and routes the two tuples to different
  // shards when their first alternatives differ, so its snapshot repeats
  // the id. A create record that repeats an id does not replay, so the
  // checkpoint fails and leaves the log as it was, and recovery restores
  // both tables with every row. The refused insert was journaled before it
  // was applied: it replays, and is refused again.
  datagen::DblpConfig cfg;
  cfg.num_authors = 60;
  cfg.num_institutions = 10;
  cfg.seed = 43;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> base = gen.GenerateAuthors();
  auto first_institution = [](const Tuple& t) {
    return t.Get(AuthorCols::kInstitution).discrete().First().value;
  };
  auto other = std::find_if(base.begin(), base.end(), [&](const Tuple& t) {
    return first_institution(t) != first_institution(base[0]);
  });
  ASSERT_NE(other, base.end());
  const Tuple twin(base[0].id(), other->existence(), other->values());
  engine::PartitionOptions popts;
  popts.scheme = engine::PartitionOptions::Scheme::kRange;
  popts.num_shards = 2;
  // The two first institutions fall on either side of the split.
  popts.range_splits = {
      std::max(first_institution(base[0]), first_institution(twin))};
  const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  auto rows = [](engine::Table* table) {
    size_t n = 0;
    EXPECT_TRUE(table->path()->ScanTuples([&n](catalog::TupleView) { ++n; }).ok());
    return n;
  };

  const std::map<std::string, size_t> want_rows = {
      {"heap", base.size()}, {"shards", base.size() + 1}};

  TempDir dir;
  {
    engine::Database db(TestOptions(dir.path));
    ASSERT_TRUE(db.CreateUnclusteredTable(
                      "heap", schema, AuthorCols::kInstitution,
                      {AuthorCols::kInstitution, AuthorCols::kCountry}, base)
                    .ok());
    ASSERT_TRUE(db.CreatePartitionedTable("shards", schema, AuthorUpiOptions(),
                                          {AuthorCols::kCountry}, popts, base)
                    .ok());
    EXPECT_EQ(db.GetTable("heap")->Insert(twin).code(),
              StatusCode::kAlreadyExists);
    ASSERT_TRUE(db.GetTable("shards")->Insert(twin).ok());
    for (const auto& [name, n] : want_rows) {
      ASSERT_EQ(rows(db.GetTable(name)), n) << name;
    }
    const std::string log = ReadAll(dir.Log());
    EXPECT_EQ(db.Checkpoint().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(ReadAll(dir.Log()), log);
  }

  engine::Database recovered(TestOptions(dir.path));
  EXPECT_EQ(recovered.recovery_stats().creates, 2u);
  EXPECT_EQ(recovered.recovery_stats().inserts, 2u);
  EXPECT_EQ(recovered.recovery_stats().failed, 1u);
  for (const auto& [name, n] : want_rows) {
    ASSERT_NE(recovered.GetTable(name), nullptr) << name;
    EXPECT_EQ(rows(recovered.GetTable(name)), n) << name;
  }
}

TEST(CheckpointTest, AFailedSnapshotWriteKeepsTheLiveLog) {
  // wal.log.tmp is a symlink to /dev/full, so writing the snapshot fails
  // with ENOSPC. Renaming that file over the live log would lose every row:
  // the checkpoint must report the failure, remove the temp file and leave
  // the log as it was.
  datagen::DblpConfig cfg;
  cfg.num_authors = 80;
  cfg.num_institutions = 10;
  cfg.seed = 61;
  datagen::DblpGenerator gen(cfg);
  TempDir dir;
  const std::string tmp = dir.Log() + ".tmp";
  std::vector<Tuple> want;
  {
    engine::Database db(TestOptions(dir.path));
    engine::Table* table =
        db.CreateFracturedTable("authors",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(), {AuthorCols::kCountry},
                                gen.GenerateAuthors())
            .ValueOrDie();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(table->Insert(gen.MakeAuthor(9'000'000 + i)).ok());
    }
    const std::string log = ReadAll(dir.Log());
    fs::create_symlink("/dev/full", tmp);
    const Status s = db.Checkpoint();
    // Checked before anything reads the log: had the rename gone ahead, the
    // log would be the symlink, and reading /dev/full never ends.
    ASSERT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
    EXPECT_FALSE(fs::exists(fs::symlink_status(tmp)));
    EXPECT_EQ(ReadAll(dir.Log()), log);
    // The writer still appends to the live log.
    ASSERT_TRUE(table->Insert(gen.MakeAuthor(9'000'005)).ok());
    want = RowsById(table);
  }

  engine::Database recovered(TestOptions(dir.path));
  EXPECT_EQ(recovered.recovery_stats().records, 7u);
  EXPECT_EQ(recovered.recovery_stats().failed, 0u);
  ASSERT_NE(recovered.GetTable("authors"), nullptr);
  const std::vector<Tuple> got = RowsById(recovered.GetTable("authors"));
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "row " << i;
  }
}

TEST(CheckpointTest, ATableRefusedMidSnapshotLeavesNoTempFile) {
  // Tables snapshot in name order, so "a", "b" and "c" are already in
  // wal.log.tmp when "d" (a partitioned table holding one TupleId in two
  // shards) refuses. The temp file goes, the live log stays byte for byte,
  // and it replays all four tables. "b", an unclustered table, refuses the
  // same id: its journaled insert replays and is refused again.
  datagen::DblpConfig cfg;
  cfg.num_authors = 60;
  cfg.num_institutions = 10;
  cfg.seed = 67;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> base = gen.GenerateAuthors();
  const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  auto first_institution = [](const Tuple& t) {
    return t.Get(AuthorCols::kInstitution).discrete().First().value;
  };
  auto other = std::find_if(base.begin(), base.end(), [&](const Tuple& t) {
    return first_institution(t) != first_institution(base[0]);
  });
  ASSERT_NE(other, base.end());
  // Another author's values under tuple 0's id; the two first institutions
  // fall on either side of "d"'s split.
  const Tuple twin(base[0].id(), other->existence(), other->values());
  engine::PartitionOptions popts;
  popts.scheme = engine::PartitionOptions::Scheme::kRange;
  popts.num_shards = 2;
  popts.range_splits = {
      std::max(first_institution(base[0]), first_institution(twin))};
  TempDir dir;
  std::map<std::string, std::vector<Tuple>> want;
  {
    engine::Database db(TestOptions(dir.path));
    ASSERT_TRUE(db.CreateFracturedTable("a", schema, AuthorUpiOptions(),
                                        {AuthorCols::kCountry}, base)
                    .ok());
    ASSERT_TRUE(db.CreateUnclusteredTable(
                      "b", schema, AuthorCols::kInstitution,
                      {AuthorCols::kInstitution, AuthorCols::kCountry}, base)
                    .ok());
    ASSERT_TRUE(db.CreateUpiTable("c", schema, AuthorUpiOptions(),
                                  {AuthorCols::kCountry}, base)
                    .ok());
    ASSERT_TRUE(db.CreatePartitionedTable("d", schema, AuthorUpiOptions(),
                                          {AuthorCols::kCountry}, popts, base)
                    .ok());
    ASSERT_TRUE(db.GetTable("a")->Insert(gen.MakeAuthor(9'100'000)).ok());
    EXPECT_EQ(db.GetTable("b")->Insert(twin).code(),
              StatusCode::kAlreadyExists);
    ASSERT_TRUE(db.GetTable("c")->Delete(base[1]).ok());
    ASSERT_TRUE(db.GetTable("d")->Insert(twin).ok());
    for (const char* name : {"a", "b", "c", "d"}) {
      want[name] = RowsById(db.GetTable(name));
    }
    const std::string log = ReadAll(dir.Log());
    EXPECT_EQ(db.Checkpoint().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(fs::exists(dir.Log() + ".tmp"));
    EXPECT_EQ(ReadAll(dir.Log()), log);
  }

  engine::Database recovered(TestOptions(dir.path));
  EXPECT_EQ(recovered.recovery_stats().creates, 4u);
  EXPECT_EQ(recovered.recovery_stats().failed, 1u);
  for (const auto& [name, rows] : want) {
    ASSERT_NE(recovered.GetTable(name), nullptr) << name;
    const std::vector<Tuple> got = RowsById(recovered.GetTable(name));
    ASSERT_EQ(got.size(), rows.size()) << name;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(got[i] == rows[i]) << name << " row " << i;
    }
  }
}

TEST(DatabaseWalTest, WalOffByDefault) {
  engine::Database db(TestOptions(""));
  EXPECT_EQ(db.wal(), nullptr);
  EXPECT_EQ(db.recovery_stats().records, 0u);
  EXPECT_FALSE(db.Checkpoint().ok());

  datagen::DblpConfig cfg;
  cfg.num_authors = 10;
  cfg.num_institutions = 5;
  datagen::DblpGenerator gen(cfg);
  ASSERT_TRUE(db.CreateFracturedTable("authors",
                                      datagen::DblpGenerator::AuthorSchema(),
                                      AuthorUpiOptions(), {},
                                      gen.GenerateAuthors())
                  .ok());
  EXPECT_TRUE(db.GetTable("authors")->Insert(gen.MakeAuthor(100)).ok());
}

TEST(DatabaseWalTest, RecoveryPopulatesMetrics) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 30;
  cfg.num_institutions = 8;
  cfg.seed = 53;
  datagen::DblpGenerator gen(cfg);

  TempDir dir;
  {
    engine::Database db(TestOptions(dir.path));
    ASSERT_TRUE(db.CreateFracturedTable("authors",
                                        datagen::DblpGenerator::AuthorSchema(),
                                        AuthorUpiOptions(), {},
                                        gen.GenerateAuthors())
                    .ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          db.GetTable("authors")->Insert(gen.MakeAuthor(7'000'000 + i)).ok());
    }
  }
  engine::Database recovered(TestOptions(dir.path));
  EXPECT_EQ(recovered.recovery_stats().records, 6u);
  EXPECT_GE(recovered.recovery_stats().sim_ms, 0.0);
  auto snap = recovered.MetricsSnapshot();
  EXPECT_EQ(snap.SumOf("upi_wal_records_replayed_total"), 6.0);
  const auto* g = snap.Find("upi_wal_recovery_ms");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, recovered.recovery_stats().sim_ms);
}

}  // namespace
}  // namespace upi
