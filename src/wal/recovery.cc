#include "wal/recovery.h"

#include <cstdio>

#include "engine/database.h"

namespace upi::wal {

namespace {

Status ApplyMaintenance(engine::Database* db, const WalRecord& rec) {
  engine::Table* table = db->GetTable(rec.table);
  if (table == nullptr) {
    return Status::NotFound("wal: maintenance on unknown table '" +
                            rec.table + "'");
  }
  core::FracturedUpi* target = nullptr;
  if (rec.shard < 0) {
    target = table->fractured();
  } else if (table->partitioned() != nullptr &&
             static_cast<size_t>(rec.shard) <
                 table->partitioned()->num_shards()) {
    target = table->partitioned()->shard_fractured(
        static_cast<size_t>(rec.shard));
  }
  if (target == nullptr) {
    return Status::NotFound("wal: maintenance target missing for '" +
                            rec.table + "'");
  }
  return target->Run(rec.op, static_cast<size_t>(rec.merge_count));
}

Status ApplyRecord(engine::Database* db, const WalRecord& rec,
                   RecoveryStats* stats) {
  switch (rec.type) {
    case RecordType::kCreateTable:
      ++stats->creates;
      return db->CreateTable(rec.table, rec.spec, rec.tuples).status();
    case RecordType::kInsert: {
      ++stats->inserts;
      engine::Table* table = db->GetTable(rec.table);
      if (table == nullptr) {
        return Status::NotFound("wal: insert into unknown table '" +
                                rec.table + "'");
      }
      return table->Insert(rec.tuple);
    }
    case RecordType::kDelete: {
      ++stats->deletes;
      engine::Table* table = db->GetTable(rec.table);
      if (table == nullptr) {
        return Status::NotFound("wal: delete from unknown table '" +
                                rec.table + "'");
      }
      return table->Delete(rec.tuple);
    }
    case RecordType::kMaintenance:
      ++stats->maintenance;
      return ApplyMaintenance(db, rec);
  }
  return Status::Corruption("wal: unknown record type");
}

}  // namespace

Result<RecoveryStats> Recover(engine::Database* db, const std::string& path) {
  RecoveryStats stats;
  auto replay = [db, &stats](std::string_view payload) -> Status {
    UPI_ASSIGN_OR_RETURN(WalRecord rec, DecodeRecord(payload));
    ++stats.records;
    Status s = ApplyRecord(db, rec, &stats);
    if (!s.ok()) {
      // The original apply failed the same way (deterministic paths); keep
      // the replay going so everything after it is recovered.
      ++stats.failed;
      std::fprintf(stderr, "wal recovery: record %llu skipped: %s\n",
                   static_cast<unsigned long long>(stats.records),
                   s.ToString().c_str());
    }
    return Status::OK();
  };
  UPI_ASSIGN_OR_RETURN(LogScan scan, ScanLogFile(path, replay));
  stats.valid_bytes = scan.valid_bytes;
  stats.dropped_bytes = scan.dropped_bytes;
  return stats;
}

}  // namespace upi::wal
