// Tests for the declarative Query API: Query validation, the one read
// contract (every design x plan kind answers identically through Run,
// OpenCursor and Prepare, at pinned simulated I/O), streaming ResultCursors
// (early exit = strictly fewer simulated page reads), PreparedQuery plan
// caching with stats-epoch invalidation (including the maintenance-full-
// merge plan flip), and Session async submission.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "datagen/dblp.h"
#include "engine/database.h"
#include "engine/session.h"
#include "exec/cursor.h"
#include "exec/operators.h"
#include "exec/ptq.h"
#include "obs/trace.h"
#include "sim/sim_disk.h"

namespace upi::engine {
namespace {

using catalog::Tuple;
using catalog::Value;
using datagen::AuthorCols;
using datagen::PublicationCols;

/// DBLP fixture at test scale, built through the Database facade.
struct QueryFx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  Database db;
  Table* authors_table = nullptr;

  explicit QueryFx(size_t num_authors = 2000) {
    cfg.num_authors = num_authors;
    cfg.num_institutions = 80;
    cfg.seed = 77;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    authors = gen->GenerateAuthors();
    core::UpiOptions opt;
    opt.cluster_column = AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    authors_table =
        db.CreateUpiTable("authors", datagen::DblpGenerator::AuthorSchema(),
                          opt, {AuthorCols::kCountry}, authors)
            .ValueOrDie();
  }
};

std::vector<catalog::TupleId> Ids(const std::vector<core::PtqMatch>& rows) {
  std::vector<catalog::TupleId> ids;
  for (const auto& m : rows) ids.push_back(m.id);
  return ids;
}

// ---------------------------------------------------------------------------
// Query validation
// ---------------------------------------------------------------------------

TEST(QueryTest, ValidateRejectsMalformedQueries) {
  QueryFx fx;
  std::vector<core::PtqMatch> out;
  EXPECT_EQ(fx.authors_table->Run(Query::Secondary(99, "x", 0.5), &out)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.authors_table->Run(Query::TopK("x", 0), &out).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.authors_table->Run(Query::Ptq("x", 1.5), &out).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fx.authors_table->Prepare(Query::Secondary(-1, "", 0.5)).ok());
}

// ---------------------------------------------------------------------------
// One read contract: every design x plan kind x {plain, Where, LIMIT}
// ---------------------------------------------------------------------------

/// The four physical designs over one author set, in one Database with a
/// serial gather and synchronous maintenance, so every simulated count below
/// is deterministic.
struct DesignsFx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  Database db;
  std::vector<Table*> tables;  // upi, frac, heap, part
  std::map<catalog::TupleId, const Tuple*> by_id;  // every inserted tuple
  std::set<catalog::TupleId> buffered;  // frac's RAM-buffered tail
  std::set<catalog::TupleId> deleted;   // deleted from frac

  static DatabaseOptions Options() {
    DatabaseOptions o;
    o.gather_workers = 0;
    return o;
  }

  DesignsFx() : db(Options()) {
    cfg.num_authors = 2000;
    cfg.num_institutions = 80;
    cfg.seed = 77;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    authors = gen->GenerateAuthors();
    const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
    core::UpiOptions opt;
    opt.cluster_column = AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    const std::vector<int> secondary = {AuthorCols::kCountry};

    tables.push_back(
        db.CreateUpiTable("upi", schema, opt, secondary, authors).ValueOrDie());

    // One flushed fracture and a buffered tail, with a delete in each.
    Table* frac =
        db.CreateFracturedTable("frac", schema, opt, secondary, {})
            .ValueOrDie();
    for (size_t i = 0; i < 1500; ++i) {
      EXPECT_TRUE(frac->Insert(authors[i]).ok());
    }
    EXPECT_TRUE(frac->fractured()->FlushBuffer().ok());
    for (size_t i = 1500; i < authors.size(); ++i) {
      EXPECT_TRUE(frac->Insert(authors[i]).ok());
    }
    EXPECT_TRUE(frac->Delete(authors[3]).ok());
    EXPECT_TRUE(frac->Delete(authors[1700]).ok());
    tables.push_back(frac);
    for (const Tuple& t : authors) by_id[t.id()] = &t;
    for (size_t i = 1500; i < authors.size(); ++i) {
      buffered.insert(authors[i].id());
    }
    deleted = {authors[3].id(), authors[1700].id()};

    tables.push_back(db.CreateUnclusteredTable(
                           "heap", schema, AuthorCols::kInstitution,
                           {AuthorCols::kInstitution, AuthorCols::kCountry},
                           authors)
                         .ValueOrDie());

    PartitionOptions popts;
    popts.scheme = PartitionOptions::Scheme::kRange;
    popts.num_shards = 4;
    popts.range_splits = {"inst00002", "inst00010", "inst00030"};
    tables.push_back(db.CreatePartitionedTable("part", schema, opt, secondary,
                                               popts, authors)
                         .ValueOrDie());
  }
};

enum class Variant { kPlain, kWhere, kLimit };

/// What one (design, plan kind, variant) cost at the seed of this sweep:
/// simulated device reads (a forward read through a short gap counts as one,
/// see storage::PageFile::Read) and seeks of the materialized run and of the drained
/// cursor (they differ only under LIMIT, where a streaming cursor stops
/// early), and the EXPLAIN ANALYZE operators as "label:rows" pairs (pruned
/// operators marked).
struct SweepCost {
  const char* design;
  PlanKind kind;
  Variant variant;
  uint64_t reads, seeks, cursor_reads, cursor_seeks;
  const char* ops;
};

// clang-format off
const SweepCost kSweepCosts[] = {
    {"upi", PlanKind::kPrimaryProbe, Variant::kPlain, 120, 8, 120, 8,
     "primary-probe:793"},
    {"upi", PlanKind::kPrimaryProbe, Variant::kWhere, 120, 8, 120, 8,
     "primary-probe:260"},
    {"upi", PlanKind::kPrimaryProbe, Variant::kLimit, 120, 8, 2, 2,
     "primary-probe:5"},
    {"upi", PlanKind::kSecondaryFirstPointer, Variant::kPlain, 9, 6, 9, 6,
     "secondary-first-pointer:37"},
    {"upi", PlanKind::kSecondaryFirstPointer, Variant::kWhere, 9, 6, 9, 6,
     "secondary-first-pointer:15"},
    {"upi", PlanKind::kSecondaryFirstPointer, Variant::kLimit, 9, 6, 9, 6,
     "secondary-first-pointer:5"},
    {"upi", PlanKind::kSecondaryTailored, Variant::kPlain, 7, 5, 7, 5,
     "secondary-tailored:37"},
    {"upi", PlanKind::kSecondaryTailored, Variant::kWhere, 7, 5, 7, 5,
     "secondary-tailored:15"},
    {"upi", PlanKind::kSecondaryTailored, Variant::kLimit, 7, 5, 7, 5,
     "secondary-tailored:5"},
    {"upi", PlanKind::kHeapScan, Variant::kPlain, 231, 2, 231, 2,
     "heap-scan:793"},
    {"upi", PlanKind::kHeapScan, Variant::kWhere, 231, 2, 231, 2,
     "heap-scan:260"},
    {"upi", PlanKind::kHeapScan, Variant::kLimit, 231, 2, 231, 2,
     "heap-scan:5"},
    {"upi", PlanKind::kTopKDirect, Variant::kPlain, 2, 2, 2, 2,
     "topk-direct:10"},
    {"upi", PlanKind::kTopKDirect, Variant::kWhere, 3, 2, 3, 2,
     "topk-direct:10"},
    {"upi", PlanKind::kTopKDirect, Variant::kLimit, 2, 2, 2, 2,
     "topk-direct:5"},
    {"upi", PlanKind::kTopKDecreasingThreshold, Variant::kPlain, 7, 2, 7, 2,
     "topk-decreasing-threshold:10"},
    {"upi", PlanKind::kTopKDecreasingThreshold, Variant::kWhere, 7, 2, 7, 2,
     "topk-decreasing-threshold:10"},
    {"upi", PlanKind::kTopKDecreasingThreshold, Variant::kLimit, 7, 2, 7, 2,
     "topk-decreasing-threshold:5"},
    {"frac", PlanKind::kPrimaryProbe, Variant::kPlain, 96, 6, 96, 6,
     "frac.buffer:196,frac.frac0:596"},
    {"frac", PlanKind::kPrimaryProbe, Variant::kWhere, 96, 6, 96, 6,
     "frac.buffer:196,frac.frac0:596"},
    {"frac", PlanKind::kPrimaryProbe, Variant::kLimit, 96, 6, 0, 0,
     "frac.buffer:196,frac.frac0:596"},
    {"frac", PlanKind::kSecondaryFirstPointer, Variant::kPlain, 8, 6, 8, 6,
     "secondary-first-pointer:37"},
    {"frac", PlanKind::kSecondaryFirstPointer, Variant::kWhere, 8, 6, 8, 6,
     "secondary-first-pointer:15"},
    {"frac", PlanKind::kSecondaryFirstPointer, Variant::kLimit, 8, 6, 8, 6,
     "secondary-first-pointer:5"},
    {"frac", PlanKind::kSecondaryTailored, Variant::kPlain, 6, 5, 6, 5,
     "secondary-tailored:37"},
    {"frac", PlanKind::kSecondaryTailored, Variant::kWhere, 6, 5, 6, 5,
     "secondary-tailored:15"},
    {"frac", PlanKind::kSecondaryTailored, Variant::kLimit, 6, 5, 6, 5,
     "secondary-tailored:5"},
    {"frac", PlanKind::kHeapScan, Variant::kPlain, 173, 2, 173, 2,
     "frac.buffer:499,frac.frac0:1499"},
    {"frac", PlanKind::kHeapScan, Variant::kWhere, 173, 2, 173, 2,
     "frac.buffer:499,frac.frac0:1499"},
    {"frac", PlanKind::kHeapScan, Variant::kLimit, 173, 2, 173, 2,
     "frac.buffer:499,frac.frac0:1499"},
    {"frac", PlanKind::kTopKDirect, Variant::kPlain, 2, 2, 2, 2,
     "topk-direct:10"},
    {"frac", PlanKind::kTopKDirect, Variant::kWhere, 3, 2, 3, 2,
     "topk-direct:10"},
    {"frac", PlanKind::kTopKDirect, Variant::kLimit, 2, 2, 2, 2,
     "topk-direct:5"},
    {"frac", PlanKind::kTopKDecreasingThreshold, Variant::kPlain, 6, 2, 6, 2,
     "frac.buffer:30,frac.frac0:120"},
    {"frac", PlanKind::kTopKDecreasingThreshold, Variant::kWhere, 6, 2, 6, 2,
     "frac.buffer:30,frac.frac0:120,frac.buffer:30,frac.frac0:120,frac.buffer:30,frac.frac0:120"},
    {"frac", PlanKind::kTopKDecreasingThreshold, Variant::kLimit, 6, 2, 6, 2,
     "frac.buffer:30,frac.frac0:120"},
    {"heap", PlanKind::kPrimaryProbe, Variant::kPlain, 89, 3, 89, 3,
     "primary-probe:793"},
    {"heap", PlanKind::kPrimaryProbe, Variant::kWhere, 89, 3, 89, 3,
     "primary-probe:260"},
    {"heap", PlanKind::kPrimaryProbe, Variant::kLimit, 89, 3, 6, 3,
     "primary-probe:5"},
    {"heap", PlanKind::kSecondaryFirstPointer, Variant::kPlain, 32, 19, 32, 19,
     "secondary-first-pointer:37"},
    {"heap", PlanKind::kSecondaryFirstPointer, Variant::kWhere, 32, 19, 32, 19,
     "secondary-first-pointer:15"},
    {"heap", PlanKind::kSecondaryFirstPointer, Variant::kLimit, 32, 19, 32, 19,
     "secondary-first-pointer:5"},
    {"heap", PlanKind::kSecondaryTailored, Variant::kPlain, 32, 19, 32, 19,
     "secondary-tailored:37"},
    {"heap", PlanKind::kSecondaryTailored, Variant::kWhere, 32, 19, 32, 19,
     "secondary-tailored:15"},
    {"heap", PlanKind::kSecondaryTailored, Variant::kLimit, 32, 19, 32, 19,
     "secondary-tailored:5"},
    {"heap", PlanKind::kHeapScan, Variant::kPlain, 84, 1, 84, 1,
     "heap-scan:793"},
    {"heap", PlanKind::kHeapScan, Variant::kWhere, 84, 1, 84, 1,
     "heap-scan:260"},
    {"heap", PlanKind::kHeapScan, Variant::kLimit, 84, 1, 84, 1,
     "heap-scan:5"},
    {"heap", PlanKind::kTopKDirect, Variant::kPlain, 11, 11, 11, 11,
     "topk-direct:10"},
    {"heap", PlanKind::kTopKDirect, Variant::kWhere, 32, 32, 32, 32,
     "topk-direct:10"},
    {"heap", PlanKind::kTopKDirect, Variant::kLimit, 11, 11, 11, 11,
     "topk-direct:5"},
    {"heap", PlanKind::kTopKDecreasingThreshold, Variant::kPlain, 71, 15, 71, 15,
     "topk-decreasing-threshold:10"},
    {"heap", PlanKind::kTopKDecreasingThreshold, Variant::kWhere, 71, 15, 71, 15,
     "topk-decreasing-threshold:10"},
    {"heap", PlanKind::kTopKDecreasingThreshold, Variant::kLimit, 71, 15, 71, 15,
     "topk-decreasing-threshold:5"},
    {"part", PlanKind::kPrimaryProbe, Variant::kPlain, 119, 20, 119, 20,
     "ptq shard[0]:353,ptq shard[1]:150,ptq shard[2]:153,ptq shard[3]:137"},
    {"part", PlanKind::kPrimaryProbe, Variant::kWhere, 119, 20, 119, 20,
     "ptq shard[0]:353,ptq shard[1]:150,ptq shard[2]:153,ptq shard[3]:137"},
    {"part", PlanKind::kPrimaryProbe, Variant::kLimit, 119, 20, 119, 20,
     "ptq shard[0]:353,ptq shard[1]:150,ptq shard[2]:153,ptq shard[3]:137"},
    {"part", PlanKind::kSecondaryFirstPointer, Variant::kPlain, 16, 13, 16, 13,
     "secondary shard[0]:0,secondary shard[1]:0,secondary shard[2]:31,secondary shard[3]:6"},
    {"part", PlanKind::kSecondaryFirstPointer, Variant::kWhere, 16, 13, 16, 13,
     "secondary shard[0]:0,secondary shard[1]:0,secondary shard[2]:31,secondary shard[3]:6"},
    {"part", PlanKind::kSecondaryFirstPointer, Variant::kLimit, 16, 13, 16, 13,
     "secondary shard[0]:0,secondary shard[1]:0,secondary shard[2]:31,secondary shard[3]:6"},
    {"part", PlanKind::kSecondaryTailored, Variant::kPlain, 15, 13, 15, 13,
     "secondary shard[0]:0,secondary shard[1]:0,secondary shard[2]:31,secondary shard[3]:6"},
    {"part", PlanKind::kSecondaryTailored, Variant::kWhere, 15, 13, 15, 13,
     "secondary shard[0]:0,secondary shard[1]:0,secondary shard[2]:31,secondary shard[3]:6"},
    {"part", PlanKind::kSecondaryTailored, Variant::kLimit, 15, 13, 15, 13,
     "secondary shard[0]:0,secondary shard[1]:0,secondary shard[2]:31,secondary shard[3]:6"},
    {"part", PlanKind::kHeapScan, Variant::kPlain, 236, 8, 236, 8,
     "part.s0.main:456,part.s1.main:501,part.s2.main:511,part.s3.main:532"},
    {"part", PlanKind::kHeapScan, Variant::kWhere, 236, 8, 236, 8,
     "part.s0.main:456,part.s1.main:501,part.s2.main:511,part.s3.main:532"},
    {"part", PlanKind::kHeapScan, Variant::kLimit, 236, 8, 236, 8,
     "part.s0.main:456,part.s1.main:501,part.s2.main:511,part.s3.main:532"},
    {"part", PlanKind::kTopKDirect, Variant::kPlain, 8, 8, 8, 8,
     "topk shard[0]:10,topk shard[1]:10,topk shard[2]:10,topk shard[3]:10"},
    {"part", PlanKind::kTopKDirect, Variant::kWhere, 14, 12, 14, 12,
     "topk shard[0]:10,topk shard[1]:10,topk shard[2]:10,topk shard[3]:10,topk shard[0]:20,topk shard[1]:20,topk shard[2]:20,topk shard[3]:20,topk shard[0]:40,topk shard[1]:40,topk shard[2]:40,topk shard[3]:40"},
    {"part", PlanKind::kTopKDirect, Variant::kLimit, 8, 8, 8, 8,
     "topk shard[0]:10,topk shard[1]:10,topk shard[2]:10,topk shard[3]:10"},
    {"part", PlanKind::kTopKDecreasingThreshold, Variant::kPlain, 13, 8, 13, 8,
     "ptq shard[0]:150,ptq shard[1]:0,ptq shard[2]:0,ptq shard[3]:0"},
    {"part", PlanKind::kTopKDecreasingThreshold, Variant::kWhere, 13, 8, 13, 8,
     "ptq shard[0]:150,ptq shard[1]:0,ptq shard[2]:0,ptq shard[3]:0,ptq shard[0]:150,ptq shard[1]:0,ptq shard[2]:0,ptq shard[3]:0,ptq shard[0]:150,ptq shard[1]:0,ptq shard[2]:0,ptq shard[3]:0"},
    {"part", PlanKind::kTopKDecreasingThreshold, Variant::kLimit, 13, 8, 13, 8,
     "ptq shard[0]:150,ptq shard[1]:0,ptq shard[2]:0,ptq shard[3]:0"},
};
// clang-format on

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kPlain: return "kPlain";
    case Variant::kWhere: return "kWhere";
    case Variant::kLimit: return "kLimit";
  }
  return "?";
}

const char* PlanKindEnum(PlanKind k) {
  switch (k) {
    case PlanKind::kPrimaryProbe: return "kPrimaryProbe";
    case PlanKind::kSecondaryFirstPointer: return "kSecondaryFirstPointer";
    case PlanKind::kSecondaryTailored: return "kSecondaryTailored";
    case PlanKind::kHeapScan: return "kHeapScan";
    case PlanKind::kTopKDirect: return "kTopKDirect";
    case PlanKind::kTopKEstimatedThreshold: return "kTopKEstimatedThreshold";
    case PlanKind::kTopKDecreasingThreshold: return "kTopKDecreasingThreshold";
  }
  return "?";
}

/// One execution route's answer and its cold-cache device traffic.
struct RouteRun {
  std::vector<core::PtqMatch> rows;
  sim::DiskStats io;
};

bool SameRows(const std::vector<core::PtqMatch>& a,
              const std::vector<core::PtqMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].confidence != b[i].confidence ||
        !(a[i].tuple == b[i].tuple)) {
      return false;
    }
  }
  return true;
}

bool SameIo(const sim::DiskStats& a, const sim::DiskStats& b) {
  return a.reads == b.reads && a.seeks == b.seeks && a.seek_ms == b.seek_ms &&
         a.bytes_read == b.bytes_read && a.file_opens == b.file_opens &&
         a.writes == b.writes;
}

/// Every row of `table` decodes — by its header and whole — to the tuple
/// inserted under its id, and none is a row deleted from it.
void ExpectInsertedTuples(const DesignsFx& fx, const Table& table,
                          const std::vector<core::PtqMatch>& rows) {
  for (const core::PtqMatch& m : rows) {
    SCOPED_TRACE("row " + std::to_string(m.id));
    EXPECT_EQ(m.tuple.id(), m.id);
    EXPECT_FALSE(table.name() == "frac" && fx.deleted.contains(m.id));
    auto it = fx.by_id.find(m.id);
    ASSERT_NE(it, fx.by_id.end());
    Result<Tuple> t = m.tuple.Decode();
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(t.value() == *it->second);
  }
}

TEST(QueryTest, DrainedCursorMatchesMaterializedRun) {
  // Every design answers every plan kind three ways — materialized (Run),
  // as a drained and confidence-sorted cursor (OpenCursor), and prepared
  // (Prepare().Bind().Execute) — and the three must agree on rows and, when
  // all of them read everything (no LIMIT), on device traffic. Kinds the
  // planner would not pick for the query are forced with a hand-built Plan
  // and run through the same executor entry points the Table API uses.
  // Pages, seeks and operators are pinned to kSweepCosts, so a change in
  // any design's physical access sequence fails here.
  DesignsFx fx;
  const sim::SimDisk* disk = fx.db.env()->disk();
  const std::string inst = fx.gen->PopularInstitution();
  const std::string country = fx.gen->MidCountry();
  const std::function<bool(const Tuple&)> every_third = [](const Tuple& t) {
    return t.id() % 3 == 0;
  };
  const PlanKind kinds[] = {
      PlanKind::kPrimaryProbe,     PlanKind::kSecondaryFirstPointer,
      PlanKind::kSecondaryTailored, PlanKind::kHeapScan,
      PlanKind::kTopKDirect,       PlanKind::kTopKDecreasingThreshold};

  auto cold = [&](const std::function<void()>& fn) {
    fx.db.ColdCache();
    sim::DiskStats before = disk->stats();
    fn();
    return disk->stats() - before;
  };
  auto drain = [](ResultCursor* c, std::vector<core::PtqMatch>* rows) {
    core::PtqMatch m;
    while (c->TakeNext(&m)) rows->push_back(std::move(m));
    ASSERT_TRUE(c->status().ok()) << c->status().ToString();
  };

  std::string recorded;
  for (Table* table : fx.tables) {
    for (PlanKind kind : kinds) {
      std::vector<core::PtqMatch> plain_stream;  // unsorted, for LIMIT
      std::vector<core::PtqMatch> plain_run;
      for (Variant variant :
           {Variant::kPlain, Variant::kWhere, Variant::kLimit}) {
        SCOPED_TRACE(table->name() + " " + PlanKindName(kind) + " " +
                     VariantName(variant));
        Query q;
        Plan plan;
        plan.kind = kind;
        plan.table = table->name();
        switch (kind) {
          case PlanKind::kPrimaryProbe:
            q = Query::Ptq(inst, 0.05);
            break;
          case PlanKind::kSecondaryFirstPointer:
          case PlanKind::kSecondaryTailored:
            q = Query::Secondary(AuthorCols::kCountry, country, 0.3);
            break;
          case PlanKind::kHeapScan:
            q = Query::ScanFilter(AuthorCols::kInstitution, inst, 0.05);
            break;
          default:
            q = Query::TopK(inst, 10);
            plan.initial_qt = 0.5;
            break;
        }
        if (variant == Variant::kWhere) q.predicate = every_third;
        if (variant == Variant::kLimit) q.limit = 5;
        plan.column = q.column;
        plan.value = q.value;
        plan.qt = q.qt;
        plan.k = q.k;
        plan.limit = q.limit;
        const bool native = table->planner().PlanQuery(q).kind == kind;
        const AccessPath& path = *table->path();

        RouteRun run, cursor, prepared;
        std::vector<core::PtqMatch> stream;
        obs::QueryTrace trace;
        if (native) {
          run.io = cold([&] {
            Result<Plan> p = table->Run(q, &run.rows);
            ASSERT_TRUE(p.ok()) << p.status().ToString();
            ASSERT_EQ(p.value().kind, kind);
          });
          cursor.io = cold([&] {
            auto c = table->OpenCursor(q);
            ASSERT_TRUE(c.ok()) << c.status().ToString();
            drain(c.value().get(), &stream);
          });
          prepared.io = cold([&] {
            Result<PreparedQuery> pq = table->Prepare(q);
            ASSERT_TRUE(pq.ok()) << pq.status().ToString();
            ASSERT_TRUE(
                pq.value().Bind(q.value, q.qt).Execute(&prepared.rows).ok());
          });
          fx.db.ColdCache();
          auto analyzed = table->AnalyzeQuery(q);
          ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
          trace = std::move(analyzed).value().trace;
        } else {
          run.io = cold([&] {
            Status st = exec::Execute(path, plan, &run.rows, q.predicate);
            ASSERT_TRUE(st.ok()) << st.ToString();
          });
          cursor.io = cold([&] {
            auto c = exec::OpenCursor(path, plan, q.predicate);
            ASSERT_TRUE(c.ok()) << c.status().ToString();
            drain(c.value().get(), &stream);
          });
          prepared.io = cold([&] {
            Status st = InstrumentedExecute(path, plan, &fx.db.instruments(),
                                            q.predicate, &prepared.rows);
            ASSERT_TRUE(st.ok()) << st.ToString();
          });
          fx.db.ColdCache();
          obs::TraceScope scope(&trace);
          std::vector<core::PtqMatch> traced;
          ASSERT_TRUE(exec::Execute(path, plan, &traced, q.predicate).ok());
        }
        cursor.rows = stream;
        exec::SortByConfidenceDesc(&cursor.rows);

        ASSERT_FALSE(run.rows.empty());
        for (const auto* rows : {&run.rows, &cursor.rows, &prepared.rows}) {
          ExpectInsertedTuples(fx, *table, *rows);
        }
        if (table->name() == "frac" && variant == Variant::kPlain &&
            (kind == PlanKind::kPrimaryProbe || kind == PlanKind::kHeapScan)) {
          // The fractured answer includes RAM-buffered rows.
          EXPECT_TRUE(std::any_of(
              run.rows.begin(), run.rows.end(),
              [&](const core::PtqMatch& m) { return fx.buffered.contains(m.id); }));
        }
        EXPECT_TRUE(SameRows(run.rows, prepared.rows));
        if (variant == Variant::kLimit) {
          // LIMIT keeps the highest-confidence rows of the materialized
          // answer; a cursor keeps the head of its own stream (storage order
          // for streaming plans), so each is a prefix of its unlimited self.
          std::vector<core::PtqMatch> head(
              plain_run.begin(),
              plain_run.begin() + std::min(plain_run.size(), q.limit));
          EXPECT_TRUE(SameRows(run.rows, head));
          head.assign(plain_stream.begin(),
                      plain_stream.begin() +
                          std::min(plain_stream.size(), q.limit));
          EXPECT_TRUE(SameRows(stream, head));
        } else {
          EXPECT_TRUE(SameRows(run.rows, cursor.rows));
          EXPECT_TRUE(SameIo(run.io, cursor.io));
          EXPECT_TRUE(SameIo(run.io, prepared.io));
        }
        if (variant == Variant::kPlain) {
          plain_run = run.rows;
          plain_stream = stream;
        }

        std::string ops;
        for (const obs::TraceOp& op : trace.ops) {
          if (!ops.empty()) ops += ",";
          ops += op.label + (op.pruned ? "[pruned]" : "") + ":" +
                 std::to_string(op.rows);
        }
        char line[512];
        std::snprintf(line, sizeof(line),
                      "    {\"%s\", PlanKind::%s, Variant::%s, %llu, %llu, "
                      "%llu, %llu,\n     \"%s\"},\n",
                      table->name().c_str(), PlanKindEnum(kind),
                      VariantName(variant),
                      static_cast<unsigned long long>(run.io.reads),
                      static_cast<unsigned long long>(run.io.seeks),
                      static_cast<unsigned long long>(cursor.io.reads),
                      static_cast<unsigned long long>(cursor.io.seeks),
                      ops.c_str());
        recorded += line;
        const SweepCost* want = nullptr;
        for (const SweepCost& c : kSweepCosts) {
          if (table->name() == c.design && c.kind == kind &&
              c.variant == variant) {
            want = &c;
          }
        }
        if (want == nullptr) {
          ADD_FAILURE() << "no recorded cost; observed:\n" << line;
          continue;
        }
        EXPECT_EQ(run.io.reads, want->reads) << line;
        EXPECT_EQ(run.io.seeks, want->seeks) << line;
        EXPECT_EQ(cursor.io.reads, want->cursor_reads) << line;
        EXPECT_EQ(cursor.io.seeks, want->cursor_seeks) << line;
        EXPECT_EQ(ops, want->ops) << line;
      }
    }
  }
  if (HasFailure()) std::printf("observed sweep costs:\n%s", recorded.c_str());
}

// ---------------------------------------------------------------------------
// Cursor semantics
// ---------------------------------------------------------------------------

TEST(QueryTest, CursorLimitStopsEarlyAndReadsStrictlyFewerPages) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  const sim::SimDisk* disk = fx.db.env()->disk();

  // Materialized execution of the full match set.
  fx.db.ColdCache();
  sim::DiskStats before = disk->stats();
  std::vector<core::PtqMatch> all;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.3), &all).ok());
  uint64_t full_reads = (disk->stats() - before).reads;
  ASSERT_GT(all.size(), 50u);  // a match set worth limiting

  // Streaming LIMIT 5: stops the heap descent after five rows.
  fx.db.ColdCache();
  before = disk->stats();
  auto cursor =
      fx.authors_table->OpenCursor(Query::Ptq(inst, 0.3).WithLimit(5))
          .ValueOrDie();
  std::vector<core::PtqMatch> limited;
  core::PtqMatch m;
  while (cursor->TakeNext(&m)) limited.push_back(std::move(m));
  ASSERT_TRUE(cursor->status().ok());
  uint64_t limited_reads = (disk->stats() - before).reads;

  EXPECT_EQ(limited.size(), 5u);
  EXPECT_LT(limited_reads, full_reads);
  // The limited rows are the stream's head: the highest-confidence matches.
  for (size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i].id, all[i].id);
  }
}

TEST(QueryTest, TopKCursorSkipsCutoffPhase) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  const sim::SimDisk* disk = fx.db.env()->disk();

  // Full PTQ at qt below the cutoff: heap phase plus cutoff-pointer fetches.
  fx.db.ColdCache();
  sim::DiskStats before = disk->stats();
  std::vector<core::PtqMatch> all;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.01), &all).ok());
  uint64_t full_reads = (disk->stats() - before).reads;

  // Top-3 streamed: satisfied by the first heap leaf; the cutoff index is
  // never visited.
  fx.db.ColdCache();
  before = disk->stats();
  auto cursor =
      fx.authors_table->OpenCursor(Query::TopK(inst, 3)).ValueOrDie();
  core::PtqMatch m;
  size_t n = 0;
  while (cursor->TakeNext(&m)) ++n;
  ASSERT_TRUE(cursor->status().ok());
  uint64_t topk_reads = (disk->stats() - before).reads;

  EXPECT_EQ(n, 3u);
  EXPECT_LT(topk_reads, full_reads);
}

TEST(QueryTest, UnclusteredCursorLimitSkipsHeapFetches) {
  // Forced PII-probe plan (on this small fixture the planner itself would
  // sweep): the point is the *cursor* contract — the inverted list is read
  // either way, but the limited consumer skips the per-tuple random heap
  // fetches.
  QueryFx fx;
  Database base_db;
  Table* heap = base_db
                    .CreateUnclusteredTable(
                        "authors_heap", datagen::DblpGenerator::AuthorSchema(),
                        AuthorCols::kInstitution, {AuthorCols::kInstitution},
                        fx.authors)
                    .ValueOrDie();
  std::string inst = fx.gen->PopularInstitution();
  const sim::SimDisk* disk = base_db.env()->disk();

  Plan plan;
  plan.kind = PlanKind::kPrimaryProbe;
  plan.value = inst;
  plan.qt = 0.3;

  base_db.ColdCache();
  sim::DiskStats before = disk->stats();
  auto full_cursor = exec::OpenCursor(*heap->path(), plan).ValueOrDie();
  core::PtqMatch m;
  size_t all = 0;
  while (full_cursor->TakeNext(&m)) ++all;
  ASSERT_TRUE(full_cursor->status().ok());
  uint64_t full_reads = (disk->stats() - before).reads;
  ASSERT_GT(all, 20u);

  base_db.ColdCache();
  before = disk->stats();
  plan.limit = 3;
  auto cursor = exec::OpenCursor(*heap->path(), plan).ValueOrDie();
  size_t n = 0;
  while (cursor->TakeNext(&m)) ++n;
  uint64_t limited_reads = (disk->stats() - before).reads;

  EXPECT_EQ(n, 3u);
  EXPECT_LT(limited_reads, full_reads);
}

TEST(QueryTest, UnclusteredTableReportsItsName) {
  // The plan, EXPLAIN and the slow-query log name the table the caller
  // created, whatever its design.
  QueryFx fx(400);
  DatabaseOptions opts;
  opts.slow_query_ms = 0.001;  // any cold probe crosses it
  Database db(opts);
  Table* heap = db.CreateUnclusteredTable(
                      "heap", datagen::DblpGenerator::AuthorSchema(),
                      AuthorCols::kInstitution, {AuthorCols::kInstitution},
                      fx.authors)
                    .ValueOrDie();
  EXPECT_EQ(heap->path()->name(), "heap");
  db.ColdCache();
  std::vector<core::PtqMatch> rows;
  Plan plan =
      heap->Run(Query::Ptq(fx.gen->PopularInstitution(), 0.3), &rows)
          .ValueOrDie();
  EXPECT_EQ(plan.table, "heap");
  EXPECT_NE(plan.Explain().find("on 'heap'"), std::string::npos);
  std::vector<obs::SlowQueryEntry> entries = db.slow_query_log()->entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].table, "heap");
  EXPECT_NE(entries[0].ToString().find("on 'heap'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cursor kinds: which probe streams and which is eager, per design
// ---------------------------------------------------------------------------

TEST(QueryTest, EachDesignPinsItsCursorKindPerProbe) {
  // A streaming cursor reads storage as rows are pulled; an eager one
  // computed every row at open and serves confidence order. The kind is part
  // of the read contract: a filtered top-k lets a streaming run filter as it
  // descends but re-runs an eager one with a doubled bound, and a LIMIT on a
  // cursor keeps the head of a streaming run's storage order.
  DesignsFx fx;
  const std::string inst = fx.gen->PopularInstitution();
  const std::string country = fx.gen->MidCountry();
  struct Kinds {
    const char* design;
    bool ptq_eager, topk_eager, secondary_eager;
  };
  const Kinds kKinds[] = {
      {"upi", false, false, true},
      {"frac", false, true, true},
      {"heap", false, true, true},
      {"part", true, true, true},
  };
  ASSERT_EQ(fx.tables.size(), std::size(kKinds));
  for (size_t t = 0; t < fx.tables.size(); ++t) {
    const AccessPath& path = *fx.tables[t]->path();
    const Kinds& want = kKinds[t];
    ASSERT_EQ(path.name(), want.design);
    auto check = [&](const char* probe, std::unique_ptr<ResultCursor> cursor,
                     bool eager) {
      SCOPED_TRACE(std::string(want.design) + " " + probe);
      EXPECT_EQ(cursor->eager(), eager);
      std::vector<core::PtqMatch> rows;
      ASSERT_TRUE(cursor->Drain(&rows).ok());
      ASSERT_FALSE(rows.empty());
      if (eager) {
        std::vector<core::PtqMatch> sorted = rows;
        core::SortByConfidenceDesc(&sorted);
        EXPECT_EQ(Ids(rows), Ids(sorted));
      }
    };
    check("ptq", path.OpenPtq(inst, 0.05), want.ptq_eager);
    check("top-k", path.OpenTopK(inst, 10), want.topk_eager);
    check("secondary",
          path.OpenSecondary(AuthorCols::kCountry, country, 0.3,
                             core::SecondaryAccessMode::kTailored),
          want.secondary_eager);
  }
}

// ---------------------------------------------------------------------------
// MaterializedCursor: the eager cursor behind fan-out unions and the
// partitioned gather
// ---------------------------------------------------------------------------

core::PtqMatch Row(catalog::TupleId id, double confidence) {
  core::PtqMatch m;
  m.id = id;
  m.confidence = confidence;
  return m;
}

TEST(QueryTest, MaterializedCursorServesResultOrder) {
  // Concatenated per-shard runs: unsorted, with a confidence tie that the
  // TupleId breaks.
  MaterializedCursor cursor(
      {Row(5, 0.1), Row(4, 0.5), Row(1, 0.9), Row(3, 0.5), Row(2, 0.8)});
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(cursor.Drain(&out).ok());
  EXPECT_EQ(Ids(out), (std::vector<catalog::TupleId>{1, 2, 3, 4, 5}));
}

TEST(QueryTest, MaterializedCursorCarriesFailure) {
  MaterializedCursor cursor({Row(1, 0.9)}, Status::IOError("shard 2 died"));
  core::PtqMatch m;
  EXPECT_FALSE(cursor.TakeNext(&m));
  EXPECT_EQ(cursor.status().code(), StatusCode::kIOError);
  EXPECT_EQ(cursor.rows_returned(), 0u);
}

TEST(QueryTest, PredicateFiltersRows) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  std::vector<core::PtqMatch> all, confident;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.1), &all).ok());
  ASSERT_TRUE(fx.authors_table
                  ->Run(Query::Ptq(inst, 0.1).Where([&](const Tuple& t) {
                    return t.existence() >= 0.9;
                  }),
                        &confident)
                  .ok());
  size_t expected = 0;
  for (const auto& m : all) {
    if (m.tuple.existence() >= 0.9) ++expected;
  }
  ASSERT_GT(confident.size(), 0u);
  ASSERT_LT(confident.size(), all.size());
  EXPECT_EQ(confident.size(), expected);
}

/// Whether `rows` is in result order: descending confidence, ties by id.
bool InConfidenceOrder(std::vector<core::PtqMatch>::const_iterator begin,
                       std::vector<core::PtqMatch>::const_iterator end) {
  return std::is_sorted(begin, end,
                        [](const core::PtqMatch& a, const core::PtqMatch& b) {
                          if (a.confidence != b.confidence) {
                            return a.confidence > b.confidence;
                          }
                          return a.id < b.id;
                        });
}

TEST(QueryTest, ExecutionsAppendAfterWhatTheVectorHolds) {
  // Table::Run, BoundQuery::Execute and exec::Execute append this
  // execution's rows, sorted and trimmed, after whatever `out` holds: two
  // executions into one vector keep the first result and put the second
  // after it, each in confidence order.
  QueryFx fx;
  const std::string inst = fx.gen->PopularInstitution();
  const std::string other = fx.gen->InstitutionName(3);
  const Query ptq = Query::Ptq(inst, 0.3);
  const Query topk = Query::TopK(other, 7);
  std::vector<core::PtqMatch> first, second;
  ASSERT_TRUE(fx.authors_table->Run(ptq, &first).ok());
  ASSERT_TRUE(fx.authors_table->Run(topk, &second).ok());
  ASSERT_GT(first.size(), 7u);
  ASSERT_EQ(second.size(), 7u);
  ASSERT_TRUE(InConfidenceOrder(first.begin(), first.end()));
  ASSERT_TRUE(InConfidenceOrder(second.begin(), second.end()));
  // The concatenation is not one sorted answer: the second result restarts
  // at a higher confidence than the first one ends with.
  ASSERT_GT(second.front().confidence, first.back().confidence);

  PreparedQuery prepared = fx.authors_table->Prepare(topk).ValueOrDie();
  const Plan plan = fx.authors_table->planner().PlanQuery(topk);
  using Second = std::function<Status(std::vector<core::PtqMatch>*)>;
  const std::pair<const char*, Second> routes[] = {
      {"Table::Run",
       [&](auto* out) { return fx.authors_table->Run(topk, out).status(); }},
      {"BoundQuery::Execute",
       [&](auto* out) { return prepared.Bind(other).Execute(out).status(); }},
      {"exec::Execute",
       [&](auto* out) {
         return exec::Execute(*fx.authors_table->path(), plan, out);
       }},
  };
  for (const auto& [name, run_second] : routes) {
    SCOPED_TRACE(name);
    std::vector<core::PtqMatch> both;
    ASSERT_TRUE(fx.authors_table->Run(ptq, &both).ok());
    ASSERT_TRUE(run_second(&both).ok());
    ASSERT_EQ(both.size(), first.size() + second.size());
    std::vector<core::PtqMatch> head(both.begin(), both.begin() + first.size());
    std::vector<core::PtqMatch> tail(both.begin() + first.size(), both.end());
    EXPECT_TRUE(SameRows(head, first));
    EXPECT_TRUE(SameRows(tail, second));
    EXPECT_TRUE(InConfidenceOrder(both.begin() + first.size(), both.end()));
    EXPECT_FALSE(InConfidenceOrder(both.begin(), both.end()));
  }
}

TEST(QueryTest, ScanFilterOnFracturedSeesBufferFracturesAndDeletes) {
  QueryFx fx;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      fx.db.CreateFracturedTable("authors_frac",
                                 datagen::DblpGenerator::AuthorSchema(), opt,
                                 {}, {})
          .ValueOrDie();
  // A fracture on disk, a buffered tail, and a deletion in each regime.
  for (size_t i = 0; i < 300; ++i) ASSERT_TRUE(table->Insert(fx.authors[i]).ok());
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  for (size_t i = 300; i < 400; ++i) ASSERT_TRUE(table->Insert(fx.authors[i]).ok());
  ASSERT_TRUE(table->Delete(fx.authors[5]).ok());    // flushed victim
  ASSERT_TRUE(table->Delete(fx.authors[350]).ok());  // buffered victim

  std::string inst = fx.gen->PopularInstitution();
  std::vector<core::PtqMatch> via_ptq, via_scan;
  ASSERT_TRUE(table->Run(Query::Ptq(inst, 0.2), &via_ptq).ok());
  ASSERT_TRUE(
      table->Run(Query::ScanFilter(AuthorCols::kInstitution, inst, 0.2),
                 &via_scan)
          .ok());
  ASSERT_GT(via_ptq.size(), 0u);
  EXPECT_EQ(Ids(via_scan), Ids(via_ptq));
}

// A row's confidence must not depend on the plan. Index probes report the
// 2^-30-quantized value their keys store, so the scan filter must report
// exactly that value too (a row at the threshold then qualifies under both).
TEST(QueryTest, ScanFilterConfidencesMatchIndexProbeBitForBit) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  std::vector<core::PtqMatch> via_ptq, via_scan;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.2), &via_ptq).ok());
  ASSERT_TRUE(fx.authors_table
                  ->Run(Query::ScanFilter(AuthorCols::kInstitution, inst, 0.2),
                        &via_scan)
                  .ok());
  ASSERT_GT(via_ptq.size(), 0u);
  ASSERT_EQ(via_scan.size(), via_ptq.size());
  std::map<catalog::TupleId, double> ptq_conf;
  for (const auto& m : via_ptq) ptq_conf[m.id] = m.confidence;
  for (const auto& m : via_scan) {
    auto it = ptq_conf.find(m.id);
    ASSERT_NE(it, ptq_conf.end()) << "id " << m.id << " only in the scan";
    EXPECT_EQ(m.confidence, it->second) << "id " << m.id;
  }
}

// ---------------------------------------------------------------------------
// Prepared queries: caching + invalidation
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, CacheHitsOnRepeatAndInvalidatesOnWrite) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  PreparedQuery pq =
      fx.authors_table->Prepare(Query::Ptq("", 0.3)).ValueOrDie();

  std::vector<core::PtqMatch> a, b;
  ASSERT_TRUE(pq.Bind(inst).Execute(&a).ok());
  ASSERT_TRUE(pq.Bind(inst).Execute(&b).ok());
  EXPECT_EQ(pq.plans(), 1u);
  EXPECT_EQ(pq.hits(), 1u);
  EXPECT_EQ(Ids(a), Ids(b));

  // Any write moves the stats epoch: the next Bind re-plans.
  ASSERT_TRUE(fx.authors_table->Delete(fx.authors[0]).ok());
  std::vector<core::PtqMatch> c;
  ASSERT_TRUE(pq.Bind(inst).Execute(&c).ok());
  EXPECT_EQ(pq.plans(), 2u);
}

TEST(PreparedQueryTest, PreparedRowsMatchPlanEveryCallRows) {
  QueryFx fx;
  PreparedQuery pq =
      fx.authors_table
          ->Prepare(Query::Secondary(AuthorCols::kCountry, "", 0.4))
          .ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    std::string country = "country" + std::string(i < 10 ? "00" : "0") +
                          std::to_string(i);
    std::vector<core::PtqMatch> prepared_rows, direct_rows;
    Result<Plan> prep = pq.Bind(country).Execute(&prepared_rows);
    Result<Plan> direct = fx.authors_table->Run(
        Query::Secondary(AuthorCols::kCountry, country, 0.4), &direct_rows);
    ASSERT_TRUE(prep.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(Ids(prepared_rows), Ids(direct_rows)) << country;
  }
  EXPECT_GE(pq.plans() + pq.hits(), 5u);
}

TEST(PreparedQueryTest, SecondaryReplansAndFlipsAfterMaintenanceFullMerge) {
  // The satellite scenario: a prepared secondary query on a heavily
  // fractured table plans a sweep-free heap scan (every probe would pay
  // 2 * Nfrac * (Costinit + H * Tseek)); a maintenance full merge collapses
  // the fracture tax, moves the stats epoch, and the same prepared handle
  // must re-plan — flipping to the secondary index.
  QueryFx fx(8000);
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      fx.db.CreateFracturedTable("stream",
                                 datagen::DblpGenerator::AuthorSchema(), opt,
                                 {AuthorCols::kCountry}, {})
          .ValueOrDie();
  // Main fracture with most of the data, then a dozen small delta fractures.
  size_t base = fx.authors.size() - 600;
  for (size_t i = 0; i < base; ++i) {
    ASSERT_TRUE(table->Insert(fx.authors[i]).ok());
  }
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  for (int frac = 0; frac < 12; ++frac) {
    for (size_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(table->Insert(fx.authors[base + frac * 50 + i]).ok());
    }
    ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  }
  ASSERT_GE(table->stats().table.num_fractures, 13u);

  std::string country = datagen::FindValueWithApproxCount(
      fx.authors, AuthorCols::kCountry, 150);
  PreparedQuery pq =
      table->Prepare(Query::Secondary(AuthorCols::kCountry, "", 0.5))
          .ValueOrDie();

  BoundQuery before = pq.Bind(country);
  EXPECT_EQ(before.plan().kind, PlanKind::kHeapScan) << before.plan().Explain();
  EXPECT_EQ(pq.plans(), 1u);
  // Re-binding without any write serves the cache.
  (void)pq.Bind(country);
  EXPECT_EQ(pq.plans(), 1u);
  EXPECT_EQ(pq.hits(), 1u);

  // Maintenance full merge: fracture count 13 -> 1, epoch moves.
  fx.db.maintenance()->ScheduleMergeAll(table->fractured());
  ASSERT_GT(fx.db.RunMaintenance(), 0u);
  ASSERT_TRUE(fx.db.maintenance()->last_error().ok());
  ASSERT_EQ(table->stats().table.num_fractures, 1u);

  BoundQuery after = pq.Bind(country);
  EXPECT_EQ(pq.plans(), 2u);  // the cache was invalidated, not reused
  EXPECT_TRUE(after.plan().kind == PlanKind::kSecondaryTailored ||
              after.plan().kind == PlanKind::kSecondaryFirstPointer)
      << after.plan().Explain();

  // And both plans produce the same rows.
  std::vector<core::PtqMatch> rows_before, rows_after;
  ASSERT_TRUE(before.Execute(&rows_before).ok());
  ASSERT_TRUE(after.Execute(&rows_after).ok());
  EXPECT_EQ(Ids(rows_before), Ids(rows_after));
}

// ---------------------------------------------------------------------------
// Plan copies stay cheap and self-consistent
// ---------------------------------------------------------------------------

TEST(PlanTest, CopiesShareTheCandidateList) {
  QueryFx fx;
  Plan plan = fx.authors_table->planner().PlanPtq(fx.gen->PopularInstitution(),
                                                  0.3);
  Plan copy = plan;
  EXPECT_EQ(copy.shared_candidates.get(), plan.shared_candidates.get());
  EXPECT_EQ(copy.Explain(), plan.Explain());
  EXPECT_GE(plan.candidates().size(), 2u);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

TEST(SessionTest, SubmitsExecuteInOrderWithPerOpSimCost) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  PreparedQuery pq =
      fx.authors_table->Prepare(Query::Ptq("", 0.3)).ValueOrDie();

  std::vector<core::PtqMatch> direct;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.3), &direct).ok());

  fx.db.ColdCache();
  Session session(&fx.db);
  auto f1 = session.Submit(pq, inst);
  auto f2 = session.Submit(*fx.authors_table, Query::TopK(inst, 5));
  Result<QueryResult> r1 = f1.get();
  Result<QueryResult> r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(Ids(r1.value().rows), Ids(direct));
  // Cold cache + execution on the session worker: the per-op simulated cost
  // is attributed to the operation, not to this (client) thread.
  EXPECT_GT(r1.value().sim_ms, 0.0);
  EXPECT_EQ(r2.value().rows.size(), 5u);
  EXPECT_EQ(session.submitted(), 2u);
}

TEST(SessionTest, ReturnedRowsOwnTheirBytesPastFlushAndMerge) {
  // A row that Table::Run, BoundQuery::Execute or a Session future returns
  // owns its tuple's bytes: after a flush and a full merge release the
  // fractures and the buffer it was read from, every row still decodes to
  // the tuple inserted under its id. A row that viewed a leaf, a pool frame
  // or a buffered tuple would read freed memory here (the sanitizer build
  // reports it).
  QueryFx fx;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      fx.db.CreateFracturedTable("frac", datagen::DblpGenerator::AuthorSchema(),
                                 opt, {AuthorCols::kCountry}, {})
          .ValueOrDie();
  for (size_t i = 0; i < 600; ++i) ASSERT_TRUE(table->Insert(fx.authors[i]).ok());
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  for (size_t i = 600; i < 800; ++i) ASSERT_TRUE(table->Insert(fx.authors[i]).ok());
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  for (size_t i = 800; i < 900; ++i) ASSERT_TRUE(table->Insert(fx.authors[i]).ok());

  const std::string inst = fx.gen->PopularInstitution();
  const Query q = Query::Ptq(inst, 0.05);
  std::vector<core::PtqMatch> run, executed;
  ASSERT_TRUE(table->Run(q, &run).ok());
  PreparedQuery pq = table->Prepare(q).ValueOrDie();
  ASSERT_TRUE(pq.Bind(inst).Execute(&executed).ok());
  Result<QueryResult> submitted = [&] {
    Session session(&fx.db);
    return session.Submit(pq, inst).get();
  }();
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(table->fractured()->num_fractures(), 2u);

  // The buffered rows go to a third fracture; the merge then releases all
  // three fractures' files, pool frames and RAM pages.
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  ASSERT_TRUE(table->fractured()->MergeAll().ok());
  ASSERT_EQ(table->fractured()->num_fractures(), 1u);
  fx.db.ColdCache();

  std::map<catalog::TupleId, const Tuple*> by_id;
  for (size_t i = 0; i < 900; ++i) by_id[fx.authors[i].id()] = &fx.authors[i];
  for (const auto* rows : {&run, &executed, &submitted.value().rows}) {
    ASSERT_FALSE(rows->empty());
    EXPECT_EQ(Ids(*rows), Ids(run));
    for (const core::PtqMatch& m : *rows) {
      auto it = by_id.find(m.id);
      ASSERT_NE(it, by_id.end()) << m.id;
      Result<Tuple> t = m.tuple.Decode();
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_TRUE(t.value() == *it->second) << m.id;
    }
  }
}

TEST(SessionTest, ManyConcurrentSessionsAgree) {
  QueryFx fx;
  std::string inst = fx.gen->PopularInstitution();
  PreparedQuery pq =
      fx.authors_table->Prepare(Query::Ptq("", 0.3)).ValueOrDie();
  std::vector<core::PtqMatch> direct;
  ASSERT_TRUE(fx.authors_table->Run(Query::Ptq(inst, 0.3), &direct).ok());

  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<Session>(&fx.db));
    for (int i = 0; i < 8; ++i) futures.push_back(sessions[s]->Submit(pq, inst));
  }
  for (auto& fut : futures) {
    Result<QueryResult> r = fut.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(Ids(r.value().rows), Ids(direct));
  }
  // The shared prepared cache served (nearly) everything: planning happens
  // outside the cache mutex, so racing first binds may each plan once, but
  // the steady state is all hits.
  EXPECT_LE(pq.plans(), static_cast<uint64_t>(kSessions));
  EXPECT_EQ(pq.plans() + pq.hits(), kSessions * 8u);
}

}  // namespace
}  // namespace upi::engine
