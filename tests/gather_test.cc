// Tests for scatter-gather merge execution (exec/gather.h + the partitioned
// read path): MergedRunsCursor global ordering, GlobalTopKBound semantics,
// the top-k global-bound early exit pinning strictly fewer simulated pages
// than draining every shard (with bit-identical results), and partitioned
// PTQ / secondary / top-k results being bit-identical to the same data in an
// unpartitioned table — with shard pruning on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "datagen/dblp.h"
#include "engine/database.h"
#include "exec/gather.h"
#include "exec/operators.h"
#include "prob/confidence.h"
#include "sim/sim_disk.h"

namespace upi::exec {
namespace {

using catalog::Schema;
using catalog::Tuple;
using catalog::Value;
using catalog::ValueType;
using datagen::AuthorCols;
using engine::Database;
using engine::DatabaseOptions;
using engine::PartitionOptions;
using engine::Partitioner;
using engine::PartitionedTable;
using engine::Query;
using engine::Table;
using prob::Alternative;
using prob::DiscreteDistribution;

DiscreteDistribution Dist(std::vector<Alternative> alts) {
  return DiscreteDistribution::Make(std::move(alts)).ValueOrDie();
}

core::PtqMatch Match(catalog::TupleId id, double confidence) {
  core::PtqMatch m;
  m.id = id;
  m.confidence = confidence;
  return m;
}

// ---------------------------------------------------------------------------
// Merge primitives
// ---------------------------------------------------------------------------

TEST(GatherTest, MergedRunsCursorInterleavesGlobally) {
  std::vector<std::vector<core::PtqMatch>> runs;
  runs.push_back({Match(1, 0.9), Match(4, 0.5), Match(5, 0.1)});
  runs.push_back({Match(2, 0.8), Match(3, 0.5)});  // 0.5 tie: id 3 before 4
  runs.push_back({});
  MergedRunsCursor cursor(std::move(runs));
  std::vector<core::PtqMatch> out;
  core::PtqMatch m;
  while (cursor.TakeNext(&m)) out.push_back(m);
  ASSERT_TRUE(cursor.status().ok());
  ASSERT_EQ(out.size(), 5u);
  const catalog::TupleId want[] = {1, 2, 3, 4, 5};
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, want[i]);
}

TEST(GatherTest, MergedRunsCursorCarriesScatterFailure) {
  MergedRunsCursor cursor({{Match(1, 0.9)}}, Status::IOError("shard 2 died"));
  core::PtqMatch m;
  EXPECT_FALSE(cursor.TakeNext(&m));
  EXPECT_EQ(cursor.status().code(), StatusCode::kIOError);
}

TEST(GatherTest, GlobalTopKBoundAdmitsUntilSaturatedThenRejectsStrictlyBelow) {
  GlobalTopKBound bound(3);
  EXPECT_TRUE(bound.Offer(0.9));
  EXPECT_TRUE(bound.Offer(0.2));  // heap not full yet: everything admitted
  EXPECT_TRUE(bound.Offer(0.5));
  EXPECT_EQ(bound.Kth(), 0.2);
  EXPECT_FALSE(bound.Offer(0.1));  // strictly below the 3rd-best
  EXPECT_TRUE(bound.Offer(0.2));   // tie with the k-th: admitted
  EXPECT_TRUE(bound.Offer(0.8));   // raises the bound
  EXPECT_EQ(bound.Kth(), 0.5);
  EXPECT_FALSE(bound.Offer(0.2));  // the old k-th no longer clears it
}

// ---------------------------------------------------------------------------
// Top-k early exit: strictly fewer pages than drain-all, identical rows
// ---------------------------------------------------------------------------

/// Finds a key with the given prefix that hash-routes to `shard` of `n`.
std::string KeyOnShard(const std::string& prefix, size_t shard, size_t n) {
  for (int i = 0;; ++i) {
    std::string key = prefix + std::to_string(i);
    if (Partitioner::HashKey(key) % n == shard) return key;
  }
}

struct TopKFixture {
  static constexpr size_t kShards = 4;
  static constexpr size_t kK = 5;
  std::string hot;
  std::vector<Tuple> tuples;

  TopKFixture() {
    // The hot value lives on shard 0, which a serial scatter probes first —
    // so the global bound is saturated at 0.95 before any other shard runs.
    hot = KeyOnShard("hot", 0, kShards);
    catalog::TupleId id = 1;
    for (size_t i = 0; i < kK; ++i) {
      tuples.push_back(Tuple(id++, 1.0,
                             {Value::String("owner"),
                              Value::Discrete(Dist({{hot, 0.95},
                                                    {"zz-alt", 0.05}}))}));
    }
    // Every other shard: one heap entry for the hot value at 0.45 (the row
    // the bound rejects immediately) plus six below-cutoff alternatives,
    // whose cutoff-index pointers only a drain-all pays to dereference.
    for (size_t shard = 1; shard < kShards; ++shard) {
      std::string filler = KeyOnShard("f" + std::to_string(shard), shard,
                                      kShards);
      tuples.push_back(Tuple(id++, 1.0,
                             {Value::String("mid"),
                              Value::Discrete(Dist({{filler, 0.55},
                                                    {hot, 0.45}}))}));
      for (int j = 0; j < 6; ++j) {
        std::string home = KeyOnShard("g" + std::to_string(shard) + "x" +
                                          std::to_string(j),
                                      shard, kShards);
        tuples.push_back(Tuple(id++, 1.0,
                               {Value::String("low"),
                                Value::Discrete(Dist({{home, 0.92},
                                                      {hot, 0.08}}))}));
      }
    }
  }

  static Table* Build(Database* db, const TopKFixture& fx) {
    core::UpiOptions opt;
    opt.cluster_column = 1;
    opt.cutoff = 0.1;
    opt.charge_open_per_query = false;
    PartitionOptions popts;
    popts.num_shards = kShards;
    popts.fractured = false;  // plain UPI shards stream their top-k
    return db
        ->CreatePartitionedTable("t", Schema({{"Name", ValueType::kString},
                                              {"Inst", ValueType::kDiscrete}}),
                                 opt, {}, popts, fx.tuples)
        .ValueOrDie();
  }
};

TEST(GatherTest, TopKGlobalBoundReadsStrictlyFewerPagesThanDrainAll) {
  TopKFixture fx;
  DatabaseOptions dopt;
  dopt.gather_workers = 0;  // serial: deterministic shard order + page counts

  // Simulated I/O of `read` on a fresh, cold copy of the table.
  auto measure = [&](const std::function<void(const PartitionedTable&)>& read) {
    Database db(dopt);
    const PartitionedTable& t = *TopKFixture::Build(&db, fx)->partitioned();
    db.ColdCache();
    sim::DiskStats before = db.env()->disk()->stats();
    read(t);
    return db.env()->disk()->stats() - before;
  };

  std::vector<core::PtqMatch> bounded_rows, drained_rows;
  sim::DiskStats bounded = measure([&](const PartitionedTable& t) {
    EXPECT_TRUE(t.OpenTopK(fx.hot, TopKFixture::kK)->Drain(&bounded_rows).ok());
  });
  // The drain-all baseline: every shard streams its full k rows in scatter
  // order, the reads an unbounded serial scatter makes.
  sim::DiskStats drained = measure([&](const PartitionedTable& t) {
    for (size_t i = 0; i < t.num_shards(); ++i) {
      EXPECT_TRUE(t.shard_path(i)
                      ->OpenTopK(fx.hot, TopKFixture::kK)
                      ->Drain(&drained_rows)
                      .ok());
    }
    core::SortByConfidenceDesc(&drained_rows);
    drained_rows.resize(std::min(drained_rows.size(), TopKFixture::kK));
  });

  // Identical results under either policy...
  ASSERT_EQ(bounded_rows.size(), TopKFixture::kK);
  ASSERT_EQ(drained_rows.size(), TopKFixture::kK);
  for (size_t i = 0; i < TopKFixture::kK; ++i) {
    EXPECT_EQ(bounded_rows[i].id, drained_rows[i].id);
    EXPECT_EQ(bounded_rows[i].confidence, drained_rows[i].confidence);
    // The key encoding quantizes the probability; compare within its step.
    EXPECT_NEAR(bounded_rows[i].confidence, 0.95, 1e-8);
  }
  // ...but the bound stops lagging shards before their cutoff-pointer
  // dereferences: strictly fewer simulated page reads.
  EXPECT_LT(bounded.reads, drained.reads);
}

// ---------------------------------------------------------------------------
// Partitioned results are bit-identical to unpartitioned, pruning on or off
// ---------------------------------------------------------------------------

struct EquivalenceFixture {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  Database db;
  // Bit-identity holds per physical shard design, so each flat table is
  // compared against shards of the same design.
  Table* flat_upi = nullptr;   // plain UPI
  Table* part_upi = nullptr;   // 4 plain-UPI shards
  Table* flat_frac = nullptr;  // Fractured UPI
  Table* pruned = nullptr;     // 4 fractured shards, shard pruning on
  Table* unpruned = nullptr;   // 4 fractured shards, shard pruning off

  EquivalenceFixture() : db(Opts()) {
    cfg.num_authors = 1200;
    cfg.num_institutions = 60;
    cfg.seed = 99;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    authors = gen->GenerateAuthors();
    core::UpiOptions opt;
    opt.cluster_column = AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    const Schema schema = datagen::DblpGenerator::AuthorSchema();
    const std::vector<int> sec = {AuthorCols::kCountry};
    flat_upi = db.CreateUpiTable("u", schema, opt, sec, authors).ValueOrDie();
    flat_frac =
        db.CreateFracturedTable("f", schema, opt, sec, authors).ValueOrDie();
    PartitionOptions popts;
    popts.num_shards = 4;
    popts.fractured = false;
    part_upi = db.CreatePartitionedTable("pu", schema, opt, sec, popts,
                                         authors)
                   .ValueOrDie();
    popts.fractured = true;
    pruned = db.CreatePartitionedTable("pf", schema, opt, sec, popts, authors)
                 .ValueOrDie();
    popts.enable_pruning = false;
    unpruned =
        db.CreatePartitionedTable("pf0", schema, opt, sec, popts, authors)
            .ValueOrDie();
  }

  static DatabaseOptions Opts() {
    DatabaseOptions d;
    d.gather_workers = 2;
    return d;
  }

  /// Every distinct institution alternative in the data set.
  std::vector<std::string> Institutions() const {
    std::set<std::string> vals;
    for (const Tuple& t : authors) {
      const auto& v = t.Get(AuthorCols::kInstitution);
      for (const auto& alt : v.discrete().alternatives()) {
        vals.insert(alt.value);
      }
    }
    return {vals.begin(), vals.end()};
  }
};

/// `exact` compares confidences bit-for-bit — valid when both sides run the
/// same plan kind over the same shard design, so every row goes through
/// identical arithmetic. Planner-driven comparisons pass exact=false: plans
/// of different kinds legitimately differ in the last bits (key-decoded vs
/// recomputed confidence), partitioned or not.
void ExpectSameRows(const std::vector<core::PtqMatch>& a,
                    const std::vector<core::PtqMatch>& b,
                    const std::string& what, bool exact = true) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << " row " << i;
    if (exact) {
      EXPECT_EQ(a[i].confidence, b[i].confidence) << what << " row " << i;
    } else {
      EXPECT_NEAR(a[i].confidence, b[i].confidence, 1e-9)
          << what << " row " << i;
    }
  }
}

/// The path's native PTQ pinned to kPrimaryProbe (no planner): the exact
/// execution the scatter-gather must reproduce bit-for-bit.
std::vector<core::PtqMatch> PinnedProbe(const Table* t,
                                        const std::string& value, double qt) {
  engine::Plan plan;
  plan.kind = engine::PlanKind::kPrimaryProbe;
  plan.value = value;
  plan.qt = qt;
  std::vector<core::PtqMatch> rows;
  EXPECT_TRUE(Execute(*t->path(), plan, &rows).ok());
  return rows;
}

TEST(GatherTest, PartitionedPtqBitIdenticalToUnpartitioned) {
  EquivalenceFixture fx;
  for (const std::string& inst : fx.Institutions()) {
    for (double qt : {0.05, 0.3, 0.7}) {
      std::string what = "ptq " + inst + " qt=" + std::to_string(qt);
      // Pinned to the native probe on both sides: bit-identical, per design.
      ExpectSameRows(PinnedProbe(fx.flat_upi, inst, qt),
                     PinnedProbe(fx.part_upi, inst, qt),
                     what + " (plain shards)");
      std::vector<core::PtqMatch> frac_rows = PinnedProbe(fx.flat_frac, inst,
                                                          qt);
      ExpectSameRows(frac_rows, PinnedProbe(fx.pruned, inst, qt),
                     what + " (pruning on)");
      ExpectSameRows(frac_rows, PinnedProbe(fx.unpruned, inst, qt),
                     what + " (pruning off)");

      // Planner-driven executions agree on the result set; plan kinds may
      // differ across table shapes, so confidences compare within 1e-9.
      std::vector<core::PtqMatch> flat_run, part_run;
      ASSERT_TRUE(fx.flat_frac->Run(Query::Ptq(inst, qt), &flat_run).ok());
      ASSERT_TRUE(fx.pruned->Run(Query::Ptq(inst, qt), &part_run).ok());
      ExpectSameRows(flat_run, part_run, what + " (planned)", false);
    }
  }
}

TEST(GatherTest, PartitionedSecondaryAndTopKMatchUnpartitioned) {
  EquivalenceFixture fx;
  std::string inst = fx.gen->PopularInstitution();

  std::vector<core::PtqMatch> flat_rows, on_rows, off_rows;
  ASSERT_TRUE(fx.flat_frac
                  ->Run(Query::Secondary(AuthorCols::kCountry, "US", 0.3),
                        &flat_rows)
                  .ok());
  ASSERT_TRUE(fx.pruned
                  ->Run(Query::Secondary(AuthorCols::kCountry, "US", 0.3),
                        &on_rows)
                  .ok());
  ASSERT_TRUE(fx.unpruned
                  ->Run(Query::Secondary(AuthorCols::kCountry, "US", 0.3),
                        &off_rows)
                  .ok());
  ExpectSameRows(flat_rows, on_rows, "secondary (pruning on)", false);
  ExpectSameRows(flat_rows, off_rows, "secondary (pruning off)", false);

  for (size_t k : {1u, 5u, 20u}) {
    std::vector<core::PtqMatch> flat_k, part_k;
    ASSERT_TRUE(fx.flat_frac->partitioned() == nullptr);
    ASSERT_TRUE(fx.flat_frac->path()->OpenTopK(inst, k)->Drain(&flat_k).ok());
    ASSERT_TRUE(
        fx.pruned->partitioned()->OpenTopK(inst, k)->Drain(&part_k).ok());
    ExpectSameRows(flat_k, part_k, "topk k=" + std::to_string(k));
  }
}

TEST(GatherTest, PartitionedCursorStreamsInGlobalOrder) {
  EquivalenceFixture fx;
  std::string inst = fx.gen->PopularInstitution();
  std::vector<core::PtqMatch> materialized;
  ASSERT_TRUE(fx.pruned->Run(Query::Ptq(inst, 0.05), &materialized).ok());
  ASSERT_GT(materialized.size(), 5u);

  auto cursor = fx.pruned->OpenCursor(Query::Ptq(inst, 0.05)).ValueOrDie();
  std::vector<core::PtqMatch> streamed;
  core::PtqMatch m;
  while (cursor->TakeNext(&m)) streamed.push_back(std::move(m));
  ASSERT_TRUE(cursor->status().ok());
  ExpectSameRows(materialized, streamed, "merged stream");
  // Globally ordered as it streams: descending confidence throughout.
  for (size_t i = 1; i < streamed.size(); ++i) {
    EXPECT_GE(streamed[i - 1].confidence, streamed[i].confidence);
  }
}

}  // namespace
}  // namespace upi::exec
