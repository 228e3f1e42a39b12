// Tests for the partitioned read path's gather (engine/partition.h):
// partitioned PTQ / secondary / top-k results are bit-identical to the same
// data in an unpartitioned Fractured UPI — with pruning on and off — and a
// partitioned cursor serves the union in global result order.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "datagen/dblp.h"
#include "engine/database.h"
#include "exec/operators.h"

namespace upi::exec {
namespace {

using catalog::Schema;
using catalog::Tuple;
using datagen::AuthorCols;
using engine::Database;
using engine::DatabaseOptions;
using engine::PartitionOptions;
using engine::Query;
using engine::Table;

// ---------------------------------------------------------------------------
// Partitioned results are bit-identical to unpartitioned, pruning on or off
// ---------------------------------------------------------------------------

struct EquivalenceFixture {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  Database db;
  Table* flat_frac = nullptr;  // Fractured UPI
  Table* pruned = nullptr;     // 4 shards, pruning on
  Table* unpruned = nullptr;   // 4 shards, shard and fracture pruning off

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
    flat_frac =
        db.CreateFracturedTable("f", schema, opt, sec, authors).ValueOrDie();
    PartitionOptions popts;
    popts.num_shards = 4;
    pruned = db.CreatePartitionedTable("pf", schema, opt, sec, popts, authors)
                 .ValueOrDie();
    opt.enable_pruning = false;
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
/// same plan kind over the same physical design, so every row goes through
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
      // Pinned to the native probe on both sides: bit-identical.
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
