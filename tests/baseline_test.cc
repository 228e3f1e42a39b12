#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baseline/pii.h"
#include "baseline/secondary_utree.h"
#include "baseline/unclustered_table.h"
#include "core/upi.h"
#include "datagen/cartel.h"
#include "datagen/dblp.h"
#include "storage/db_env.h"

namespace upi::baseline {
namespace {

using catalog::Tuple;
using catalog::TupleId;
using datagen::AuthorCols;

struct Fx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> tuples;
  storage::DbEnv env;
  std::unique_ptr<UnclusteredTable> table;

  explicit Fx(uint64_t n = 800, uint64_t seed = 51) {
    cfg.num_authors = n;
    cfg.num_institutions = 60;
    cfg.seed = seed;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    tuples = gen->GenerateAuthors();
    table = UnclusteredTable::Build(&env, "authors",
                                    datagen::DblpGenerator::AuthorSchema(),
                                    AuthorCols::kInstitution,
                                    {AuthorCols::kInstitution}, tuples)
                .ValueOrDie();
  }
};

/// An empty PII index on a new file, maintained by Put and Remove.
std::unique_ptr<PiiIndex> EmptyPii(storage::DbEnv* env) {
  return PiiIndex::Builder(
             env->MakePager(env->CreateFile("pii", 8192).ValueOrDie()))
      .Finish()
      .ValueOrDie();
}

TEST(PiiIndexTest, CollectOrderedByConfidence) {
  storage::DbEnv env;
  std::unique_ptr<PiiIndex> pii = EmptyPii(&env);
  ASSERT_TRUE(pii->Put("MIT", 0.95, 2, {0, 0}).ok());
  ASSERT_TRUE(pii->Put("MIT", 0.18, 1, {0, 1}).ok());
  ASSERT_TRUE(pii->Put("UCB", 0.05, 2, {0, 0}).ok());
  std::vector<PiiIndex::Entry> out;
  ASSERT_TRUE(pii->Collect("MIT", 0.0, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key.id, 2u);
  EXPECT_NEAR(out[0].key.prob, 0.95, 1e-8);
  EXPECT_EQ(out[1].key.id, 1u);
  // Threshold stops early.
  out.clear();
  ASSERT_TRUE(pii->Collect("MIT", 0.5, &out).ok());
  EXPECT_EQ(out.size(), 1u);
  // Limit supports top-k.
  out.clear();
  ASSERT_TRUE(pii->Collect("MIT", 0.0, &out, 1).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(PiiIndexTest, RemoveDeletesEntry) {
  storage::DbEnv env;
  std::unique_ptr<PiiIndex> pii = EmptyPii(&env);
  ASSERT_TRUE(pii->Put("X", 0.5, 1, {3, 4}).ok());
  ASSERT_TRUE(pii->Remove("X", 0.5, 1).ok());
  std::vector<PiiIndex::Entry> out;
  ASSERT_TRUE(pii->Collect("X", 0.0, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(pii->Remove("X", 0.5, 1).IsNotFound());
}

TEST(UnclusteredTableTest, QueryMatchesOracle) {
  Fx fx;
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    std::string value =
        fx.gen->InstitutionName(rng.Uniform(fx.cfg.num_institutions));
    double qt = rng.NextDouble() * 0.8 + 0.01;
    std::map<TupleId, double> oracle;
    for (const Tuple& t : fx.tuples) {
      double conf = t.ConfidenceOf(AuthorCols::kInstitution, value);
      if (conf >= qt && conf > 0) oracle[t.id()] = conf;
    }
    std::vector<core::PtqMatch> out;
    ASSERT_TRUE(fx.table->OpenPii(AuthorCols::kInstitution, value, qt)
                    ->Drain(&out)
                    .ok());
    std::map<TupleId, double> got;
    for (const auto& m : out) got[m.id] = m.confidence;
    ASSERT_EQ(got.size(), oracle.size()) << value << " qt=" << qt;
    for (const auto& [id, conf] : oracle) {
      ASSERT_TRUE(got.contains(id));
      EXPECT_NEAR(got[id], conf, 1e-6);
    }
  }
}

TEST(UnclusteredTableTest, InsertDeleteMaintainsIndexes) {
  Fx fx(300);
  Tuple extra = fx.gen->MakeAuthor(90000);
  ASSERT_TRUE(fx.table->Insert(extra).ok());
  const std::string v =
      extra.Get(AuthorCols::kInstitution).discrete().First().value;
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(
      fx.table->OpenPii(AuthorCols::kInstitution, v, 0.01)->Drain(&out).ok());
  bool found = false;
  for (const auto& m : out) found |= m.id == extra.id();
  EXPECT_TRUE(found);

  ASSERT_TRUE(fx.table->Delete(extra.id()).ok());
  out.clear();
  ASSERT_TRUE(
      fx.table->OpenPii(AuthorCols::kInstitution, v, 0.01)->Drain(&out).ok());
  for (const auto& m : out) EXPECT_NE(m.id, extra.id());
  EXPECT_TRUE(fx.table->Delete(extra.id()).IsNotFound());
}

TEST(UnclusteredTableTest, InsertRefusesALiveTupleId) {
  // A second record under a live id could never be deleted (Delete finds
  // one RID per id), so the first would stay in every scan and PTQ.
  Fx fx(1000);
  const Tuple& one = fx.tuples[1];
  const Tuple& two = fx.tuples[2];
  EXPECT_TRUE(fx.table->Insert(Tuple(one.id(), two.existence(), two.values()))
                  .IsAlreadyExists());
  auto scan = [&fx]() {
    std::multimap<TupleId, Tuple> rows;
    EXPECT_TRUE(fx.table
                    ->ScanTuples([&rows](catalog::TupleView t) {
                      rows.emplace(t.id(), t.Decode().ValueOrDie());
                    })
                    .ok());
    return rows;
  };
  std::multimap<TupleId, Tuple> rows = scan();
  ASSERT_EQ(rows.count(one.id()), 1u);
  EXPECT_TRUE(rows.find(one.id())->second == one);

  ASSERT_TRUE(fx.table->Delete(one.id()).ok());
  EXPECT_TRUE(fx.table->Delete(one.id()).IsNotFound());
  EXPECT_EQ(scan().count(one.id()), 0u);
  const std::string inst =
      one.Get(AuthorCols::kInstitution).discrete().First().value;
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(fx.table->OpenPtq(inst, 0.0)->Drain(&out).ok());
  ASSERT_FALSE(out.empty());
  for (const auto& m : out) EXPECT_NE(m.id, one.id());
}

TEST(UnclusteredTableTest, TopKReadsOnlyKEntries) {
  Fx fx;
  std::string v = fx.gen->PopularInstitution();
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(fx.table->OpenTopK(v, 5)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].confidence, out[i].confidence);
  }
}

TEST(UpiVsPiiIoTest, UpiUsesFarLessIoForNonSelectiveQuery) {
  // The Figure 4 effect in miniature, as an assertion. Open charges are
  // disabled on both sides so the comparison is pure I/O shape.
  Fx fx(10000, 77);
  storage::DbEnv env2;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  opt.charge_open_per_query = false;
  auto upi = core::Upi::Build(&env2, "authors_upi",
                              datagen::DblpGenerator::AuthorSchema(), opt, {},
                              fx.tuples)
                 .ValueOrDie();
  // A mid-popularity institution: matches are sparse relative to the heap,
  // so PII pays per-tuple seeks rather than saturating into a sweep.
  std::string v = fx.gen->InstitutionName(8);
  double qt = 0.2;

  fx.env.ColdCache();
  sim::StatsWindow w_pii(fx.env.disk());
  std::vector<core::PtqMatch> out_pii;
  ASSERT_TRUE(
      fx.table->OpenPii(AuthorCols::kInstitution, v, qt)->Drain(&out_pii).ok());
  double pii_ms = w_pii.ElapsedMs();

  env2.ColdCache();
  sim::StatsWindow w_upi(env2.disk());
  std::vector<core::PtqMatch> out_upi;
  ASSERT_TRUE(upi->OpenPtq(v, qt)->Drain(&out_upi).ok());
  double upi_ms = w_upi.ElapsedMs();

  ASSERT_GT(out_pii.size(), 50u) << "query should not be trivially selective";
  ASSERT_EQ(out_pii.size(), out_upi.size());
  EXPECT_LT(upi_ms * 3, pii_ms) << "UPI=" << upi_ms << " PII=" << pii_ms;
}

TEST(BaselineBuildTest, FlushesOnlyItsOwnFiles) {
  // The unclustered heap and the U-tree go through the pool, and each build
  // flushes only its own file, so another table's dirty page on the same
  // DbEnv stays dirty across both builds.
  storage::DbEnv env;
  datagen::DblpConfig dblp;
  dblp.num_authors = 10;
  datagen::DblpGenerator authors(dblp);
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  auto other = core::Upi::Build(&env, "other",
                                datagen::DblpGenerator::AuthorSchema(), opt,
                                {}, {})
                   .ValueOrDie();
  ASSERT_TRUE(other->Insert(authors.MakeAuthor(800000)).ok());

  datagen::CartelConfig cartel;
  cartel.num_observations = 500;
  datagen::CartelGenerator cars(cartel);
  const std::vector<Tuple> observations = cars.GenerateObservations();
  auto table = UnclusteredTable::Build(
                   &env, "cars_heap",
                   datagen::CartelGenerator::CarObservationSchema(),
                   datagen::CarObsCols::kSegment,
                   {datagen::CarObsCols::kSegment}, observations)
                   .ValueOrDie();
  auto utree = SecondaryUtree::Build(&env, "cars_ut", *table,
                                     datagen::CarObsCols::kLocation,
                                     observations)
                   .ValueOrDie();
  const uint64_t writebacks = env.pool()->counters().writebacks;
  env.pool()->FlushFile(other->heap_tree()->pager()->file());
  EXPECT_EQ(env.pool()->counters().writebacks, writebacks + 1);
}

}  // namespace
}  // namespace upi::baseline
