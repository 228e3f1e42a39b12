#include <gtest/gtest.h>

#include <map>

#include "baseline/unclustered_table.h"
#include "core/continuous_upi.h"
#include "core/upi.h"
#include "datagen/cartel.h"
#include "datagen/dblp.h"
#include "engine/planner.h"
#include "exec/aggregate.h"
#include "exec/operators.h"
#include "exec/ptq.h"
#include "exec/spatial.h"
#include "exec/topk.h"
#include "storage/db_env.h"

namespace upi::exec {
namespace {

using catalog::Tuple;
using catalog::TupleId;
using datagen::AuthorCols;
using datagen::PublicationCols;

struct DblpFx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  std::vector<Tuple> pubs;
  storage::DbEnv env;
  std::unique_ptr<core::Upi> author_upi;
  std::unique_ptr<core::Upi> pub_upi;

  DblpFx() {
    cfg.num_authors = 600;
    cfg.num_publications = 1200;
    cfg.num_institutions = 50;
    cfg.seed = 61;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    authors = gen->GenerateAuthors();
    pubs = gen->GeneratePublications(authors);
    core::UpiOptions opt;
    opt.cluster_column = AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    opt.charge_open_per_query = false;
    author_upi = core::Upi::Build(&env, "authors",
                                  datagen::DblpGenerator::AuthorSchema(), opt,
                                  {}, authors)
                     .ValueOrDie();
    core::UpiOptions popt = opt;
    popt.cluster_column = PublicationCols::kInstitution;
    pub_upi = core::Upi::Build(&env, "pubs",
                               datagen::DblpGenerator::PublicationSchema(),
                               popt, {PublicationCols::kCountry}, pubs)
                  .ValueOrDie();
  }
};

/// The Section 9 estimated-threshold plan, as the planner builds it: one
/// descending-threshold run starting at the histogram's k-th confidence.
engine::Plan EstimatedThresholdPlan(const engine::AccessPath& path,
                                    const std::string& value, size_t k) {
  engine::Plan plan;
  plan.kind = engine::PlanKind::kTopKEstimatedThreshold;
  plan.value = value;
  plan.k = k;
  const double est_qt = path.EstimateTopKThreshold(value, k);
  plan.initial_qt = est_qt > 0 ? est_qt : 0.25;
  return plan;
}

TEST(AggregateTest, Query2GroupByJournal) {
  DblpFx fx;
  std::string v = fx.gen->PopularInstitution();
  double qt = 0.15;
  std::vector<core::PtqMatch> matches;
  ASSERT_TRUE(fx.pub_upi->OpenPtq(v, qt)->Drain(&matches).ok());
  auto groups = GroupByCount(matches, PublicationCols::kJournal);

  // Oracle.
  std::map<std::string, uint64_t> oracle;
  for (const Tuple& t : fx.pubs) {
    double conf = t.ConfidenceOf(PublicationCols::kInstitution, v);
    if (conf >= qt) ++oracle[t.Get(PublicationCols::kJournal).str()];
  }
  ASSERT_EQ(groups.size(), oracle.size());
  for (const auto& [journal, gc] : groups) {
    EXPECT_EQ(gc.count, oracle[journal]) << journal;
    EXPECT_LE(gc.expected_count, gc.count + 1e-9);
    EXPECT_GT(gc.expected_count, 0.0);
  }
}

TEST(PtqUtilTest, SortSummarize) {
  std::vector<core::PtqMatch> ms(3);
  ms[0].id = 1;
  ms[0].confidence = 0.2;
  ms[1].id = 2;
  ms[1].confidence = 0.9;
  ms[2].id = 3;
  ms[2].confidence = 0.5;
  SortByConfidenceDesc(&ms);
  EXPECT_EQ(ms[0].id, 2u);
  EXPECT_EQ(ms[2].id, 1u);
  EXPECT_NE(Summarize(ms).find("3 tuples"), std::string::npos);
  ms.clear();
  EXPECT_EQ(Summarize(ms), "0 tuples");
}

TEST(TopKTest, StrategiesAgree) {
  DblpFx fx;
  const core::Upi& path = *fx.author_upi;
  std::string v = fx.gen->PopularInstitution();
  const size_t k = 10;

  std::vector<core::PtqMatch> direct;
  ASSERT_TRUE(path.OpenTopK(v, k)->Drain(&direct).ok());
  ASSERT_EQ(direct.size(), k);
  for (size_t i = 1; i < direct.size(); ++i) {
    EXPECT_GE(direct[i - 1].confidence, direct[i].confidence);
  }

  std::vector<core::PtqMatch> iter;
  int rounds = 0;
  ASSERT_TRUE(TopKByDecreasingThreshold(path, v, k, 0.5, &iter, &rounds).ok());
  ASSERT_EQ(iter.size(), k);
  EXPECT_GE(rounds, 1);

  std::vector<core::PtqMatch> est;
  ASSERT_TRUE(Execute(path, EstimatedThresholdPlan(path, v, k), &est).ok());
  ASSERT_EQ(est.size(), k);

  // All strategies must return the same confidence profile (ids may tie).
  for (size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(direct[i].confidence, iter[i].confidence, 1e-8);
    EXPECT_NEAR(direct[i].confidence, est[i].confidence, 1e-8);
  }
}

TEST(TopKTest, UnclusteredBaselineAgrees) {
  DblpFx fx;
  auto table = baseline::UnclusteredTable::Build(
                   &fx.env, "authors_heap",
                   datagen::DblpGenerator::AuthorSchema(),
                   AuthorCols::kInstitution, {AuthorCols::kInstitution},
                   fx.authors)
                   .ValueOrDie();
  std::string v = fx.gen->PopularInstitution();
  const core::Upi& upi_path = *fx.author_upi;
  const baseline::UnclusteredTable& heap_path = *table;
  std::vector<core::PtqMatch> via_upi, via_heap;
  ASSERT_TRUE(upi_path.OpenTopK(v, 7)->Drain(&via_upi).ok());
  ASSERT_TRUE(heap_path.OpenTopK(v, 7)->Drain(&via_heap).ok());
  ASSERT_EQ(via_upi.size(), via_heap.size());
  for (size_t i = 0; i < via_upi.size(); ++i) {
    EXPECT_NEAR(via_upi[i].confidence, via_heap[i].confidence, 1e-8);
  }
}

TEST(SpatialTest, KnnExpandsUntilKFound) {
  datagen::CartelConfig cfg;
  cfg.num_observations = 1500;
  cfg.area_size = 4000;
  cfg.grid_roads = 8;
  cfg.seed = 71;
  datagen::CartelGenerator gen(cfg);
  auto obs = gen.GenerateObservations();
  storage::DbEnv env;
  auto upi = core::ContinuousUpi::Build(
                 &env, "cars", datagen::CartelGenerator::CarObservationSchema(),
                 datagen::CarObsCols::kLocation, {}, obs)
                 .ValueOrDie();
  Rng rng(5);
  prob::Point c = gen.RandomQueryCenter(&rng);
  std::vector<core::PtqMatch> out;
  int rounds = 0;
  ASSERT_TRUE(KnnByExpandingRange(*upi, c, 12, 0.5, 50.0, &out, &rounds).ok());
  ASSERT_EQ(out.size(), 12u);
  EXPECT_GE(rounds, 1);
  // Results sorted by mean distance.
  double prev = -1;
  for (const auto& m : out) {
    double d = prob::DistanceBetween(
        m.tuple.Column(datagen::CarObsCols::kLocation)
            .ValueOrDie()
            .gaussian()
            .mean(),
        c);
    EXPECT_GE(d, prev);
    prev = d;
  }
}


TEST(TopKTest, KLargerThanMatchesReturnsAll) {
  DblpFx fx;
  const core::Upi& path = *fx.author_upi;
  std::string v = fx.gen->InstitutionName(40);  // unpopular
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(path.OpenTopK(v, 100000)->Drain(&out).ok());
  // Oracle: all tuples with any positive confidence on v.
  size_t expected = 0;
  for (const Tuple& t : fx.authors) {
    if (t.ConfidenceOf(AuthorCols::kInstitution, v) > 0) ++expected;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST(TopKTest, DecreasingThresholdUsesFewRoundsForPopularValue) {
  DblpFx fx;
  const core::Upi& path = *fx.author_upi;
  std::vector<core::PtqMatch> out;
  int rounds = 0;
  ASSERT_TRUE(TopKByDecreasingThreshold(path, fx.gen->PopularInstitution(), 3,
                                        0.5, &out, &rounds)
                  .ok());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(rounds, 1);  // plenty of matches at QT=0.5 already
}

TEST(AggregateTest, ExpectedCountBelowThresholdCount) {
  DblpFx fx;
  std::vector<core::PtqMatch> matches;
  ASSERT_TRUE(fx.pub_upi->OpenPtq(fx.gen->PopularInstitution(), 0.1)
                  ->Drain(&matches)
                  .ok());
  auto groups = GroupByCount(matches, PublicationCols::kJournal);
  ASSERT_FALSE(groups.empty());
  for (const auto& [j, gc] : groups) {
    EXPECT_GT(gc.expected_count, 0.0);
    EXPECT_LE(gc.expected_count, static_cast<double>(gc.count) + 1e-9);
  }
}

}  // namespace
}  // namespace upi::exec
