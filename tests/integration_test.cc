// End-to-end integration: the full life of an uncertain database, exercising
// every subsystem together — bulk load, all five paper queries, update
// batches through the fractured path, adaptive tuning, partial + full merge,
// cost-model consistency, and cross-checking every answer against
// brute-force evaluation over the in-memory tuples.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baseline/secondary_utree.h"
#include "baseline/unclustered_table.h"
#include "core/advisor.h"
#include "core/continuous_upi.h"
#include "core/cost_model.h"
#include "core/fractured_upi.h"
#include "datagen/cartel.h"
#include "datagen/dblp.h"
#include "exec/aggregate.h"
#include "exec/operators.h"
#include "exec/spatial.h"
#include "storage/db_env.h"

namespace upi {
namespace {

using catalog::Tuple;
using catalog::TupleId;
using datagen::AuthorCols;
using datagen::CarObsCols;
using datagen::PublicationCols;

TEST(IntegrationTest, DiscreteLifecycle) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 1500;
  cfg.num_publications = 2500;
  cfg.num_institutions = 80;
  cfg.seed = 101;
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();
  auto pubs = gen.GeneratePublications(authors);

  storage::DbEnv env;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.15;

  std::unique_ptr<core::FracturedUpi> owned =
      core::FracturedUpi::Build(&env, "authors",
                                datagen::DblpGenerator::AuthorSchema(), opt,
                                {AuthorCols::kCountry}, authors)
          .ValueOrDie();
  core::FracturedUpi& table = *owned;

  // Publication UPI for the aggregate queries.
  core::UpiOptions popt = opt;
  popt.cluster_column = PublicationCols::kInstitution;
  auto pub_upi = core::Upi::Build(&env, "pubs",
                                  datagen::DblpGenerator::PublicationSchema(),
                                  popt, {PublicationCols::kCountry}, pubs)
                     .ValueOrDie();

  std::string inst = gen.PopularInstitution();
  std::string country = gen.MidCountry();

  // --- Query 1 + Query 2 + Query 3 against oracles -------------------------
  int check_seq = 0;
  auto check_q1 = [&](double qt, const std::set<TupleId>& deleted,
                      const std::vector<Tuple>& extra) {
    SCOPED_TRACE("check#" + std::to_string(check_seq++) +
                 " qt=" + std::to_string(qt));
    std::map<TupleId, double> oracle;
    auto consider = [&](const Tuple& t) {
      if (deleted.contains(t.id())) return;
      double c = t.ConfidenceOf(AuthorCols::kInstitution, inst);
      if (c >= qt && c > 0) oracle[t.id()] = c;
    };
    for (const auto& t : authors) consider(t);
    for (const auto& t : extra) consider(t);
    std::vector<core::PtqMatch> out;
    ASSERT_TRUE(table.OpenPtq(inst, qt)->Drain(&out).ok());
    ASSERT_EQ(out.size(), oracle.size()) << "qt=" << qt;
    for (const auto& m : out) {
      ASSERT_TRUE(oracle.contains(m.id));
      EXPECT_NEAR(oracle[m.id], m.confidence, 1e-6);
    }
  };
  check_q1(0.05, {}, {});   // through the cutoff index
  check_q1(0.4, {}, {});    // heap only

  {
    std::vector<core::PtqMatch> matches;
    ASSERT_TRUE(pub_upi->OpenPtq(inst, 0.2)->Drain(&matches).ok());
    auto groups = exec::GroupByCount(matches, PublicationCols::kJournal);
    uint64_t total = 0;
    for (const auto& [j, gc] : groups) total += gc.count;
    EXPECT_EQ(total, matches.size());

    std::vector<core::PtqMatch> by_country;
    ASSERT_TRUE(pub_upi->OpenSecondary(PublicationCols::kCountry, country, 0.3,
                                       core::SecondaryAccessMode::kTailored)
                    ->Drain(&by_country)
                    .ok());
    std::map<TupleId, double> oracle;
    for (const auto& t : pubs) {
      double c = t.ConfidenceOf(PublicationCols::kCountry, country);
      if (c >= 0.3 && c > 0) oracle[t.id()] = c;
    }
    EXPECT_EQ(by_country.size(), oracle.size());
  }

  // --- Update workload with adaptive tuning --------------------------------
  table.EnableAdaptiveTuning({{inst, 0.3, 4.0}, {inst, 0.05, 1.0}}, 1e18);
  std::vector<Tuple> extra;
  std::set<TupleId> deleted;
  TupleId next_id = cfg.num_authors + 1;
  Rng rng(7);
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 80; ++i) {
      extra.push_back(gen.MakeAuthor(next_id++));
      ASSERT_TRUE(table.Insert(extra.back()).ok());
    }
    TupleId victim = 1 + rng.Uniform(cfg.num_authors);
    if (!deleted.contains(victim)) {
      ASSERT_TRUE(table.Delete(victim).ok());
      deleted.insert(victim);
    }
    ASSERT_TRUE(table.FlushBuffer().ok());
    check_q1(0.05, deleted, extra);
  }
  EXPECT_EQ(table.num_fractures(), 4u);

  // Cost model consistency while fractured.
  core::CostModel model(env.profile(), core::TableStats::Of(table));
  double est = model.FracturedQueryMs(table.EstimateSelectivity(inst, 0.3));
  EXPECT_GT(est, 4 * env.params().init_ms);  // at least Nfrac opens

  // --- Partial then full merge ---------------------------------------------
  ASSERT_TRUE(table.MergeOldestFractures(2).ok());
  EXPECT_EQ(table.num_fractures(), 3u);
  check_q1(0.05, deleted, extra);
  ASSERT_TRUE(table.MergeAll().ok());
  EXPECT_EQ(table.num_fractures(), 1u);
  check_q1(0.05, deleted, extra);
  check_q1(0.5, deleted, extra);
  EXPECT_EQ(table.num_live_tuples(),
            authors.size() + extra.size() - deleted.size());

  // Top-k strategies agree after the whole lifecycle: the direct cursor and
  // a Section 9 plan starting at the histogram's k-th threshold.
  const core::FracturedUpi& path = table;
  std::vector<core::PtqMatch> direct, est_k;
  ASSERT_TRUE(path.OpenTopK(inst, 5)->Drain(&direct).ok());
  engine::Plan estimated;
  estimated.kind = engine::PlanKind::kTopKEstimatedThreshold;
  estimated.value = inst;
  estimated.k = 5;
  const double est_qt = path.EstimateTopKThreshold(inst, 5);
  estimated.initial_qt = est_qt > 0 ? est_qt : 0.25;
  ASSERT_TRUE(exec::Execute(path, estimated, &est_k).ok());
  ASSERT_EQ(direct.size(), 5u);
  ASSERT_EQ(est_k.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(direct[i].confidence, est_k[i].confidence, 1e-8);
  }
}

TEST(IntegrationTest, ContinuousLifecycle) {
  datagen::CartelConfig cfg;
  cfg.num_observations = 3000;
  cfg.area_size = 5000;
  cfg.grid_roads = 10;
  cfg.seed = 102;
  datagen::CartelGenerator gen(cfg);
  auto obs = gen.GenerateObservations();

  storage::DbEnv env;
  auto upi = core::ContinuousUpi::Build(
                 &env, "cars", datagen::CartelGenerator::CarObservationSchema(),
                 CarObsCols::kLocation, {CarObsCols::kSegment}, obs)
                 .ValueOrDie();

  // Baseline consistency on range queries.
  auto heap = baseline::UnclusteredTable::Build(
                  &env, "cars_heap",
                  datagen::CartelGenerator::CarObservationSchema(),
                  CarObsCols::kSegment, {CarObsCols::kSegment}, obs)
                  .ValueOrDie();
  auto utree = baseline::SecondaryUtree::Build(&env, "cars_ut", *heap,
                                               CarObsCols::kLocation, obs)
                   .ValueOrDie();

  Rng rng(3);
  for (int trial = 0; trial < 4; ++trial) {
    prob::Point c = gen.RandomQueryCenter(&rng);
    double r = rng.UniformDouble(200, 800);
    std::vector<core::PtqMatch> a, b;
    ASSERT_TRUE(upi->QueryRange(c, r, 0.5, &a).ok());
    ASSERT_TRUE(utree->QueryRange(*heap, c, r, 0.5, &b).ok());
    std::set<TupleId> sa, sb;
    for (const auto& m : a) sa.insert(m.id);
    for (const auto& m : b) sb.insert(m.id);
    EXPECT_EQ(sa, sb) << "trial " << trial;
  }

  // Streaming inserts followed by kNN and segment queries.
  for (TupleId id = 100000; id < 100500; ++id) {
    ASSERT_TRUE(upi->Insert(gen.MakeObservation(id)).ok());
  }
  ASSERT_TRUE(upi->rtree()->ValidateInvariants().ok());
  ASSERT_TRUE(upi->heap_tree()->ValidateInvariants().ok());
  EXPECT_EQ(upi->num_tuples(), 3500u);

  std::vector<core::PtqMatch> knn;
  ASSERT_TRUE(
      exec::KnnByExpandingRange(*upi, gen.RandomQueryCenter(&rng), 8, 0.5,
                                100.0, &knn)
          .ok());
  EXPECT_EQ(knn.size(), 8u);
}

}  // namespace
}  // namespace upi
