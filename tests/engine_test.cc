// Tests for the engine layer: the designs' AccessPath hooks, the cost-based
// QueryPlanner (including the Figure 6 planner-vs-measurement agreement the
// acceptance criteria require), the executor, and the Database facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common/coding.h"
#include "datagen/dblp.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "exec/operators.h"
#include "sim/sim_disk.h"

namespace upi::engine {
namespace {

using catalog::Tuple;
using catalog::Value;
using catalog::ValueType;
using datagen::AuthorCols;
using datagen::PublicationCols;

prob::DiscreteDistribution Dist(std::vector<prob::Alternative> alts) {
  return prob::DiscreteDistribution::Make(std::move(alts)).ValueOrDie();
}

/// A forced heap-scan plan on (column, value, qt): one sequential sweep.
Plan HeapScanPlan(int column, const std::string& value, double qt) {
  Plan plan;
  plan.kind = PlanKind::kHeapScan;
  plan.column = column;
  plan.value = value;
  plan.qt = qt;
  return plan;
}

/// Cold-cache simulated cost of `fn`, bench-style.
double ColdSimMs(storage::DbEnv* env, const std::function<void()>& fn) {
  env->ColdCache();
  sim::StatsWindow window(env->disk());
  fn();
  return window.ElapsedMs();
}

/// DBLP fixture at test scale, built through the Database facade.
struct DblpFx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> authors;
  std::vector<Tuple> pubs;
  Database db;
  Table* author_table = nullptr;
  Table* pub_table = nullptr;

  DblpFx() {
    cfg.num_authors = 2000;
    cfg.num_publications = 6000;
    cfg.num_institutions = 80;
    cfg.seed = 61;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    authors = gen->GenerateAuthors();
    pubs = gen->GeneratePublications(authors);

    core::UpiOptions aopt;
    aopt.cluster_column = AuthorCols::kInstitution;
    aopt.cutoff = 0.1;
    author_table = db.CreateUpiTable("authors",
                                     datagen::DblpGenerator::AuthorSchema(),
                                     aopt, {}, authors)
                       .ValueOrDie();
    core::UpiOptions popt;
    popt.cluster_column = PublicationCols::kInstitution;
    popt.cutoff = 0.1;
    pub_table = db.CreateUpiTable("pubs",
                                  datagen::DblpGenerator::PublicationSchema(),
                                  popt, {PublicationCols::kCountry}, pubs)
                    .ValueOrDie();
  }
};

// ---------------------------------------------------------------------------
// Acceptance: Figure 6 workload shapes — the planner's secondary-access
// choice agrees with the empirically cheaper mode (measured via StatsWindow)
// at both low and high thresholds, and Explain() reports a predicted cost
// within sanity bounds of the measurement.
// ---------------------------------------------------------------------------

TEST(PlannerTest, SecondaryModeAgreesWithMeasurementOnFigure6Shapes) {
  DblpFx fx;
  const int col = PublicationCols::kCountry;
  std::string country = fx.gen->MidCountry();

  for (double qt : {0.1, 0.7}) {
    SCOPED_TRACE(qt);
    std::map<PlanKind, double> measured;
    for (auto [kind, mode] :
         {std::pair{PlanKind::kSecondaryFirstPointer,
                    core::SecondaryAccessMode::kFirstPointer},
          std::pair{PlanKind::kSecondaryTailored,
                    core::SecondaryAccessMode::kTailored}}) {
      measured[kind] = ColdSimMs(fx.db.env(), [&] {
        std::vector<core::PtqMatch> out;
        ASSERT_TRUE(fx.pub_table->path()
                        ->OpenSecondary(col, country, qt, mode)
                        ->Drain(&out)
                        .ok());
      });
    }
    measured[PlanKind::kHeapScan] = ColdSimMs(fx.db.env(), [&] {
      std::vector<core::PtqMatch> out;
      ASSERT_TRUE(exec::Execute(*fx.pub_table->path(),
                                HeapScanPlan(col, country, qt), &out)
                      .ok());
    });

    Plan plan = fx.pub_table->planner().PlanSecondary(col, country, qt);
    ASSERT_TRUE(measured.contains(plan.kind)) << plan.Explain();

    // The chosen mode must be the empirically cheapest (small tolerance: a
    // few short seeks of noise around a genuine tie).
    double best = std::min({measured[PlanKind::kSecondaryFirstPointer],
                            measured[PlanKind::kSecondaryTailored],
                            measured[PlanKind::kHeapScan]});
    EXPECT_LE(measured[plan.kind], best * 1.25 + 10.0)
        << plan.Explain() << "first=" << measured[PlanKind::kSecondaryFirstPointer]
        << " tailored=" << measured[PlanKind::kSecondaryTailored]
        << " scan=" << measured[PlanKind::kHeapScan];

    // Between the two secondary modes, the predicted order matches the
    // measured order (ties tolerated).
    auto predicted = [&](PlanKind kind) {
      for (const PlanCandidate& c : plan.candidates()) {
        if (c.kind == kind) return c.predicted_ms;
      }
      return -1.0;
    };
    double mf = measured[PlanKind::kSecondaryFirstPointer];
    double mt = measured[PlanKind::kSecondaryTailored];
    if (mf > mt * 1.25) {
      EXPECT_GE(predicted(PlanKind::kSecondaryFirstPointer),
                predicted(PlanKind::kSecondaryTailored))
          << plan.Explain();
    }

    // Sanity bounds on the reported prediction: positive and within 15x of
    // the measured cost of the chosen plan (the model is analytic, not a
    // simulator — rank order is what it must get right).
    EXPECT_GT(plan.predicted_ms, 0.0);
    EXPECT_GE(plan.predicted_ms, measured[plan.kind] / 15.0) << plan.Explain();
    EXPECT_LE(plan.predicted_ms, measured[plan.kind] * 15.0) << plan.Explain();
  }
}

TEST(PlannerTest, PtqPrefersClusteredProbeAndPredictsWithinBounds) {
  DblpFx fx;
  std::string inst = fx.gen->PopularInstitution();
  Plan plan = fx.author_table->planner().PlanPtq(inst, 0.5);
  EXPECT_EQ(plan.kind, PlanKind::kPrimaryProbe) << plan.Explain();

  double probe_ms = ColdSimMs(fx.db.env(), [&] {
    std::vector<core::PtqMatch> out;
    ASSERT_TRUE(fx.author_table->path()->OpenPtq(inst, 0.5)->Drain(&out).ok());
  });
  double scan_ms = ColdSimMs(fx.db.env(), [&] {
    std::vector<core::PtqMatch> out;
    ASSERT_TRUE(
        exec::Execute(*fx.author_table->path(),
                      HeapScanPlan(AuthorCols::kInstitution, inst, 0.5), &out)
            .ok());
  });
  EXPECT_LT(probe_ms, scan_ms);  // the planner's choice is the real winner
  EXPECT_GE(plan.predicted_ms, probe_ms / 15.0) << plan.Explain();
  EXPECT_LE(plan.predicted_ms, probe_ms * 15.0) << plan.Explain();
}

TEST(PlannerTest, ExplainListsChosenAndCandidates) {
  DblpFx fx;
  Plan plan = fx.pub_table->planner().PlanSecondary(PublicationCols::kCountry,
                                                    fx.gen->MidCountry(), 0.3);
  std::string text = plan.Explain();
  EXPECT_NE(text.find("chosen:"), std::string::npos) << text;
  EXPECT_NE(text.find("secondary-tailored"), std::string::npos) << text;
  EXPECT_NE(text.find("secondary-first-pointer"), std::string::npos) << text;
  EXPECT_NE(text.find("heap-scan"), std::string::npos) << text;
  EXPECT_NE(text.find("predicted"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Plan execution through the operators
// ---------------------------------------------------------------------------

TEST(ExecuteTest, ScanPlanReturnsSameRowsAsSecondaryProbe) {
  DblpFx fx;
  const int col = PublicationCols::kCountry;
  std::string country = fx.gen->MidCountry();

  Plan scan_plan;
  scan_plan.kind = PlanKind::kHeapScan;
  scan_plan.column = col;
  scan_plan.value = country;
  scan_plan.qt = 0.3;
  std::vector<core::PtqMatch> via_scan, via_secondary;
  ASSERT_TRUE(exec::Execute(*fx.pub_table->path(), scan_plan, &via_scan).ok());

  Plan sec_plan = scan_plan;
  sec_plan.kind = PlanKind::kSecondaryTailored;
  ASSERT_TRUE(
      exec::Execute(*fx.pub_table->path(), sec_plan, &via_secondary).ok());

  ASSERT_EQ(via_scan.size(), via_secondary.size());
  for (size_t i = 0; i < via_scan.size(); ++i) {
    EXPECT_EQ(via_scan[i].id, via_secondary[i].id);
    EXPECT_NEAR(via_scan[i].confidence, via_secondary[i].confidence, 1e-9);
  }
}

TEST(PlannerTest, TinyTablePrefersScanForSecondaryQuery) {
  // On a three-tuple table the whole heap is one leaf: a sequential sweep
  // beats two index descents.
  Database db;
  catalog::Schema schema({{"Name", ValueType::kString},
                          {"Institution", ValueType::kDiscrete},
                          {"Country", ValueType::kDiscrete}});
  std::vector<Tuple> tuples;
  tuples.push_back(Tuple(1, 0.9,
                         {Value::String("Alice"),
                          Value::Discrete(Dist({{"Brown", 0.8}, {"MIT", 0.2}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  tuples.push_back(Tuple(2, 1.0,
                         {Value::String("Bob"),
                          Value::Discrete(Dist({{"MIT", 0.95}, {"UCB", 0.05}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  core::UpiOptions opt;
  opt.cluster_column = 1;
  opt.cutoff = 0.1;
  Table* table = db.CreateUpiTable("t", schema, opt, {2}, tuples).ValueOrDie();

  std::vector<core::PtqMatch> out;
  Plan plan =
      std::move(table->Run(Query::Secondary(2, "US", 0.5), &out)).ValueOrDie();
  EXPECT_EQ(plan.kind, PlanKind::kHeapScan) << plan.Explain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 2u);  // Bob at 1.0 before Alice at 0.9
}

TEST(PlannerTest, PtqBelowOneExpectedCutoffPointerIsPriced) {
  // Bob's UCB alternative (0.07) lies below the cutoff (0.1), in the
  // histogram bucket [0.05, 0.1). A PTQ at 0.075 expects half a cutoff
  // pointer: the sorted sweep then bounds its regions by that count (x < 1),
  // below the one region it otherwise asks for. Passing that pair to
  // std::clamp broke its precondition and aborted under
  // -D_GLIBCXX_ASSERTIONS.
  Database db;
  catalog::Schema schema({{"Name", ValueType::kString},
                          {"Institution", ValueType::kDiscrete}});
  std::vector<Tuple> tuples;
  tuples.push_back(
      Tuple(1, 0.9, {Value::String("Alice"),
                     Value::Discrete(Dist({{"Brown", 0.8}, {"MIT", 0.2}}))}));
  tuples.push_back(
      Tuple(2, 1.0, {Value::String("Bob"),
                     Value::Discrete(Dist({{"MIT", 0.93}, {"UCB", 0.07}}))}));
  core::UpiOptions opt;
  opt.cluster_column = 1;
  opt.cutoff = 0.1;
  Table* table = db.CreateUpiTable("t", schema, opt, {}, tuples).ValueOrDie();
  histogram::PtqEstimate est = table->path()->EstimatePtq("UCB", 0.075);
  ASSERT_GT(est.cutoff_pointers, 0.0);
  ASSERT_LT(est.cutoff_pointers, 1.0);

  Plan plan = table->planner().PlanPtq("UCB", 0.075);
  EXPECT_TRUE(std::isfinite(plan.predicted_ms)) << plan.Explain();
  EXPECT_GT(plan.predicted_ms, 0.0) << plan.Explain();
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(table->Run(Query::Ptq("UCB", 0.04), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);
}

// ---------------------------------------------------------------------------
// Top-k planning over different paths
// ---------------------------------------------------------------------------

TEST(PlannerTest, TopKUsesDirectCursorOnUpiAndPrunedFanOutOnFractured) {
  DblpFx fx;
  std::string inst = fx.gen->PopularInstitution();
  Plan plan = fx.author_table->planner().PlanTopK(inst, 10);
  EXPECT_EQ(plan.kind, PlanKind::kTopKDirect) << plan.Explain();
  std::vector<core::PtqMatch> direct;
  ASSERT_TRUE(exec::Execute(*fx.author_table->path(), plan, &direct).ok());
  ASSERT_EQ(direct.size(), 10u);

  // A fractured table answers top-k with the summary-pruned fan-out (each
  // probed fracture streams at most k rows; a running k-th-score bound skips
  // fractures that cannot compete), so the direct strategy is both available
  // and the cheapest — and produces the same answer as the plain UPI.
  core::UpiOptions fopt;
  fopt.cluster_column = AuthorCols::kInstitution;
  fopt.cutoff = 0.1;
  Table* fractured =
      fx.db.CreateFracturedTable("authors_frac",
                                 datagen::DblpGenerator::AuthorSchema(), fopt,
                                 {}, fx.authors)
          .ValueOrDie();
  Plan fplan = fractured->planner().PlanTopK(inst, 10);
  EXPECT_EQ(fplan.kind, PlanKind::kTopKDirect) << fplan.Explain();
  std::vector<core::PtqMatch> via_fanout;
  ASSERT_TRUE(exec::Execute(*fractured->path(), fplan, &via_fanout).ok());
  ASSERT_EQ(via_fanout.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(direct[i].confidence, via_fanout[i].confidence, 1e-8);
  }

  // The Section 9 threshold strategies still exist as candidates and still
  // agree on the rows.
  Plan tplan = fplan;
  tplan.kind = PlanKind::kTopKEstimatedThreshold;
  tplan.initial_qt = 0.5;
  std::vector<core::PtqMatch> via_threshold;
  ASSERT_TRUE(exec::Execute(*fractured->path(), tplan, &via_threshold).ok());
  ASSERT_EQ(via_threshold.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(direct[i].confidence, via_threshold[i].confidence, 1e-8);
  }
}

// ---------------------------------------------------------------------------
// Database facade
// ---------------------------------------------------------------------------

TEST(DatabaseTest, RejectsDuplicateTableNames) {
  DblpFx fx;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  auto dup = fx.db.CreateUpiTable("authors",
                                  datagen::DblpGenerator::AuthorSchema(), opt,
                                  {}, fx.authors);
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(fx.db.GetTable("authors"), fx.author_table);
  EXPECT_EQ(fx.db.GetTable("nope"), nullptr);
  auto names = fx.db.TableNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "pubs"), names.end());
}

TEST(DatabaseTest, RejectedCreateLeavesNoFileBehind) {
  // A create its build rejects leaves the environment's files as they were,
  // for every table kind, so a retry under the same name succeeds instead of
  // colliding with leftovers. Bad secondary (or PII) columns are rejected
  // even without tuples: a fractured table would otherwise fail every
  // flush. The tuple too large for a heap page routes to a partitioned
  // table's last shard, so that create fails after building shard 0.
  datagen::DblpConfig cfg;
  cfg.num_authors = 50;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> authors = gen.GenerateAuthors();
  const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  auto routing_key = [](const Tuple& t) {
    return t.Get(AuthorCols::kInstitution).discrete().First().value;
  };
  std::vector<std::string> keys;
  catalog::TupleId next_id = 0;
  for (const Tuple& t : authors) {
    keys.push_back(routing_key(t));
    next_id = std::max(next_id, t.id() + 1);
  }
  std::sort(keys.begin(), keys.end());
  PartitionOptions hash;
  hash.scheme = PartitionOptions::Scheme::kHash;
  hash.num_shards = 2;
  PartitionOptions range;
  range.scheme = PartitionOptions::Scheme::kRange;
  range.num_shards = 2;
  range.range_splits = {keys[keys.size() / 2]};
  Database db;
  for (const std::string kind :
       {"upi", "fractured", "hash", "range", "unclustered"}) {
    SCOPED_TRACE(kind);
    auto create = [&](std::vector<int> columns,
                      const std::vector<Tuple>& rows) {
      if (kind == "upi") {
        return db.CreateUpiTable(kind, schema, opt, columns, rows);
      }
      if (kind == "fractured") {
        return db.CreateFracturedTable(kind, schema, opt, columns, rows);
      }
      if (kind == "unclustered") {
        return db.CreateUnclusteredTable(kind, schema, AuthorCols::kCountry,
                                         columns, rows);
      }
      return db.CreatePartitionedTable(kind, schema, opt, columns,
                                       kind == "hash" ? hash : range, rows);
    };
    const Partitioner router =
        Partitioner::Make(kind == "range" ? range : hash).ValueOrDie();
    auto last = std::find_if(authors.begin(), authors.end(), [&](auto& t) {
      return router.ShardOf(routing_key(t)) == 1;
    });
    ASSERT_NE(last, authors.end());
    std::vector<Value> values = last->values();
    values[AuthorCols::kName] = Value::String(std::string(9000, 'n'));
    std::vector<Tuple> too_large = authors;
    too_large.push_back(Tuple(next_id, 1.0, std::move(values)));

    const std::vector<int> good = {AuthorCols::kCountry};
    const std::vector<int> twice = {AuthorCols::kCountry,
                                    AuthorCols::kCountry};
    const std::vector<std::pair<std::vector<int>, std::vector<Tuple>>>
        rejected = {{{99}, authors},  {{99}, {}},
                    {twice, authors}, {twice, {}},
                    {good, too_large}};
    for (const auto& [columns, rows] : rejected) {
      const uint64_t bytes = db.env()->TotalFileBytes();
      EXPECT_EQ(create(columns, rows).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(db.env()->TotalFileBytes(), bytes);
      EXPECT_EQ(db.GetTable(kind), nullptr);
    }
    Table* table = create(good, authors).ValueOrDie();
    EXPECT_EQ(table->path()->Stats().num_tuples, authors.size());
  }
}

TEST(DatabaseTest, AFileNameCollisionIsAStatus) {
  // Shard 0 of the partitioned table "p" holds the file p.s0.main.heap, the
  // main heap a fractured table named "p.s0" would create. That create
  // returns AlreadyExists, leaves no file of its own, and "p" still answers.
  datagen::DblpConfig cfg;
  cfg.num_authors = 60;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> authors = gen.GenerateAuthors();
  const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  PartitionOptions popts;
  popts.scheme = PartitionOptions::Scheme::kHash;
  popts.num_shards = 2;
  Database db;
  Table* p = db.CreatePartitionedTable("p", schema, opt, {}, popts, authors)
                 .ValueOrDie();
  ASSERT_NE(p->partitioned()->shard_fractured(0)->main(), nullptr);
  const Query ptq = Query::Ptq(gen.PopularInstitution(), 0.2);
  std::vector<core::PtqMatch> before;
  ASSERT_TRUE(p->Run(ptq, &before).status().ok());
  ASSERT_FALSE(before.empty());

  const uint64_t bytes = db.env()->TotalFileBytes();
  EXPECT_EQ(db.CreateFracturedTable("p.s0", schema, opt, {}, authors)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.env()->TotalFileBytes(), bytes);
  EXPECT_EQ(db.GetTable("p.s0"), nullptr);
  std::vector<core::PtqMatch> after;
  ASSERT_TRUE(p->Run(ptq, &after).status().ok());
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].confidence, before[i].confidence);
  }
}

// Two tuples with one id, whose first alternatives differ, would both be
// stored, and a PTQ would return the id twice. Every kind rejects the input
// before it creates a file; a partitioned table checks before routing, as
// each shard sees only its own part. A retry under the same name succeeds.
void ExpectRepeatedTupleIdRejected(const std::string& kind) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 50;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> authors = gen.GenerateAuthors();
  auto first_institution = [](const Tuple& t) {
    return t.Get(AuthorCols::kInstitution).discrete().First().value;
  };
  auto other = std::find_if(
      authors.begin(), authors.end(), [&](const Tuple& t) {
        return first_institution(t) != first_institution(authors[0]);
      });
  ASSERT_NE(other, authors.end());
  std::vector<Tuple> repeated = authors;
  repeated.push_back(
      Tuple(authors[0].id(), other->existence(), other->values()));
  const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  PartitionOptions popts;
  popts.scheme = PartitionOptions::Scheme::kHash;
  popts.num_shards = 2;
  Database db;
  auto create = [&](const std::vector<Tuple>& rows) {
    if (kind == "upi") return db.CreateUpiTable("t", schema, opt, {}, rows);
    if (kind == "fractured") {
      return db.CreateFracturedTable("t", schema, opt, {}, rows);
    }
    if (kind == "partitioned") {
      return db.CreatePartitionedTable("t", schema, opt, {}, popts, rows);
    }
    return db.CreateUnclusteredTable("t", schema, AuthorCols::kInstitution,
                                     {AuthorCols::kInstitution}, rows);
  };
  EXPECT_EQ(create(repeated).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.env()->TotalFileBytes(), 0u);
  EXPECT_EQ(db.GetTable("t"), nullptr);
  if (db.GetTable("t") != nullptr) return;  // accepted: nothing to retry
  Table* table = create(authors).ValueOrDie();
  EXPECT_EQ(table->path()->Stats().num_tuples, authors.size());
}

TEST(DatabaseTest, UpiCreateRejectsARepeatedTupleId) {
  ExpectRepeatedTupleIdRejected("upi");
}

TEST(DatabaseTest, FracturedCreateRejectsARepeatedTupleId) {
  ExpectRepeatedTupleIdRejected("fractured");
}

TEST(DatabaseTest, PartitionedCreateRejectsARepeatedTupleId) {
  ExpectRepeatedTupleIdRejected("partitioned");
}

TEST(DatabaseTest, UnclusteredCreateRejectsARepeatedTupleIdOrABadPiiColumn) {
  ExpectRepeatedTupleIdRejected("unclustered");
  // A bad PII column is rejected before the heap file is created. Each list
  // indexes the primary column, so the bad column itself is what fails.
  datagen::DblpConfig cfg;
  cfg.num_authors = 20;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> authors = gen.GenerateAuthors();
  const catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
  Database db;
  for (const std::vector<int>& bad :
       {std::vector<int>{AuthorCols::kInstitution, 99},
        std::vector<int>{AuthorCols::kInstitution, AuthorCols::kName}}) {
    EXPECT_EQ(db.CreateUnclusteredTable("t", schema, AuthorCols::kInstitution,
                                        bad, authors)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db.env()->TotalFileBytes(), 0u);
  }
  // So is a primary column without a PII index: every PTQ and top-k on the
  // table would probe the missing index.
  EXPECT_EQ(db.CreateUnclusteredTable("t", schema, AuthorCols::kInstitution,
                                      {AuthorCols::kCountry}, authors)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.env()->TotalFileBytes(), 0u);
  EXPECT_EQ(db.GetTable("t"), nullptr);
  EXPECT_TRUE(db.CreateUnclusteredTable("t", schema, AuthorCols::kInstitution,
                                        {AuthorCols::kInstitution}, authors)
                  .ok());
}

TEST(DatabaseTest, FracturedTableGetsAutomaticMaintenance) {
  DatabaseOptions dbopt;
  dbopt.maintenance.policy.flush_max_buffered_tuples = 64;
  Database db(dbopt);

  datagen::DblpConfig cfg;
  cfg.num_authors = 600;
  cfg.num_institutions = 40;
  cfg.seed = 7;
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();

  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      db.CreateFracturedTable("stream", datagen::DblpGenerator::AuthorSchema(),
                              opt, {}, {})
          .ValueOrDie();

  // Stream inserts through the facade; Table::Insert notifies the manager.
  for (const Tuple& t : authors) ASSERT_TRUE(table->Insert(t).ok());
  size_t ran = db.RunMaintenance();
  EXPECT_GT(ran, 0u);
  EXPECT_GE(db.maintenance()->stats().flushes, 1u);
  ASSERT_TRUE(db.maintenance()->last_error().ok());

  // Everything streamed is queryable through the planner (buffered tail
  // included).
  std::string inst = gen.PopularInstitution();
  size_t expected = 0;
  for (const Tuple& t : authors) {
    if (t.ConfidenceOf(AuthorCols::kInstitution, inst) >= 0.2) ++expected;
  }
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(table->Run(Query::Ptq(inst, 0.2), &out).status().ok());
  EXPECT_EQ(out.size(), expected);
}

TEST(DatabaseTest, PlannedQueriesRunConcurrentlyWithWorkerMaintenance) {
  // Planning reads fracture stats under the table's shared lock, so the
  // facade's Ptq/Secondary/TopK are safe while background workers flush and
  // merge (this test runs under TSan in CI).
  DatabaseOptions dbopt;
  dbopt.maintenance.num_workers = 2;
  dbopt.maintenance.policy.flush_max_buffered_tuples = 48;
  Database db(dbopt);

  datagen::DblpConfig cfg;
  cfg.num_authors = 800;
  cfg.num_institutions = 40;
  cfg.seed = 11;
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();
  std::string inst = gen.PopularInstitution();

  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  Table* table =
      db.CreateFracturedTable("stream", datagen::DblpGenerator::AuthorSchema(),
                              opt, {}, {})
          .ValueOrDie();
  for (size_t i = 0; i < authors.size(); ++i) {
    ASSERT_TRUE(table->Insert(authors[i]).ok());
    if (i % 60 == 0) {
      std::vector<core::PtqMatch> out;
      ASSERT_TRUE(table->Run(Query::Ptq(inst, 0.3), &out).status().ok());
    }
  }
  db.maintenance()->WaitIdle();
  ASSERT_TRUE(db.maintenance()->last_error().ok());

  size_t expected = 0;
  for (const Tuple& t : authors) {
    if (t.ConfidenceOf(AuthorCols::kInstitution, inst) >= 0.3) ++expected;
  }
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(table->Run(Query::Ptq(inst, 0.3), &out).status().ok());
  EXPECT_EQ(out.size(), expected);
}

TEST(DatabaseTest, DestroyWithQueuedSyncMaintenanceDoesNotHang) {
  // Synchronous maintenance (the default) runs nothing until
  // RunMaintenance(). Destroying the database with a flush still queued must
  // drop the task, not wait for a slot no thread will ever release. The
  // destructor runs on its own thread, detached only if it overruns the
  // bounded wait, so a regression fails an assertion instead of hanging the
  // suite.
  datagen::DblpConfig cfg;
  cfg.num_authors = 10;
  cfg.num_institutions = 5;
  cfg.seed = 5;
  datagen::DblpGenerator gen(cfg);
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  PartitionOptions popts;
  popts.num_shards = 2;
  for (bool partitioned : {false, true}) {
    SCOPED_TRACE(partitioned ? "partitioned" : "fractured");
    DatabaseOptions dbopt;
    dbopt.maintenance.policy.flush_max_buffered_tuples = 4;
    dbopt.gather_workers = 0;
    auto db = std::make_unique<Database>(dbopt);
    catalog::Schema schema = datagen::DblpGenerator::AuthorSchema();
    Table* table =
        (partitioned
             ? db->CreatePartitionedTable("t", schema, opt, {}, popts, {})
             : db->CreateFracturedTable("t", schema, opt, {}, {}))
            .ValueOrDie();
    for (catalog::TupleId id = 0; id < 10; ++id) {
      ASSERT_TRUE(table->Insert(gen.MakeAuthor(id)).ok());
    }
    ASSERT_GT(db->maintenance()->queued_tasks(), 0u);

    auto destroyed = std::make_shared<std::promise<void>>();
    std::future<void> done = destroyed->get_future();
    std::thread destroyer([db = std::move(db), destroyed]() mutable {
      db.reset();
      destroyed->set_value();
    });
    bool finished = done.wait_for(std::chrono::seconds(20)) ==
                    std::future_status::ready;
    if (finished) {
      destroyer.join();
    } else {
      destroyer.detach();
    }
    ASSERT_TRUE(finished) << "~Database still blocked after 20 s";
  }
}

// ---------------------------------------------------------------------------
// Access-path estimation hooks
// ---------------------------------------------------------------------------

TEST(AccessPathTest, EmptyFracturedTablePlansWithItsDeclaredSecondaryIndex) {
  // A Fractured table created empty has no fracture until its first flush,
  // but its declared Country index covers the insert buffer from the first
  // write: both secondary plans are priced, none is marked unsupported. The
  // chosen plan is not asserted (with no fracture every candidate prices
  // one probe).
  datagen::DblpConfig cfg;
  cfg.num_authors = 3000;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> authors = gen.GenerateAuthors();
  Database db;
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  Table* t = db.CreateFracturedTable("authors",
                                     datagen::DblpGenerator::AuthorSchema(),
                                     opt, {AuthorCols::kCountry}, {})
                 .ValueOrDie();
  for (const Tuple& a : authors) ASSERT_TRUE(t->Insert(a).ok());
  ASSERT_EQ(t->fractured()->num_fractures(), 0u);

  const std::string country = gen.MidCountry();
  const Query q = Query::Secondary(AuthorCols::kCountry, country, 0.3);
  const std::string text = t->ExplainAnalyze(q).ValueOrDie();
  EXPECT_NE(text.find("secondary-first-pointer"), std::string::npos) << text;
  EXPECT_NE(text.find("secondary-tailored"), std::string::npos) << text;
  EXPECT_EQ(text.find("(unsupported)"), std::string::npos) << text;

  std::vector<core::PtqMatch> rows;
  ASSERT_TRUE(t->Run(q, &rows).ok());
  std::set<catalog::TupleId> got, want;
  for (const core::PtqMatch& m : rows) got.insert(m.id);
  for (const Tuple& a : authors) {
    if (QuantizeProb(a.ConfidenceOf(AuthorCols::kCountry, country)) >= 0.3) {
      want.insert(a.id());
    }
  }
  EXPECT_EQ(rows.size(), got.size());  // no row twice
  EXPECT_EQ(got, want);
  EXPECT_FALSE(want.empty());
}

TEST(AccessPathTest, SecondaryEstimatesSurviveMerges) {
  // Regression: the merge used to rebuild the secondary index but drop the
  // per-column histogram, zeroing planner estimates after any maintenance
  // merge.
  DblpFx fx;
  core::UpiOptions fopt;
  fopt.cluster_column = PublicationCols::kInstitution;
  fopt.cutoff = 0.1;
  Table* table =
      fx.db.CreateFracturedTable("pubs_frac",
                                 datagen::DblpGenerator::PublicationSchema(),
                                 fopt, {PublicationCols::kCountry}, fx.pubs)
          .ValueOrDie();
  std::string country = fx.gen->MidCountry();
  double before = table->path()->EstimateSecondaryMatches(
      PublicationCols::kCountry, country, 0.3);
  ASSERT_GT(before, 0.0);

  // Flush a delta fracture, then merge everything back into one.
  for (size_t i = 0; i < 50; ++i) {
    const Tuple& src = fx.pubs[i];
    std::vector<Value> values;
    for (size_t c = 0; c < fx.pub_table->path()->schema().num_columns(); ++c) {
      values.push_back(src.Get(c));
    }
    Tuple copy(1000000 + static_cast<catalog::TupleId>(i), src.existence(),
               std::move(values));
    ASSERT_TRUE(table->fractured()->Insert(copy).ok());
  }
  ASSERT_TRUE(table->fractured()->FlushBuffer().ok());
  ASSERT_TRUE(table->fractured()->MergeAll().ok());

  double after = table->path()->EstimateSecondaryMatches(
      PublicationCols::kCountry, country, 0.3);
  EXPECT_GE(after, before * 0.9);
  Plan plan = table->planner().PlanSecondary(PublicationCols::kCountry,
                                             country, 0.3);
  EXPECT_NE(plan.Explain().find("ptrs=0 "), 0u);  // not priced as empty
  EXPECT_GT(after, 0.0);
}

TEST(AccessPathTest, StatsAndEstimatesCostNoSimulatedIo) {
  DblpFx fx;
  fx.db.env()->ColdCache();
  sim::StatsWindow window(fx.db.env()->disk());
  PathStats stats = fx.pub_table->path()->Stats();
  (void)fx.pub_table->path()->EstimatePtq(fx.gen->PopularInstitution(), 0.3);
  (void)fx.pub_table->path()->EstimateSecondaryMatches(
      PublicationCols::kCountry, fx.gen->MidCountry(), 0.3);
  (void)fx.pub_table->planner().PlanSecondary(PublicationCols::kCountry,
                                              fx.gen->MidCountry(), 0.3);
  EXPECT_EQ(window.ElapsedMs(), 0.0);
  EXPECT_GT(stats.table.num_leaf_pages, 0u);
  EXPECT_GT(stats.heap_entries, 0u);
}

TEST(AccessPathTest, UnclusteredTableEstimatesFromBuiltStatistics) {
  DblpFx fx;
  Database base_db;
  Table* heap = base_db
                    .CreateUnclusteredTable(
                        "authors_heap", datagen::DblpGenerator::AuthorSchema(),
                        AuthorCols::kInstitution, {AuthorCols::kInstitution},
                        fx.authors)
                    .ValueOrDie();
  std::string inst = fx.gen->PopularInstitution();
  double est = heap->path()->EstimatePtq(inst, 0.3).heap_entries;
  size_t actual = 0;
  for (const Tuple& t : fx.authors) {
    if (t.ConfidenceOf(AuthorCols::kInstitution, inst) >= 0.3) ++actual;
  }
  // Histogram estimate within 30% of truth for a popular value.
  EXPECT_GT(est, actual * 0.7);
  EXPECT_LT(est, actual * 1.3);

  // And the table's direct top-k (PII inverted list) works.
  std::vector<core::PtqMatch> out;
  ASSERT_TRUE(heap->path()->OpenTopK(inst, 5)->Drain(&out).ok());
  EXPECT_EQ(out.size(), 5u);
}

TEST(AccessPathTest, UnclusteredEstimatesFollowWrites) {
  // An unclustered table created from 100 authors and filled by inserts
  // estimates exactly as its twin bulk-built from every author, and plans
  // the most common country's probe as the twin does. Deleting the inserted
  // rows brings the estimates back to those of a table built from the 100.
  datagen::DblpConfig cfg;
  cfg.num_authors = 5000;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> authors = gen.GenerateAuthors();
  const std::vector<Tuple> first(authors.begin(), authors.begin() + 100);
  Database db;
  auto create = [&](const std::string& name, const std::vector<Tuple>& rows) {
    return db
        .CreateUnclusteredTable(
            name, datagen::DblpGenerator::AuthorSchema(),
            AuthorCols::kInstitution,
            {AuthorCols::kInstitution, AuthorCols::kCountry}, rows)
        .ValueOrDie();
  };
  Table* filled = create("filled", first);
  for (size_t i = first.size(); i < authors.size(); ++i) {
    ASSERT_TRUE(filled->Insert(authors[i]).ok());
  }
  Table* twin = create("twin", authors);
  Table* base = create("base", first);

  std::map<int, std::set<std::string>> values;
  std::map<std::string, size_t> country_rows;
  for (const Tuple& t : authors) {
    for (int col : {AuthorCols::kInstitution, AuthorCols::kCountry}) {
      for (const auto& alt : t.Get(col).discrete().alternatives()) {
        values[col].insert(alt.value);
        if (col == AuthorCols::kCountry && t.existence() * alt.prob >= 0.1) {
          ++country_rows[alt.value];
        }
      }
    }
  }
  auto expect_same_estimates = [&](const Table* got, const Table* want) {
    const AccessPath& g = *got->path();
    const AccessPath& w = *want->path();
    for (const auto& [col, vals] : values) {
      for (const std::string& v : vals) {
        for (double qt : {0.0, 0.1, 0.5}) {
          EXPECT_EQ(g.EstimateSecondaryMatches(col, v, qt),
                    w.EstimateSecondaryMatches(col, v, qt))
              << col << " " << v << " " << qt;
          if (col != AuthorCols::kInstitution) continue;
          EXPECT_EQ(g.EstimatePtq(v, qt).heap_entries,
                    w.EstimatePtq(v, qt).heap_entries)
              << v << " " << qt;
          EXPECT_EQ(g.EstimatePtq(v, qt).selectivity,
                    w.EstimatePtq(v, qt).selectivity)
              << v << " " << qt;
        }
        if (col == AuthorCols::kInstitution) {
          EXPECT_EQ(g.EstimateTopKThreshold(v, 5),
                    w.EstimateTopKThreshold(v, 5))
              << v;
        }
      }
    }
  };
  expect_same_estimates(filled, twin);

  const std::string country =
      std::max_element(country_rows.begin(), country_rows.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;
  const Query q = Query::Secondary(AuthorCols::kCountry, country, 0.1);
  const Table::AnalyzeResult got = filled->AnalyzeQuery(q).ValueOrDie();
  const Table::AnalyzeResult want = twin->AnalyzeQuery(q).ValueOrDie();
  EXPECT_STREQ(PlanKindName(got.plan.kind), PlanKindName(want.plan.kind))
      << got.text << want.text;
  EXPECT_EQ(got.est_rows, want.est_rows);
  EXPECT_EQ(got.rows.size(), want.rows.size());

  for (size_t i = first.size(); i < authors.size(); ++i) {
    ASSERT_TRUE(filled->Delete(authors[i]).ok());
  }
  expect_same_estimates(filled, base);
}

}  // namespace
}  // namespace upi::engine
