#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baseline/secondary_utree.h"
#include "baseline/unclustered_table.h"
#include "core/continuous_upi.h"
#include "datagen/cartel.h"
#include "datagen/dblp.h"
#include "storage/db_env.h"

namespace upi::core {
namespace {

using catalog::Tuple;
using catalog::TupleId;
using datagen::CarObsCols;
using prob::Point;

struct Fx {
  datagen::CartelConfig cfg;
  std::unique_ptr<datagen::CartelGenerator> gen;
  std::vector<Tuple> tuples;
  storage::DbEnv env;
  std::unique_ptr<ContinuousUpi> upi;

  explicit Fx(uint64_t n = 2000, uint64_t seed = 31) {
    cfg.num_observations = n;
    cfg.area_size = 4000.0;
    cfg.grid_roads = 8;
    cfg.seed = seed;
    gen = std::make_unique<datagen::CartelGenerator>(cfg);
    tuples = gen->GenerateObservations();
    auto built = ContinuousUpi::Build(
        &env, "cars", datagen::CartelGenerator::CarObservationSchema(),
        CarObsCols::kLocation, {CarObsCols::kSegment}, tuples);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    upi = std::move(built).ValueOrDie();
  }

  std::map<TupleId, double> RangeOracle(Point c, double r, double qt) {
    std::map<TupleId, double> oracle;
    for (const Tuple& t : tuples) {
      const auto& g = t.Get(CarObsCols::kLocation).gaussian();
      double p = g.ProbInCircle(c, r);
      if (p >= qt) oracle[t.id()] = p;
    }
    return oracle;
  }
};

TEST(CartelGeneratorTest, GeneratesValidObservations) {
  datagen::CartelConfig cfg;
  cfg.num_observations = 500;
  datagen::CartelGenerator gen(cfg);
  auto obs = gen.GenerateObservations();
  ASSERT_EQ(obs.size(), 500u);
  for (const Tuple& t : obs) {
    const auto& g = t.Get(CarObsCols::kLocation).gaussian();
    EXPECT_GT(g.sigma(), 0.0);
    EXPECT_GE(g.bound_radius(), g.sigma());
    const auto& seg = t.Get(CarObsCols::kSegment).discrete();
    ASSERT_GE(seg.size(), 1u);
    ASSERT_LE(seg.size(), 3u);
    EXPECT_GT(seg.First().prob, 0.5);  // true segment dominates
    EXPECT_LE(seg.TotalMass(), 1.0 + 1e-9);
  }
}

TEST(CartelGeneratorTest, SegmentCorrelatesWithLocation) {
  datagen::CartelConfig cfg;
  cfg.num_observations = 300;
  datagen::CartelGenerator gen(cfg);
  // Observations sharing a most-likely segment must be spatially close.
  std::map<std::string, std::vector<Point>> by_seg;
  for (const Tuple& t : gen.GenerateObservations()) {
    by_seg[t.Get(CarObsCols::kSegment).discrete().First().value].push_back(
        t.Get(CarObsCols::kLocation).gaussian().mean());
  }
  for (const auto& [seg, pts] : by_seg) {
    if (pts.size() < 2) continue;
    for (size_t i = 1; i < pts.size(); ++i) {
      EXPECT_LT(prob::DistanceBetween(pts[0], pts[i]),
                cfg.segment_length * 2.5)
          << seg;
    }
  }
}

TEST(ContinuousUpiTest, BuildBasics) {
  Fx fx;
  EXPECT_EQ(fx.upi->num_tuples(), fx.tuples.size());
  EXPECT_GT(fx.upi->size_bytes(), 0u);
  ASSERT_TRUE(fx.upi->rtree()->ValidateInvariants().ok());
  ASSERT_TRUE(fx.upi->heap_tree()->ValidateInvariants().ok());
}

TEST(ContinuousUpiTest, RangeQueryMatchesOracle) {
  Fx fx;
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    Point c = fx.gen->RandomQueryCenter(&rng);
    double r = rng.UniformDouble(100, 600);
    for (double qt : {0.3, 0.7}) {
      auto oracle = fx.RangeOracle(c, r, qt);
      std::vector<PtqMatch> out;
      ASSERT_TRUE(fx.upi->QueryRange(c, r, qt, &out).ok());
      std::map<TupleId, double> got;
      for (const auto& m : out) got[m.id] = m.confidence;
      ASSERT_EQ(got.size(), oracle.size()) << "r=" << r << " qt=" << qt;
      for (const auto& [id, p] : oracle) {
        ASSERT_TRUE(got.contains(id));
        EXPECT_NEAR(got[id], p, 1e-6);
      }
    }
  }
}

TEST(ContinuousUpiTest, SecondaryQueryMatchesOracle) {
  Fx fx;
  // Collect all segments, test a handful.
  std::set<std::string> segments;
  for (const Tuple& t : fx.tuples) {
    for (const auto& a : t.Get(CarObsCols::kSegment).discrete().alternatives()) {
      segments.insert(a.value);
      if (segments.size() >= 5) break;
    }
    if (segments.size() >= 5) break;
  }
  for (const std::string& seg : segments) {
    for (double qt : {0.1, 0.6}) {
      std::map<TupleId, double> oracle;
      for (const Tuple& t : fx.tuples) {
        double conf = t.ConfidenceOf(CarObsCols::kSegment, seg);
        if (conf >= qt && conf > 0) oracle[t.id()] = conf;
      }
      std::vector<PtqMatch> out;
      ASSERT_TRUE(
          fx.upi->QueryBySecondary(CarObsCols::kSegment, seg, qt, &out).ok());
      std::map<TupleId, double> got;
      for (const auto& m : out) got[m.id] = m.confidence;
      ASSERT_EQ(got.size(), oracle.size()) << seg << " qt=" << qt;
      for (const auto& [id, conf] : oracle) {
        ASSERT_TRUE(got.contains(id));
        EXPECT_NEAR(got[id], conf, 1e-6);
      }
    }
  }
}

TEST(ContinuousUpiTest, InsertThenQuery) {
  Fx fx(800);
  // Insert 400 more observations one by one (exercises leaf splits + heap
  // moves + secondary repointing).
  std::vector<Tuple> extra;
  for (TupleId id = 10000; id < 10400; ++id) {
    extra.push_back(fx.gen->MakeObservation(id));
    ASSERT_TRUE(fx.upi->Insert(extra.back()).ok());
  }
  ASSERT_TRUE(fx.upi->rtree()->ValidateInvariants().ok())
      << fx.upi->rtree()->ValidateInvariants().ToString();
  ASSERT_TRUE(fx.upi->heap_tree()->ValidateInvariants().ok());
  EXPECT_EQ(fx.upi->num_tuples(), 1200u);

  auto all = fx.tuples;
  all.insert(all.end(), extra.begin(), extra.end());
  Rng rng(9);
  Point c = fx.gen->RandomQueryCenter(&rng);
  double r = 500, qt = 0.4;
  std::map<TupleId, double> oracle;
  for (const Tuple& t : all) {
    double p = t.Get(CarObsCols::kLocation).gaussian().ProbInCircle(c, r);
    if (p >= qt) oracle[t.id()] = p;
  }
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.upi->QueryRange(c, r, qt, &out).ok());
  ASSERT_EQ(out.size(), oracle.size());
  for (const auto& m : out) {
    ASSERT_TRUE(oracle.contains(m.id));
    EXPECT_NEAR(oracle[m.id], m.confidence, 1e-6);
  }

  // Secondary pointers must have followed heap moves: query a segment of an
  // inserted tuple.
  const std::string seg =
      extra[0].Get(CarObsCols::kSegment).discrete().First().value;
  std::vector<PtqMatch> sec_out;
  ASSERT_TRUE(
      fx.upi->QueryBySecondary(CarObsCols::kSegment, seg, 0.05, &sec_out).ok());
  bool found = false;
  for (const auto& m : sec_out) found |= m.id == extra[0].id();
  EXPECT_TRUE(found);
}

TEST(ContinuousUpiTest, RejectedBuildLeavesNoFileBehind) {
  // Every input is checked before the first file exists: a secondary column
  // out of range or not discrete (the location column), a repeated id, a
  // location that is not Gaussian, a tuple too large for a heap page, a
  // secondary value that is not discrete, and a secondary entry that fits no
  // secondary page although its tuple fits a heap page. A retry under the
  // same name then succeeds.
  datagen::CartelConfig cfg;
  cfg.num_observations = 200;
  datagen::CartelGenerator gen(cfg);
  const std::vector<Tuple> tuples = gen.GenerateObservations();
  const catalog::Schema schema =
      datagen::CartelGenerator::CarObservationSchema();
  const TupleId next_id = tuples.back().id() + 1;
  auto with = [&](Tuple extra) {
    std::vector<Tuple> rows = tuples;
    rows.push_back(std::move(extra));
    return rows;
  };
  auto values = [&](catalog::Value location, std::string payload,
                    catalog::Value segment) {
    return std::vector<catalog::Value>{
        std::move(location), std::move(segment),
        tuples[0].Get(CarObsCols::kSpeed),
        catalog::Value::String(std::move(payload))};
  };
  const catalog::Value location = tuples[0].Get(CarObsCols::kLocation);
  const catalog::Value segment = tuples[0].Get(CarObsCols::kSegment);
  const std::string long_segment(ContinuousUpi::kSecondaryPageSize, 's');
  ASSERT_LT(2 * long_segment.size(), ContinuousUpi::kHeapPageSize);
  const catalog::Value long_segment_value = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make({{long_segment, 0.5}}).value());
  const std::vector<std::pair<std::vector<int>, std::vector<Tuple>>> rejected =
      {{{CarObsCols::kLocation}, tuples},
       {{99}, tuples},
       {{CarObsCols::kSegment},
        with(Tuple(tuples[0].id(), 1.0, values(location, "twin", segment)))},
       {{CarObsCols::kSegment},
        with(Tuple(next_id, 1.0,
                   values(catalog::Value::Double(1.0), "", segment)))},
       {{CarObsCols::kSegment},
        with(Tuple(next_id, 1.0,
                   values(location,
                          std::string(ContinuousUpi::kHeapPageSize, 'x'),
                          segment)))},
       {{CarObsCols::kSegment},
        with(Tuple(next_id, 1.0,
                   values(location, "", catalog::Value::String("seg"))))},
       {{CarObsCols::kSegment},
        with(Tuple(next_id, 1.0, values(location, "", long_segment_value)))}};
  storage::DbEnv env;
  for (const auto& [columns, rows] : rejected) {
    EXPECT_EQ(ContinuousUpi::Build(&env, "cars", schema,
                                   CarObsCols::kLocation, columns, rows)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(env.TotalFileBytes(), 0u);
  }
  auto upi = ContinuousUpi::Build(&env, "cars", schema, CarObsCols::kLocation,
                                  {CarObsCols::kSegment}, tuples)
                 .ValueOrDie();
  EXPECT_EQ(upi->num_tuples(), tuples.size());
  // A file name in use is a Status, and the build leaves no file of its own.
  const uint64_t bytes = env.TotalFileBytes();
  EXPECT_EQ(ContinuousUpi::Build(&env, "cars", schema, CarObsCols::kLocation,
                                 {CarObsCols::kSegment}, tuples)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(env.TotalFileBytes(), bytes);
}

TEST(ContinuousUpiTest, RejectedInsertWritesNothing) {
  // An insert is checked as a build input is, before its first write: a
  // secondary value that is not discrete, a location that is not Gaussian,
  // a tuple too short for its location column, and a tuple too large for a
  // heap page leave the R-Tree and the heap as they were.
  Fx fx(200);
  const Tuple& base = fx.tuples[0];
  const TupleId id = fx.tuples.back().id() + 1;
  auto with = [&](int column, catalog::Value value) {
    std::vector<catalog::Value> values = base.values();
    values[column] = std::move(value);
    return Tuple(id, 1.0, std::move(values));
  };
  const std::vector<Tuple> rejected = {
      with(CarObsCols::kSegment, catalog::Value::String("seg")),
      with(CarObsCols::kLocation, catalog::Value::Double(1.0)),
      Tuple(id, 1.0, {}),
      with(CarObsCols::kPayload,
           catalog::Value::String(
               std::string(ContinuousUpi::kHeapPageSize, 'x')))};
  for (const Tuple& t : rejected) {
    EXPECT_EQ(fx.upi->Insert(t).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(fx.upi->num_tuples(), 200u);
    EXPECT_EQ(fx.upi->rtree()->num_entries(), 200u);
  }
  ASSERT_TRUE(fx.upi->Insert(fx.gen->MakeObservation(id)).ok());
  EXPECT_EQ(fx.upi->num_tuples(), 201u);
  EXPECT_EQ(fx.upi->rtree()->num_entries(), 201u);
}

TEST(ContinuousUpiTest, BuildFlushesOnlyItsOwnFiles) {
  // The build's R-Tree pages go through the pool, and it flushes only that
  // file: another table's dirty page on the same DbEnv stays dirty, and no
  // page of the continuous UPI is left dirty.
  storage::DbEnv env;
  datagen::DblpConfig dblp;
  dblp.num_authors = 10;
  datagen::DblpGenerator authors(dblp);
  UpiOptions upi_opt;
  upi_opt.cluster_column = datagen::AuthorCols::kInstitution;
  auto other = Upi::Build(&env, "other",
                          datagen::DblpGenerator::AuthorSchema(), upi_opt, {},
                          {})
                   .ValueOrDie();
  ASSERT_TRUE(other->Insert(authors.MakeAuthor(800000)).ok());

  datagen::CartelConfig cfg;
  cfg.num_observations = 500;
  datagen::CartelGenerator cars(cfg);
  auto upi = ContinuousUpi::Build(
                 &env, "cars", datagen::CartelGenerator::CarObservationSchema(),
                 CarObsCols::kLocation, {CarObsCols::kSegment},
                 cars.GenerateObservations())
                 .ValueOrDie();
  const uint64_t writebacks = env.pool()->counters().writebacks;
  env.pool()->FlushFile(other->heap_tree()->pager()->file());
  EXPECT_EQ(env.pool()->counters().writebacks, writebacks + 1);
  env.pool()->FlushFile(other->cutoff_index()->file());
  const uint64_t other_flushed = env.pool()->counters().writebacks;
  env.pool()->FlushAll();
  EXPECT_EQ(env.pool()->counters().writebacks, other_flushed);
}

TEST(SecondaryUtreeTest, RangeQueryMatchesContinuousUpi) {
  Fx fx;
  // Build the baseline over the same tuples.
  auto table = baseline::UnclusteredTable::Build(
                   &fx.env, "cars_heap",
                   datagen::CartelGenerator::CarObservationSchema(),
                   CarObsCols::kSegment, {CarObsCols::kSegment}, fx.tuples)
                   .ValueOrDie();
  auto utree = baseline::SecondaryUtree::Build(&fx.env, "cars_ut", *table,
                                               CarObsCols::kLocation, fx.tuples)
                   .ValueOrDie();
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    Point c = fx.gen->RandomQueryCenter(&rng);
    double r = rng.UniformDouble(150, 500);
    double qt = 0.5;
    std::vector<PtqMatch> via_upi, via_ut;
    ASSERT_TRUE(fx.upi->QueryRange(c, r, qt, &via_upi).ok());
    ASSERT_TRUE(utree->QueryRange(*table, c, r, qt, &via_ut).ok());
    std::set<TupleId> a, b;
    for (const auto& m : via_upi) a.insert(m.id);
    for (const auto& m : via_ut) b.insert(m.id);
    EXPECT_EQ(a, b);
  }
}

TEST(ContinuousUpiTest, ClusteredFetchCheaperThanUtree) {
  // The Figure 7 effect in miniature: same answers, far less simulated I/O.
  // Uses enough observations and a small-enough radius that the unclustered
  // heap fetch cannot degenerate into a (cheap) sequential sweep.
  Fx fx(12000, 41);
  auto table = baseline::UnclusteredTable::BuildHeap(
                   &fx.env, "cars_heap2",
                   datagen::CartelGenerator::CarObservationSchema(), fx.tuples)
                   .ValueOrDie();
  auto utree = baseline::SecondaryUtree::Build(&fx.env, "cars_ut2", *table,
                                               CarObsCols::kLocation, fx.tuples)
                   .ValueOrDie();

  Rng rng(23);
  Point c = fx.gen->RandomQueryCenter(&rng);
  double r = 300, qt = 0.5;

  fx.env.ColdCache();
  sim::StatsWindow w1(fx.env.disk());
  std::vector<PtqMatch> out1;
  ASSERT_TRUE(fx.upi->QueryRange(c, r, qt, &out1).ok());
  double upi_ms = w1.ElapsedMs();

  fx.env.ColdCache();
  sim::StatsWindow w2(fx.env.disk());
  std::vector<PtqMatch> out2;
  ASSERT_TRUE(utree->QueryRange(*table, c, r, qt, &out2).ok());
  double ut_ms = w2.ElapsedMs();

  ASSERT_GT(out1.size(), 20u) << "query should be non-selective";
  EXPECT_EQ(out1.size(), out2.size());
  EXPECT_LT(upi_ms * 3, ut_ms) << "UPI=" << upi_ms << "ms UT=" << ut_ms << "ms";
}

}  // namespace
}  // namespace upi::core
