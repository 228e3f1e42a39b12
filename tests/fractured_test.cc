#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "common/coding.h"
#include "core/cost_model.h"
#include "core/fractured_upi.h"
#include "datagen/dblp.h"
#include "exec/topk.h"
#include "storage/db_env.h"

namespace upi::core {
namespace {

using catalog::Tuple;
using catalog::TupleId;

struct Fx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> tuples;
  storage::DbEnv env;
  std::unique_ptr<FracturedUpi> table;

  explicit Fx(uint64_t n = 600, uint64_t seed = 11,
              bool charge_open_per_query = false) {
    cfg.num_authors = n;
    cfg.num_institutions = 50;
    cfg.seed = seed;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    tuples = gen->GenerateAuthors();
    UpiOptions opt;
    opt.cluster_column = datagen::AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    opt.charge_open_per_query = charge_open_per_query;
    table = FracturedUpi::Build(&env, "authors",
                                datagen::DblpGenerator::AuthorSchema(), opt,
                                {datagen::AuthorCols::kCountry}, tuples)
                .ValueOrDie();
  }

  std::map<TupleId, double> Oracle(const std::string& value, double qt,
                                   int col = datagen::AuthorCols::kInstitution,
                                   const std::set<TupleId>& deleted = {},
                                   const std::vector<Tuple>& extra = {}) {
    std::map<TupleId, double> oracle;
    auto consider = [&](const Tuple& t) {
      if (deleted.contains(t.id())) return;
      double conf = t.ConfidenceOf(col, value);
      if (conf >= qt && conf > 0) oracle[t.id()] = conf;
    };
    for (const Tuple& t : tuples) consider(t);
    for (const Tuple& t : extra) consider(t);
    return oracle;
  }

  void ExpectQueryMatches(const std::string& value, double qt,
                          const std::map<TupleId, double>& oracle) {
    std::vector<PtqMatch> out;
    ASSERT_TRUE(table->OpenPtq(value, qt)->Drain(&out).ok());
    std::map<TupleId, double> got;
    for (const auto& m : out) got[m.id] = m.confidence;
    ASSERT_EQ(got.size(), oracle.size()) << value << " qt=" << qt;
    for (const auto& [id, conf] : oracle) {
      ASSERT_TRUE(got.contains(id)) << id;
      EXPECT_NEAR(got[id], conf, 1e-6);
    }
  }

  /// Flushes `batches` delta fractures of 30 fresh authors each, ids from
  /// `first_id` on.
  void AddDeltas(int batches, TupleId first_id) {
    for (int b = 0; b < batches; ++b) {
      for (TupleId id = first_id + b * 1000; id < first_id + b * 1000 + 30;
           ++id) {
        ASSERT_TRUE(table->Insert(gen->MakeAuthor(id)).ok());
      }
      ASSERT_TRUE(table->FlushBuffer().ok());
    }
  }

  /// Costinit charges (file opens) `fn` pays on this environment's disk.
  uint64_t OpensOf(const std::function<void()>& fn) {
    sim::StatsWindow window(env.disk());
    fn();
    return window.Delta().file_opens;
  }
};

/// The four fractured read shapes, each a query on (Institution, Country).
struct ReadShape {
  const char* name;
  std::function<Status(const FracturedUpi&)> run;
};

std::vector<ReadShape> ReadShapes(const std::string& inst,
                                  const std::string& country) {
  auto rows = std::make_shared<std::vector<PtqMatch>>();
  return {
      {"ptq",  // qt < C: consults every probed fracture's cutoff index
       [=](const FracturedUpi& t) {
         return t.OpenPtq(inst, 0.05)->Drain(rows.get());
       }},
      {"top-k",  // k beyond every match: each heap runs short of k
       [=](const FracturedUpi& t) {
         return t.OpenTopK(inst, 100000)->Drain(rows.get());
       }},
      {"secondary",
       [=](const FracturedUpi& t) {
         return t
             .OpenSecondary(datagen::AuthorCols::kCountry, country, 0.1,
                            SecondaryAccessMode::kTailored)
             ->Drain(rows.get());
       }},
      {"scan-filter",
       [=](const FracturedUpi& t) {
         return t.ScanTuplesMatching(-1, inst, 0.05, [](catalog::TupleView) {});
       }},
  };
}

TEST(FracturedUpiTest, MainOnlyQueryMatchesOracle) {
  Fx fx;
  std::string v = fx.gen->PopularInstitution();
  fx.ExpectQueryMatches(v, 0.2, fx.Oracle(v, 0.2));
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05));  // through cutoff index
}

TEST(FracturedUpiTest, BufferedInsertsVisibleWithoutFlush) {
  Fx fx;
  Tuple extra = fx.gen->MakeAuthor(100000);
  ASSERT_TRUE(fx.table->Insert(extra).ok());
  EXPECT_EQ(fx.table->buffered_inserts(), 1u);
  const auto& dist =
      extra.Get(datagen::AuthorCols::kInstitution).discrete();
  std::string v = dist.First().value;
  fx.ExpectQueryMatches(v, 0.01, fx.Oracle(v, 0.01, 1, {}, {extra}));
}

TEST(FracturedUpiTest, BufferedConfidenceEqualsFlushedConfidence) {
  // A row reports the same confidence from the insert buffer as from the
  // fracture it is flushed into (the heap stores it on the 2^-30 grid), so
  // flushing never moves a row across a threshold.
  Fx fx;
  std::vector<Tuple> extras;
  for (TupleId id = 100000; id < 100040; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  auto confidences = [&](int column, const std::string& value) {
    std::vector<PtqMatch> out;
    if (column == datagen::AuthorCols::kInstitution) {
      EXPECT_TRUE(fx.table->OpenPtq(value, 0.0)->Drain(&out).ok());
    } else {
      EXPECT_TRUE(fx.table
                      ->OpenSecondary(column, value, 0.0,
                                      SecondaryAccessMode::kTailored)
                      ->Drain(&out)
                      .ok());
    }
    std::map<TupleId, double> got;
    for (const PtqMatch& m : out) {
      if (m.id >= 100000) got[m.id] = m.confidence;
    }
    return got;
  };
  std::vector<std::pair<int, std::string>> probes;
  for (const Tuple& t : extras) {
    probes.emplace_back(datagen::AuthorCols::kInstitution,
                        t.Get(datagen::AuthorCols::kInstitution)
                            .discrete()
                            .First()
                            .value);
    probes.emplace_back(
        datagen::AuthorCols::kCountry,
        t.Get(datagen::AuthorCols::kCountry).discrete().First().value);
  }
  std::vector<std::map<TupleId, double>> buffered;
  for (const auto& [column, value] : probes) {
    buffered.push_back(confidences(column, value));
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    std::map<TupleId, double> flushed =
        confidences(probes[i].first, probes[i].second);
    ASSERT_EQ(flushed.size(), buffered[i].size()) << probes[i].second;
    for (const auto& [id, conf] : buffered[i]) {
      EXPECT_EQ(flushed[id], conf) << "tuple " << id << " on "
                                   << probes[i].second;
    }
  }
}

/// An empty Fractured UPI on the author schema, with a secondary index on
/// Country: every tuple inserted into it stays in the insert buffer.
std::unique_ptr<FracturedUpi> BufferOnlyTable(storage::DbEnv* env,
                                              std::vector<int> secondary) {
  UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  return FracturedUpi::Build(env, "buffered",
                             datagen::DblpGenerator::AuthorSchema(), opt,
                             std::move(secondary), {})
      .ValueOrDie();
}

TEST(FracturedUpiTest, BufferIndexServesRowsInHeapOrder) {
  // The insert buffer is indexed like the heap: a PTQ streams its buffered
  // rows confidence-descending, ties by TupleId, top-k takes the first k of
  // the same range, and a secondary probe reads its column's range.
  Fx fx;
  storage::DbEnv env;
  auto table = BufferOnlyTable(&env, {datagen::AuthorCols::kCountry});
  std::vector<Tuple> extras;
  for (TupleId id = 100000; id < 100300; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(table->Insert(extras.back()).ok());
  }
  ASSERT_EQ(table->num_fractures(), 0u);
  auto expected = [&](int column, const std::string& value, double qt) {
    std::vector<std::pair<double, TupleId>> rows;
    for (const Tuple& t : extras) {
      // On the heap key's grid, as every row reports it.
      const double conf = QuantizeProb(t.ConfidenceOf(column, value));
      if (conf >= qt && conf > 0) rows.emplace_back(-conf, t.id());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  auto got = [](std::unique_ptr<ResultCursor> cursor) {
    std::vector<std::pair<double, TupleId>> rows;
    PtqMatch m;
    while (cursor->TakeNext(&m)) rows.emplace_back(-m.confidence, m.id);
    EXPECT_TRUE(cursor->status().ok());
    return rows;
  };
  const std::string inst = fx.gen->PopularInstitution();
  const auto ptq = expected(datagen::AuthorCols::kInstitution, inst, 0.05);
  ASSERT_GE(ptq.size(), 10u);
  EXPECT_EQ(got(table->OpenPtq(inst, 0.05)), ptq);

  const auto all = expected(datagen::AuthorCols::kInstitution, inst, 0.0);
  const auto top = got(table->OpenTopK(inst, 7));
  ASSERT_EQ(top.size(), 7u);
  EXPECT_TRUE(std::equal(top.begin(), top.end(), all.begin()));

  const std::string country = fx.gen->MidCountry();
  const auto sec = expected(datagen::AuthorCols::kCountry, country, 0.3);
  ASSERT_FALSE(sec.empty());
  EXPECT_EQ(got(table->OpenSecondary(datagen::AuthorCols::kCountry, country,
                                     0.3, SecondaryAccessMode::kTailored)),
            sec);
}

TEST(FracturedUpiTest, OpenSecondaryWithoutAnIndexIsInvalidArgument) {
  // Whether the rows are buffered or flushed, a column without a secondary
  // index has nothing to probe.
  Fx fx;
  storage::DbEnv env;
  auto table = BufferOnlyTable(&env, {});
  Tuple t = fx.gen->MakeAuthor(100000);
  const std::string country =
      t.Get(datagen::AuthorCols::kCountry).discrete().First().value;
  ASSERT_TRUE(table->Insert(t).ok());
  auto probe = [&] {
    std::vector<PtqMatch> rows;
    Status st = table
                    ->OpenSecondary(datagen::AuthorCols::kCountry, country,
                                    0.0, SecondaryAccessMode::kTailored)
                    ->Drain(&rows);
    EXPECT_TRUE(rows.empty());
    return st.code();
  };
  EXPECT_EQ(probe(), StatusCode::kInvalidArgument);  // buffer only
  ASSERT_TRUE(table->FlushBuffer().ok());
  EXPECT_EQ(probe(), StatusCode::kInvalidArgument);  // one fracture
}

TEST(FracturedUpiTest, MayMatchReadsTheBufferIndexAndTheSummaries) {
  storage::DbEnv env;
  auto table = BufferOnlyTable(&env, {datagen::AuthorCols::kCountry});
  EXPECT_FALSE(table->MayMatch(-1, "mit", 0.0));  // empty table
  auto author = [](TupleId id, const std::string& best) {
    return Tuple(
        id, 1.0,
        {catalog::Value::String("a"),
         catalog::Value::Discrete(
             prob::DiscreteDistribution::Make({{best, 0.7}, {"brown", 0.3}})
                 .ValueOrDie()),
         catalog::Value::Discrete(
             prob::DiscreteDistribution::Make({{"us", 1.0}}).ValueOrDie()),
         catalog::Value::String("p")});
  };
  ASSERT_TRUE(table->Insert(author(1, "mit")).ok());
  // The buffer's index, exactly: the value at or above qt.
  EXPECT_TRUE(table->MayMatch(-1, "mit", 0.69));
  EXPECT_FALSE(table->MayMatch(-1, "mit", 0.71));
  EXPECT_TRUE(table->MayMatch(-1, "brown", 0.29));
  EXPECT_FALSE(table->MayMatch(-1, "brown", 0.31));
  EXPECT_FALSE(table->MayMatch(-1, "cmu", 0.0));
  EXPECT_TRUE(table->MayMatch(datagen::AuthorCols::kCountry, "us", 0.99));
  EXPECT_FALSE(table->MayMatch(datagen::AuthorCols::kCountry, "fr", 0.0));
  // Name has no index: a non-empty buffer may hold any name.
  EXPECT_TRUE(table->MayMatch(datagen::AuthorCols::kName, "zed", 0.9));
  // A delete takes the tuple's entries out of the index.
  ASSERT_TRUE(table->Delete(1).ok());
  EXPECT_FALSE(table->MayMatch(-1, "mit", 0.0));
  EXPECT_FALSE(table->MayMatch(datagen::AuthorCols::kName, "zed", 0.9));
  // Flushed, the fracture's summary answers: its max probability and its
  // zone fences.
  ASSERT_TRUE(table->Insert(author(2, "mit")).ok());
  ASSERT_TRUE(table->FlushBuffer().ok());
  EXPECT_TRUE(table->MayMatch(-1, "mit", 0.69));
  EXPECT_FALSE(table->MayMatch(-1, "mit", 0.71));
  EXPECT_FALSE(table->MayMatch(-1, "zzz", 0.0));
  table->mutable_options()->enable_pruning = false;
  EXPECT_TRUE(table->MayMatch(-1, "zzz", 0.0));
}

TEST(FracturedUpiTest, FlushCreatesFractureAndPreservesResults) {
  Fx fx;
  std::vector<Tuple> extras;
  for (TupleId id = 100000; id < 100050; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  EXPECT_EQ(fx.table->buffered_inserts(), 0u);
  EXPECT_EQ(fx.table->num_fractures(), 2u);
  std::string v = fx.gen->PopularInstitution();
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, {}, extras));
}

TEST(FracturedUpiTest, DeleteHidesTuplesEverywhere) {
  Fx fx;
  std::string v = fx.gen->PopularInstitution();
  auto full = fx.Oracle(v, 0.05);
  ASSERT_GE(full.size(), 3u) << "need matches to delete";
  std::set<TupleId> victims;
  for (const auto& [id, conf] : full) {
    victims.insert(id);
    if (victims.size() == 2) break;
  }
  for (TupleId id : victims) ASSERT_TRUE(fx.table->Delete(id).ok());
  // Before flush (delete buffered) ...
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, victims));
  // ... and after flush (delete set persisted).
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, victims));
}

TEST(FracturedUpiTest, TopKReadsPastDeletedRowsUntilKSurvive) {
  // Deleting a fracture's best rows must not shrink a top-k answer: the
  // per-fracture stream's k bound counts only rows that survive the delete
  // sets, flushed and buffered alike.
  Fx fx;
  const std::string v = fx.gen->PopularInstitution();
  const size_t k = 5;
  std::vector<PtqMatch> before;
  ASSERT_TRUE(fx.table->OpenTopK(v, k)->Drain(&before).ok());
  ASSERT_EQ(before.size(), k);
  ASSERT_TRUE(fx.table->Delete(before[0].id).ok());
  ASSERT_TRUE(fx.table->Delete(before[1].id).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_TRUE(fx.table->Delete(before[2].id).ok());
  std::vector<PtqMatch> after;
  ASSERT_TRUE(fx.table->OpenTopK(v, k)->Drain(&after).ok());
  ASSERT_EQ(after.size(), k);
  EXPECT_EQ(after[0].id, before[3].id);
  EXPECT_EQ(after[1].id, before[4].id);
}

TEST(FracturedUpiTest, DeleteOfBufferedInsertNeverReachesDisk) {
  Fx fx;
  Tuple extra = fx.gen->MakeAuthor(200000);
  ASSERT_TRUE(fx.table->Insert(extra).ok());
  ASSERT_TRUE(fx.table->Delete(extra.id()).ok());
  EXPECT_EQ(fx.table->buffered_inserts(), 0u);
  EXPECT_EQ(fx.table->buffered_deletes(), 0u);
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  EXPECT_EQ(fx.table->num_fractures(), 1u);  // nothing new was written
}

TEST(FracturedUpiTest, TupleIdReuseRejected) {
  Fx fx;
  Tuple extra = fx.gen->MakeAuthor(300000);
  ASSERT_TRUE(fx.table->Insert(extra).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_TRUE(fx.table->Delete(extra.id()).ok());
  EXPECT_FALSE(fx.table->Insert(extra).ok());
}

TEST(FracturedUpiTest, MergeCollapsesFracturesAndPreservesAnswers) {
  Fx fx;
  std::vector<Tuple> extras;
  std::set<TupleId> victims = {5, 17, 123};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 40; ++i) {
      TupleId id = 400000 + batch * 1000 + i;
      extras.push_back(fx.gen->MakeAuthor(id));
      ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
    }
    ASSERT_TRUE(fx.table->FlushBuffer().ok());
  }
  for (TupleId id : victims) ASSERT_TRUE(fx.table->Delete(id).ok());
  EXPECT_EQ(fx.table->num_fractures(), 4u);

  uint64_t live_before = fx.table->num_live_tuples();
  ASSERT_TRUE(fx.table->MergeAll().ok());
  EXPECT_EQ(fx.table->num_fractures(), 1u);
  EXPECT_EQ(fx.table->num_live_tuples(), live_before);

  std::string v = fx.gen->PopularInstitution();
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, victims, extras));
  fx.ExpectQueryMatches(v, 0.3, fx.Oracle(v, 0.3, 1, victims, extras));

  // Secondary survives the merge too.
  std::string country = fx.gen->MidCountry();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.table
                  ->OpenSecondary(datagen::AuthorCols::kCountry, country, 0.3,
                                  SecondaryAccessMode::kTailored)
                  ->Drain(&out)
                  .ok());
  auto oracle =
      fx.Oracle(country, 0.3, datagen::AuthorCols::kCountry, victims, extras);
  std::map<TupleId, double> got;
  for (const auto& m : out) got[m.id] = m.confidence;
  ASSERT_EQ(got.size(), oracle.size());
  for (const auto& [id, conf] : oracle) {
    ASSERT_TRUE(got.contains(id));
    EXPECT_NEAR(got[id], conf, 1e-6);
  }
}

TEST(FracturedUpiTest, FlushIsSequentialInsertIsCheap) {
  // The Table 7 effect in miniature: buffering + sequential flush must be far
  // cheaper than random in-place UPI maintenance.
  Fx fx(2000, 3);

  // Non-fractured UPI: insert the same tuples in place.
  storage::DbEnv env2(4 << 20);  // small pool forces eviction writes
  UpiOptions opt = fx.table->options();
  auto base = fx.tuples;
  {
    auto built = Upi::Build(&env2, "plain_base",
                            datagen::DblpGenerator::AuthorSchema(), opt, {},
                            base);
    ASSERT_TRUE(built.ok());
  }

  std::vector<Tuple> extras;
  for (TupleId id = 500000; id < 500200; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
  }

  sim::StatsWindow w_frac(fx.env.disk());
  for (const Tuple& t : extras) ASSERT_TRUE(fx.table->Insert(t).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  double frac_ms = w_frac.ElapsedMs();

  // Plain UPI gets a comparable starting size by building then inserting.
  sim::StatsWindow w_plain(env2.disk());
  storage::DbEnv env3(4 << 20);
  auto plain_full =
      Upi::Build(&env3, "p", datagen::DblpGenerator::AuthorSchema(), opt, {},
                 base)
          .ValueOrDie();
  env3.ColdCache();
  sim::StatsWindow w3(env3.disk());
  for (const Tuple& t : extras) ASSERT_TRUE(plain_full->Insert(t).ok());
  env3.pool()->FlushAll();
  double plain_ms = w3.ElapsedMs();

  EXPECT_LT(frac_ms, plain_ms / 3) << "fractured flush should be much cheaper";
}

TEST(FracturedUpiTest, SizeAndStatsAccounting) {
  Fx fx;
  uint64_t size0 = fx.table->size_bytes();
  EXPECT_GT(size0, 0u);
  for (TupleId id = 600000; id < 600100; ++id) {
    ASSERT_TRUE(fx.table->Insert(fx.gen->MakeAuthor(id)).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  EXPECT_GT(fx.table->size_bytes(), size0);
  TableStats stats = TableStats::Of(*fx.table);
  EXPECT_EQ(stats.num_fractures, 2u);
  EXPECT_GT(stats.num_leaf_pages, 0u);
  EXPECT_GE(stats.btree_height, 1u);
}


TEST(FracturedUpiTest, PartialMergeCollapsesOldestDeltas) {
  Fx fx;
  std::vector<Tuple> extras;
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 30; ++i) {
      TupleId id = 700000 + batch * 1000 + i;
      extras.push_back(fx.gen->MakeAuthor(id));
      ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
    }
    ASSERT_TRUE(fx.table->FlushBuffer().ok());
  }
  // Delete a tuple that lives in the first delta fracture.
  TupleId victim = 700000;
  ASSERT_TRUE(fx.table->Delete(victim).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_EQ(fx.table->num_fractures(), 5u);  // main + 4 deltas

  uint64_t live_before = fx.table->num_live_tuples();
  ASSERT_TRUE(fx.table->MergeOldestFractures(3).ok());
  EXPECT_EQ(fx.table->num_fractures(), 3u);  // main + merged + newest delta
  EXPECT_EQ(fx.table->num_live_tuples(), live_before);

  std::string v = fx.gen->PopularInstitution();
  std::vector<Tuple> live_extras;
  for (const auto& t : extras) {
    if (t.id() != victim) live_extras.push_back(t);
  }
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, {victim}, live_extras));

  // The victim was retired from the delete set by the partial merge; a later
  // full merge must still be correct.
  ASSERT_TRUE(fx.table->MergeAll().ok());
  EXPECT_EQ(fx.table->num_fractures(), 1u);
  fx.ExpectQueryMatches(v, 0.05, fx.Oracle(v, 0.05, 1, {victim}, live_extras));
}

TEST(FracturedUpiTest, PartialMergeNoOpWithFewDeltas) {
  Fx fx;
  ASSERT_TRUE(fx.table->Insert(fx.gen->MakeAuthor(800000)).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_TRUE(fx.table->MergeOldestFractures(5).ok());  // only 1 delta
  EXPECT_EQ(fx.table->num_fractures(), 2u);
}

TEST(FracturedUpiTest, MergesReleaseRetiredFractureFiles) {
  // Every byte the environment holds belongs to a live fracture's
  // size_bytes() or to a delete-set file listing an id some fracture still
  // holds. Merged-away fractures and spent delete sets leave nothing behind,
  // in the file table or in the pool.
  Fx fx;
  const uint64_t page = core::Upi::kPageSize;
  uint64_t delete_set_bytes = 0;
  auto expect_only_live_files = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(fx.env.TotalFileBytes(),
              fx.table->size_bytes() + delete_set_bytes);
    EXPECT_LE(fx.env.pool()->cached_bytes(), fx.env.TotalFileBytes());
  };
  expect_only_live_files("after the bulk build");

  fx.AddDeltas(4, 900000);
  ASSERT_TRUE(fx.table->Delete(900001).ok());
  ASSERT_TRUE(fx.table->Delete(fx.tuples[0].id()).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());  // a one-page delete set only
  delete_set_bytes += page;
  ASSERT_EQ(fx.table->num_fractures(), 5u);
  expect_only_live_files("after the flushes");

  // The partial merge retires 900001 but not the main fracture's tuple, so
  // the delete set that lists both stays.
  const uint64_t retired = fx.env.TotalFileBytes();
  ASSERT_TRUE(fx.table->MergeOldestFractures(3).ok());
  ASSERT_EQ(fx.table->num_fractures(), 3u);
  expect_only_live_files("after a partial merge");
  EXPECT_LT(fx.env.TotalFileBytes(), retired);

  // The full merge retires every delete, and with it the delete set.
  ASSERT_TRUE(fx.table->MergeAll().ok());
  ASSERT_EQ(fx.table->num_fractures(), 1u);
  delete_set_bytes = 0;
  expect_only_live_files("after a full merge");
  EXPECT_EQ(fx.env.TotalFileBytes(), fx.table->size_bytes());

  // The merged main still serves every live row.
  const uint64_t live = fx.tuples.size() + 4 * 30 - 2;
  EXPECT_EQ(fx.table->num_live_tuples(), live);
  uint64_t scanned = 0;
  ASSERT_TRUE(fx.table->ScanTuples([&](catalog::TupleView) { ++scanned; }).ok());
  EXPECT_EQ(scanned, live);
}

TEST(FracturedUpiTest, MaintenanceWritesNothingBackThroughThePool) {
  // Fractures and delete sets are written straight to the device, so a
  // Fractured UPI's bulk build, flush and merges write no page back through
  // the shared pool, and another table's dirty page stays dirty.
  storage::DbEnv env;
  datagen::DblpConfig cfg;
  cfg.num_authors = 300;
  cfg.num_institutions = 30;
  datagen::DblpGenerator gen(cfg);
  const std::vector<Tuple> authors = gen.GenerateAuthors();
  UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  auto other = Upi::Build(&env, "other", datagen::DblpGenerator::AuthorSchema(),
                          opt, {}, {})
                   .ValueOrDie();
  ASSERT_TRUE(other->Insert(gen.MakeAuthor(800000)).ok());
  const uint64_t writebacks = env.pool()->counters().writebacks;
  std::unique_ptr<FracturedUpi> owned =
      FracturedUpi::Build(&env, "table", datagen::DblpGenerator::AuthorSchema(),
                          opt, {datagen::AuthorCols::kCountry}, authors)
          .ValueOrDie();
  FracturedUpi& table = *owned;
  for (TupleId id = 900000; id < 900090; ++id) {
    ASSERT_TRUE(table.Insert(gen.MakeAuthor(id)).ok());
    if (id % 30 == 29) {
      ASSERT_TRUE(table.FlushBuffer().ok());
    }
  }
  ASSERT_TRUE(table.Delete(authors[0].id()).ok());
  ASSERT_TRUE(table.Delete(900000).ok());
  ASSERT_TRUE(table.MergeOldestFractures(2).ok());
  ASSERT_TRUE(table.MergeAll().ok());
  ASSERT_EQ(table.num_fractures(), 1u);
  EXPECT_EQ(env.pool()->counters().writebacks, writebacks);

  env.pool()->FlushFile(other->heap_tree()->pager()->file());
  EXPECT_EQ(env.pool()->counters().writebacks, writebacks + 1);
}

TEST(FracturedUpiTest, FlushThatCannotCreateItsDeleteSetChangesNothing) {
  // The flush builds the new fracture, then creates its delete-set file,
  // and installs both only then: a file name already in use fails the
  // flush with AlreadyExists, drops the fracture it built and leaves the
  // list, the buffers and the environment's files as they were. The next
  // flush takes the next fracture name and succeeds.
  Fx fx;
  ASSERT_TRUE(fx.env.CreateFile("authors.frac0.delset", 8192).ok());
  ASSERT_TRUE(fx.table->Insert(fx.gen->MakeAuthor(700000)).ok());
  ASSERT_TRUE(fx.table->Delete(fx.tuples[0].id()).ok());
  const uint64_t bytes = fx.env.TotalFileBytes();
  EXPECT_TRUE(fx.table->FlushBuffer().IsAlreadyExists());
  EXPECT_EQ(fx.table->num_fractures(), 1u);
  EXPECT_EQ(fx.table->buffered_inserts(), 1u);
  EXPECT_EQ(fx.table->buffered_deletes(), 1u);
  EXPECT_EQ(fx.env.TotalFileBytes(), bytes);

  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  EXPECT_EQ(fx.table->num_fractures(), 2u);
  EXPECT_EQ(fx.table->num_live_tuples(), fx.tuples.size());
}

TEST(FracturedUpiTest, InsertRejectsATupleNoFractureCanHold) {
  // A buffered tuple without clustered alternatives would fail every later
  // flush and merge; Insert turns it away as Upi::Insert does.
  Fx fx;
  std::vector<catalog::Value> values = fx.gen->MakeAuthor(700000).values();
  values[datagen::AuthorCols::kInstitution] = catalog::Value::String("MIT");
  EXPECT_FALSE(fx.table->Insert(Tuple(700000, 1.0, values)).ok());
  EXPECT_EQ(fx.table->buffered_inserts(), 0u);

  ASSERT_TRUE(fx.table->Insert(fx.gen->MakeAuthor(700001)).ok());
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_TRUE(fx.table->MergeAll().ok());
  EXPECT_EQ(fx.table->num_live_tuples(), fx.tuples.size() + 1);
}

TEST(FracturedUpiTest, MergesReleaseFilesWhileAnotherThreadFlushesThePool) {
  // Two tables on one environment flush and merge on two threads while a
  // third flushes the whole pool in a loop. That flush's collected keys can
  // outlive the fractures the merges release: under ASan or TSan, a key that
  // reached a destroyed PageFile, or a release racing a write-back, fails
  // here. Afterwards only live fractures hold bytes, and every row is served.
  storage::DbEnv env;
  UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  constexpr int kRounds = 12;
  constexpr TupleId kPerRound = 20;
  auto generator = [](uint64_t seed) {
    datagen::DblpConfig cfg;
    cfg.num_authors = 200;
    cfg.num_institutions = 30;
    cfg.seed = seed;
    return std::make_unique<datagen::DblpGenerator>(cfg);
  };
  std::vector<std::unique_ptr<FracturedUpi>> tables;
  for (const char* name : {"left", "right"}) {
    const std::vector<Tuple> authors =
        generator(tables.size() + 1)->GenerateAuthors();
    tables.push_back(
        FracturedUpi::Build(&env, name, datagen::DblpGenerator::AuthorSchema(),
                            opt, {datagen::AuthorCols::kCountry}, authors)
            .ValueOrDie());
  }

  std::atomic<bool> done{false};
  std::thread flusher([&] {
    while (!done.load(std::memory_order_relaxed)) env.pool()->FlushAll();
  });
  auto churn = [&](FracturedUpi* table, uint64_t seed) {
    auto gen = generator(seed);
    for (int round = 0; round < kRounds; ++round) {
      const TupleId first = 500000 + round * kPerRound;
      for (TupleId id = first; id < first + kPerRound; ++id) {
        EXPECT_TRUE(table->Insert(gen->MakeAuthor(id)).ok());
      }
      EXPECT_TRUE(table->FlushBuffer().ok());
      EXPECT_TRUE((round % 3 == 2 ? table->MergeAll()
                                  : table->MergeOldestFractures(2))
                      .ok());
    }
  };
  std::thread left(churn, tables[0].get(), 7);
  std::thread right(churn, tables[1].get(), 8);
  left.join();
  right.join();
  done = true;
  flusher.join();

  uint64_t live_bytes = 0;
  for (const auto& table : tables) {
    live_bytes += table->size_bytes();
    const uint64_t live = 200 + kRounds * kPerRound;
    EXPECT_EQ(table->num_live_tuples(), live);
    uint64_t scanned = 0;
    ASSERT_TRUE(table->ScanTuples([&](catalog::TupleView) { ++scanned; }).ok());
    EXPECT_EQ(scanned, live);
  }
  EXPECT_EQ(env.TotalFileBytes(), live_bytes);
}

TEST(FracturedUpiTest, ScanTuplesDedupsAndSubtractsDeleteSetsAcrossFractures) {
  // The coverage gap: a tuple's life across three fractures — inserted and
  // flushed (fracture A), deleted with the delete set flushed alongside a
  // second batch (fracture B), then a third batch flushed (fracture C) while
  // another delete is still RAM-buffered. ScanTuples must emit every live
  // tuple exactly once (the heap duplicates multi-alternative tuples within
  // a fracture) and never a deleted one, whether its delete set is on disk
  // or still buffered. TupleIds never resurrect, so "re-inserting" the
  // deleted id into fracture C must be rejected rather than re-emitted.
  Fx fx;
  std::vector<Tuple> extras;
  // Fracture A.
  for (TupleId id = 910000; id < 910040; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  // Delete one fracture-A tuple and one main-fracture tuple; their delete
  // set is persisted with fracture B's flush.
  const TupleId victim_a = 910007, victim_main = 42;
  ASSERT_TRUE(fx.table->Delete(victim_a).ok());
  ASSERT_TRUE(fx.table->Delete(victim_main).ok());
  for (TupleId id = 920000; id < 920040; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  // The deleted id cannot be re-flushed into fracture C: reuse is rejected.
  EXPECT_FALSE(fx.table->Insert(fx.gen->MakeAuthor(victim_a)).ok());
  // Fracture C, plus a delete that stays RAM-buffered (no flush after).
  for (TupleId id = 930000; id < 930040; ++id) {
    extras.push_back(fx.gen->MakeAuthor(id));
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_EQ(fx.table->num_fractures(), 4u);  // main + A + B + C
  const TupleId victim_buffered = 920011;
  ASSERT_TRUE(fx.table->Delete(victim_buffered).ok());
  ASSERT_EQ(fx.table->buffered_deletes(), 1u);

  std::set<TupleId> deleted = {victim_a, victim_main, victim_buffered};
  std::map<TupleId, int> seen;
  ASSERT_TRUE(
      fx.table->ScanTuples([&](catalog::TupleView t) { ++seen[t.id()]; }).ok());
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1) << "tuple " << id << " emitted more than once";
    EXPECT_FALSE(deleted.contains(id)) << "deleted tuple " << id << " emitted";
  }
  // Exactly the live population: base + extras - the three victims.
  EXPECT_EQ(seen.size(), fx.tuples.size() + extras.size() - deleted.size());
  for (const Tuple& t : extras) {
    if (!deleted.contains(t.id())) {
      EXPECT_TRUE(seen.contains(t.id())) << "live tuple " << t.id() << " missing";
    }
  }
}

TEST(FracturedUpiTest, AdaptiveTuningRetunesPerFracture) {
  Fx fx;
  double main_cutoff = fx.table->main()->options().cutoff;
  // A workload that only ever queries at QT=0.5 tolerates a large cutoff;
  // the advisor should raise C for the next fracture.
  fx.table->EnableAdaptiveTuning(
      {{fx.gen->PopularInstitution(), 0.5, 1.0}}, 1e18);
  for (TupleId id = 900000; id < 900200; ++id) {
    ASSERT_TRUE(fx.table->Insert(fx.gen->MakeAuthor(id)).ok());
  }
  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  ASSERT_EQ(fx.table->fractures().size(), 1u);
  double frac_cutoff = fx.table->fractures()[0].upi->options().cutoff;
  EXPECT_GT(frac_cutoff, main_cutoff);
  EXPECT_NEAR(fx.table->main()->options().cutoff, main_cutoff, 1e-12)
      << "existing fractures keep their own parameters";

  // Queries across mixed-parameter fractures still match the oracle.
  std::string v = fx.gen->PopularInstitution();
  std::vector<Tuple> extras;
  // (regenerate the same tuples for the oracle via a fresh generator)
  datagen::DblpGenerator gen2(fx.cfg);
  auto base = gen2.GenerateAuthors();
  (void)base;
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.table->OpenPtq(v, 0.02)->Drain(&out).ok());
  EXPECT_GE(out.size(), fx.Oracle(v, 0.02).size());
}

// ---------------------------------------------------------------------------
// Handle cache: a fracture's files pay Costinit once per cold epoch
// ---------------------------------------------------------------------------

/// Files a cold `shape` run touches on a table probed in full (pruning off):
/// every heap; every cutoff index for PTQ (qt < C) and for top-k when it is
/// non-empty (its heap runs short of k); no secondary-index file.
uint64_t ColdFilesTouched(const FracturedUpi& t, const std::string& shape) {
  uint64_t files = 0;
  auto count = [&](const Upi& u) {
    ++files;  // heap
    if (shape == "ptq" ||
        (shape == "top-k" && u.cutoff_index()->num_entries() > 0)) {
      ++files;
    }
  };
  t.ForEachFractureShared(count);
  return files;
}

TEST(FracturedHandleCacheTest, WarmRepeatChargesNoOpens) {
  Fx fx;
  fx.AddDeltas(3, 500000);
  fx.table->mutable_options()->enable_pruning = false;
  ASSERT_EQ(fx.table->num_fractures(), 4u);
  for (const ReadShape& shape :
       ReadShapes(fx.gen->PopularInstitution(), fx.gen->MidCountry())) {
    fx.env.ColdCache();
    const uint64_t cold =
        fx.OpensOf([&] { ASSERT_TRUE(shape.run(*fx.table).ok()); });
    EXPECT_EQ(cold, ColdFilesTouched(*fx.table, shape.name)) << shape.name;
    EXPECT_EQ(fx.OpensOf([&] { ASSERT_TRUE(shape.run(*fx.table).ok()); }), 0u)
        << shape.name << ": a warm repeat re-paid Costinit";
    // ColdCache closes every handle: the next run pays for the same files.
    fx.env.ColdCache();
    EXPECT_EQ(fx.OpensOf([&] { ASSERT_TRUE(shape.run(*fx.table).ok()); }), cold)
        << shape.name;
  }
}

TEST(FracturedHandleCacheTest, ColdCacheReArmsExactlyTheProbedFiles) {
  // Pruning on: each PTQ opens only the fractures its summaries admit — the
  // heap of each, plus the cutoff index when qt < C.
  Fx fx;
  fx.AddDeltas(4, 510000);
  const std::string v = fx.gen->InstitutionName(7);
  const PruneSet high = fx.table->ForQuery(-1, v, 0.5);
  const PruneSet low = fx.table->ForQuery(-1, v, 0.05);
  ASSERT_EQ(high.probe.size(), low.probe.size());
  uint64_t new_heaps = 0;  // heaps the qt=0.05 probe adds to the qt=0.5 one
  for (size_t i = 0; i < low.probe.size(); ++i) {
    if (low.probe[i] && !high.probe[i]) ++new_heaps;
  }
  std::vector<PtqMatch> out;
  auto ptq = [&](double qt) {
    return fx.OpensOf(
        [&] { ASSERT_TRUE(fx.table->OpenPtq(v, qt)->Drain(&out).ok()); });
  };
  for (int epoch = 0; epoch < 2; ++epoch) {
    fx.env.ColdCache();
    EXPECT_EQ(ptq(0.5), high.probed) << "epoch " << epoch;  // heaps only
    EXPECT_EQ(ptq(0.05), new_heaps + low.probed) << "epoch " << epoch;
    EXPECT_EQ(ptq(0.5), 0u);
    EXPECT_EQ(ptq(0.05), 0u);
  }
}

TEST(FracturedHandleCacheTest, NewFracturePaysOnceOnFirstTouch) {
  // Flush, partial merge and full merge each install fresh files; the first
  // query to touch one pays its Costinit, the next query nothing. No
  // ColdCache() in between: already-open fractures stay free throughout.
  Fx fx;
  fx.table->mutable_options()->enable_pruning = false;
  const std::string v = fx.gen->PopularInstitution();
  std::vector<PtqMatch> out;
  auto ptq = [&] {  // qt >= C: heap files only
    return fx.OpensOf(
        [&] { ASSERT_TRUE(fx.table->OpenPtq(v, 0.5)->Drain(&out).ok()); });
  };
  EXPECT_EQ(ptq(), 1u) << "the bulk-built main fracture";
  EXPECT_EQ(ptq(), 0u);

  fx.AddDeltas(1, 520000);
  EXPECT_EQ(ptq(), 1u) << "a flushed fracture";
  EXPECT_EQ(ptq(), 0u);

  fx.AddDeltas(3, 530000);
  ASSERT_EQ(fx.table->num_fractures(), 5u);
  EXPECT_EQ(ptq(), 3u);
  ASSERT_TRUE(fx.table->MergeOldestFractures(3).ok());
  ASSERT_EQ(fx.table->num_fractures(), 3u);
  EXPECT_EQ(ptq(), 1u) << "a partially merged fracture";
  EXPECT_EQ(ptq(), 0u);

  ASSERT_TRUE(fx.table->MergeAll().ok());
  ASSERT_EQ(fx.table->num_fractures(), 1u);
  EXPECT_EQ(ptq(), 1u) << "a fully merged main fracture";
  EXPECT_EQ(ptq(), 0u);
}

TEST(FracturedHandleCacheTest, ConcurrentColdQueriesOpenEachFileOnce) {
  // Eight threads race through every read shape on a cold table: of all
  // the first touches of one file, exactly one pays.
  Fx fx;
  fx.AddDeltas(3, 540000);
  fx.table->mutable_options()->enable_pruning = false;
  const std::string inst = fx.gen->PopularInstitution();
  const std::string country = fx.gen->MidCountry();
  fx.env.ColdCache();
  const uint64_t opens = fx.OpensOf([&] {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < 8; ++i) {
      threads.emplace_back([&, i] {
        // Own shapes per thread (each list shares one result vector), run
        // in a rotated order so the threads race on different files.
        const std::vector<ReadShape> shapes = ReadShapes(inst, country);
        for (size_t j = 0; j < shapes.size(); ++j) {
          const ReadShape& shape = shapes[(i + j) % shapes.size()];
          EXPECT_TRUE(shape.run(*fx.table).ok()) << shape.name;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  });
  // PTQ at qt < C touches every heap and every cutoff file.
  EXPECT_EQ(opens, ColdFilesTouched(*fx.table, "ptq"));
}

TEST(FracturedHandleCacheTest, ThresholdTopKOpensEachFractureOnceAcrossRounds) {
  // The one intended within-query change of the handle cache: every round
  // of the decreasing-threshold search re-runs the fractured PTQ, and each
  // round used to re-pay Costinit for every fracture it probed. Now the
  // first round opens the heaps, the first round below C the cutoff files,
  // and later rounds find them open.
  Fx fx;
  fx.AddDeltas(2, 550000);
  fx.table->mutable_options()->enable_pruning = false;
  const FracturedUpi& path = *fx.table;
  std::vector<PtqMatch> out;
  int rounds = 0;
  fx.env.ColdCache();
  const uint64_t opens = fx.OpensOf([&] {
    ASSERT_TRUE(exec::TopKByDecreasingThreshold(
                    path, fx.gen->InstitutionName(40), 1000, 0.9, &out, &rounds)
                    .ok());
  });
  ASSERT_GE(rounds, 3);  // 0.9, 0.225, then below C = 0.1
  EXPECT_EQ(opens, ColdFilesTouched(path, "ptq"));
}

TEST(FracturedHandleCacheTest, ChargeOpenPerQueryPaysOncePerFilePerQuery) {
  // charge_open_per_query means the same on every design: each query pays
  // Costinit once for every file it touches, warm or cold. The fan-out used
  // to charge a fracture's heap open on top of the fracture's own charge.
  Fx fx(600, 11, /*charge_open_per_query=*/true);
  ASSERT_EQ(fx.table->num_fractures(), 1u);
  const std::string v = fx.gen->PopularInstitution();
  std::vector<PtqMatch> out;
  for (int run = 0; run < 2; ++run) {  // cold, then warm: same charges
    if (run == 0) fx.env.ColdCache();
    EXPECT_EQ(fx.OpensOf([&] {
                ASSERT_TRUE(fx.table->OpenPtq(v, 0.5)->Drain(&out).ok());
              }),
              1u)
        << "ptq, heap only, run " << run;
    EXPECT_EQ(fx.OpensOf([&] {
                ASSERT_TRUE(fx.table->OpenPtq(v, 0.05)->Drain(&out).ok());
              }),
              2u)
        << "ptq, heap + cutoff, run " << run;
    EXPECT_EQ(fx.OpensOf([&] {
                ASSERT_TRUE(fx.table->OpenTopK(v, 5)->Drain(&out).ok());
              }),
              1u)
        << "top-k, heap only, run " << run;
    EXPECT_EQ(fx.OpensOf([&] {
                ASSERT_TRUE(fx.table
                                ->OpenSecondary(datagen::AuthorCols::kCountry,
                                                fx.gen->MidCountry(), 0.1,
                                                SecondaryAccessMode::kTailored)
                                ->Drain(&out)
                                .ok());
              }),
              2u)
        << "secondary, index + heap, run " << run;
    EXPECT_EQ(fx.OpensOf([&] {
                ASSERT_TRUE(fx.table
                                ->ScanTuplesMatching(-1, v, 0.5,
                                                     [](catalog::TupleView) {})
                                .ok());
              }),
              1u)
        << "scan-filter, heap only, run " << run;
  }
}

}  // namespace
}  // namespace upi::core
