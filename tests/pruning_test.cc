// Fracture-pruning correctness: pruning may only change *which fractures are
// opened*, never a result row. The property tests run every read path with
// pruning enabled and disabled against the same table and require
// bit-identical rows; the pinned tests assert the simulated-cost wins the
// summaries guarantee (a fully-skipped delta costs zero pages).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "core/fractured_upi.h"
#include "datagen/dblp.h"
#include "engine/database.h"
#include "exec/operators.h"
#include "maintenance/merge_policy.h"
#include "obs/trace.h"
#include "sim/sim_disk.h"
#include "storage/db_env.h"

namespace upi::core {
namespace {

using catalog::Tuple;
using catalog::TupleId;

constexpr int kInst = datagen::AuthorCols::kInstitution;
constexpr int kCountry = datagen::AuthorCols::kCountry;

/// Partitioned synthetic tuple: institution in slot `key`, country mirroring
/// coarsely, optionally capped at a low existence.
Tuple MakeSlotTuple(TupleId id, uint64_t key, bool lo_prob, Rng* rng) {
  char inst[32], inst2[32], ctry[32];
  std::snprintf(inst, sizeof(inst), "part%06llu",
                static_cast<unsigned long long>(key));
  std::snprintf(inst2, sizeof(inst2), "part%06llu",
                static_cast<unsigned long long>(key + 1));
  std::snprintf(ctry, sizeof(ctry), "region%04llu",
                static_cast<unsigned long long>(key / 20));
  double existence = lo_prob ? 0.3 : 0.8 + 0.15 * rng->NextDouble();
  std::vector<catalog::Value> values(4);
  std::string name = "n";
  name += std::to_string(id);
  values[datagen::AuthorCols::kName] = catalog::Value::String(std::move(name));
  values[kInst] = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make({{inst, 0.75}, {inst2, 0.2}})
          .ValueOrDie());
  values[kCountry] = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make({{ctry, 0.95}}).ValueOrDie());
  values[datagen::AuthorCols::kPayload] = catalog::Value::String("p");
  return Tuple(id, existence, values);
}

std::string Fingerprint(const std::vector<PtqMatch>& rows) {
  std::string fp;
  char buf[64];
  for (const auto& m : rows) {
    std::snprintf(buf, sizeof(buf), "%llu:%.17g;",
                  static_cast<unsigned long long>(m.id), m.confidence);
    fp += buf;
  }
  return fp;
}

/// A fractured table under a randomized partitioned workload: main + three
/// deltas with overlapping edges, buffered leftovers, buffered and flushed
/// deletes.
struct WorkloadFx {
  storage::DbEnv env;
  std::unique_ptr<FracturedUpi> table;
  std::vector<uint64_t> slots;  // every slot that received a tuple

  explicit WorkloadFx(uint64_t seed) : env(256ull << 20) {
    Rng rng(seed);
    UpiOptions opt;
    opt.cluster_column = kInst;
    opt.cutoff = 0.1;
    TupleId id = 1;
    std::vector<Tuple> main_tuples;
    for (uint64_t s = 0; s < 120; ++s) {
      main_tuples.push_back(MakeSlotTuple(id++, s, false, &rng));
      slots.push_back(s);
    }
    table = FracturedUpi::Build(&env, "w",
                                datagen::DblpGenerator::AuthorSchema(), opt,
                                {kCountry}, main_tuples)
                .ValueOrDie();
    // Three deltas over later (partially overlapping) slot ranges; the last
    // one entirely low-probability.
    for (int d = 0; d < 3; ++d) {
      uint64_t base = 100 + 60 * static_cast<uint64_t>(d);
      for (uint64_t i = 0; i < 70; ++i) {
        uint64_t s = base + i;
        EXPECT_TRUE(
            table->Insert(MakeSlotTuple(id++, s, /*lo_prob=*/d == 2, &rng))
                .ok());
        slots.push_back(s);
      }
      // A few deletes ride along with each flush.
      for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(table->Delete(1 + rng.Uniform(id - 1)).ok());
      }
      EXPECT_TRUE(table->FlushBuffer().ok());
    }
    // Buffered leftovers + a buffered (unflushed) delete.
    for (uint64_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          table->Insert(MakeSlotTuple(id++, 400 + i, false, &rng)).ok());
      slots.push_back(400 + i);
    }
    EXPECT_TRUE(table->Delete(3).ok());
  }

  std::string SlotValue(uint64_t slot) const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "part%06llu",
                  static_cast<unsigned long long>(slot));
    return buf;
  }
};

TEST(PruningPropertyTest, AllReadPathsBitIdenticalWithAndWithoutPruning) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    WorkloadFx fx(seed);
    Rng rng(seed * 31);
    for (int q = 0; q < 40; ++q) {
      uint64_t slot = fx.slots[rng.Uniform(fx.slots.size())] +
                      (rng.Uniform(4) == 0 ? 500 : 0);  // sometimes absent
      std::string value = fx.SlotValue(slot);
      char region[32];
      std::snprintf(region, sizeof(region), "region%04llu",
                    static_cast<unsigned long long>(slot / 20));
      double qt = 0.05 + 0.9 * rng.NextDouble();
      size_t k = 1 + rng.Uniform(12);

      std::map<std::string, std::string> fp_on, fp_off;
      for (bool pruning : {true, false}) {
        fx.table->mutable_options()->enable_pruning = pruning;
        auto& fps = pruning ? fp_on : fp_off;
        std::vector<PtqMatch> rows;
        ASSERT_TRUE(fx.table->OpenPtq(value, qt)->Drain(&rows).ok());
        fps["ptq"] = Fingerprint(rows);
        rows.clear();
        ASSERT_TRUE(fx.table
                        ->OpenSecondary(kCountry, region, qt,
                                        SecondaryAccessMode::kTailored)
                        ->Drain(&rows)
                        .ok());
        fps["sec"] = Fingerprint(rows);
        rows.clear();
        ASSERT_TRUE(fx.table->OpenTopK(value, k)->Drain(&rows).ok());
        fps["topk"] = Fingerprint(rows);
        rows.clear();
        ASSERT_TRUE(fx.table
                        ->ScanTuplesMatching(
                            kInst, value, qt,
                            [&](catalog::TupleView v) {
                              const Tuple t = v.Decode().ValueOrDie();
                              double c = t.ConfidenceOf(kInst, value);
                              if (c >= qt && c > 0) {
                                rows.push_back(PtqMatch{
                                    t.id(), c, catalog::EncodedTuple(t)});
                              }
                            })
                        .ok());
        fps["scan"] = Fingerprint(rows);
      }
      EXPECT_EQ(fp_on, fp_off)
          << "seed=" << seed << " value=" << value << " qt=" << qt
          << " k=" << k;
    }
  }
}

TEST(PruningPinnedTest, HighThresholdPtqProbesOnlyMainAndPaysMainOnlyPages) {
  // Every delta is low-existence (max combined prob <= 0.3): a PTQ at 0.5
  // must open only the main fracture — and pay exactly the pages/seeks a
  // main-only table pays for the same query.
  Rng rng(99);
  UpiOptions opt;
  opt.cluster_column = kInst;
  opt.cutoff = 0.1;

  storage::DbEnv env(256ull << 20);
  std::vector<Tuple> main_tuples;
  TupleId id = 1;
  for (uint64_t s = 0; s < 100; ++s) {
    main_tuples.push_back(MakeSlotTuple(id++, s, false, &rng));
  }
  std::unique_ptr<FracturedUpi> owned =
      FracturedUpi::Build(&env, "t", datagen::DblpGenerator::AuthorSchema(),
                          opt, {kCountry}, main_tuples)
          .ValueOrDie();
  FracturedUpi& table = *owned;
  for (int d = 0; d < 4; ++d) {
    for (uint64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          table.Insert(MakeSlotTuple(id++, 200 + d * 50 + i, true, &rng))
              .ok());
    }
    ASSERT_TRUE(table.FlushBuffer().ok());
  }
  env.pool()->FlushAll();

  // The reference: an identical main-only table in its own env.
  Rng rng2(99);
  storage::DbEnv env2(256ull << 20);
  std::vector<Tuple> main_tuples2;
  TupleId id2 = 1;
  for (uint64_t s = 0; s < 100; ++s) {
    main_tuples2.push_back(MakeSlotTuple(id2++, s, false, &rng2));
  }
  std::unique_ptr<FracturedUpi> main_owned =
      FracturedUpi::Build(&env2, "t", datagen::DblpGenerator::AuthorSchema(),
                          opt, {kCountry}, main_tuples2)
          .ValueOrDie();
  FracturedUpi& main_only = *main_owned;
  env2.pool()->FlushAll();

  std::string value = "part000050";
  PruneSet set = table.ForQuery(-1, value, 0.5);
  EXPECT_EQ(set.probed, 1u);
  EXPECT_EQ(set.pruned, 4u);
  ASSERT_TRUE(set.probe[0]);  // the main fracture

  auto measure = [](storage::DbEnv* e, FracturedUpi* t,
                    const std::string& v) {
    e->ColdCache();
    sim::StatsWindow w(e->disk());
    std::vector<PtqMatch> rows;
    EXPECT_TRUE(t->OpenPtq(v, 0.5)->Drain(&rows).ok());
    return w.Delta();
  };
  sim::DiskStats pruned = measure(&env, &table, value);
  sim::DiskStats reference = measure(&env2, &main_only, value);
  // Pinned: the four skipped deltas cost zero simulated pages and seeks.
  EXPECT_EQ(pruned.reads, reference.reads);
  EXPECT_EQ(pruned.seeks, reference.seeks);
  EXPECT_EQ(pruned.file_opens, reference.file_opens);

  // And the lazy cursor pins the same: draining it reads main-only pages.
  // Scoped: the cursor holds the table's shared lock for its lifetime, so it
  // must be gone before this thread queries the table again (the lock-rank
  // checker aborts on the re-entrant shared acquisition otherwise).
  {
    env.ColdCache();
    sim::StatsWindow w(env.disk());
    const uint64_t probed0 = table.fractures_probed_total();
    const uint64_t pruned0 = table.fractures_pruned_total();
    std::unique_ptr<ResultCursor> c = table.OpenPtq(value, 0.5);
    EXPECT_EQ(table.fractures_probed_total() - probed0, 1u);
    EXPECT_EQ(table.fractures_pruned_total() - pruned0, 4u);
    PtqMatch m;
    while (c->TakeNext(&m)) {
    }
    EXPECT_TRUE(c->status().ok());
    EXPECT_EQ(w.Delta().reads, reference.reads);
  }

  // With pruning off, the same query pays the full fan-out.
  table.mutable_options()->enable_pruning = false;
  sim::DiskStats full = measure(&env, &table, value);
  EXPECT_GT(full.reads, pruned.reads);
  EXPECT_GT(full.file_opens, pruned.file_opens);
}

TEST(PruningPinnedTest, LazyCursorOpensNothingBeyondTheLimit) {
  // A LIMIT consumer that stops inside the buffer/first fracture never opens
  // the fractures behind it: zero additional file opens.
  Rng rng(5);
  storage::DbEnv env(256ull << 20);
  UpiOptions opt;
  opt.cluster_column = kInst;
  opt.cutoff = 0.1;
  std::vector<Tuple> main_tuples;
  TupleId id = 1;
  // Value "part000000" present in main AND in every delta (overlapping
  // slot), so nothing prunes — laziness, not pruning, is measured.
  for (uint64_t s = 0; s < 40; ++s) {
    main_tuples.push_back(MakeSlotTuple(id++, s, false, &rng));
  }
  std::unique_ptr<FracturedUpi> owned =
      FracturedUpi::Build(&env, "t", datagen::DblpGenerator::AuthorSchema(),
                          opt, {}, main_tuples)
          .ValueOrDie();
  FracturedUpi& table = *owned;
  for (int d = 0; d < 3; ++d) {
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(table.Insert(MakeSlotTuple(id++, i, false, &rng)).ok());
    }
    ASSERT_TRUE(table.FlushBuffer().ok());
  }
  env.pool()->FlushAll();
  env.ColdCache();

  sim::StatsWindow w(env.disk());
  // qt > C: the cutoff index is never consulted, one heap open per fracture.
  const uint64_t probed0 = table.fractures_probed_total();
  std::unique_ptr<ResultCursor> c = table.OpenPtq("part000000", 0.2);
  EXPECT_EQ(table.fractures_probed_total() - probed0, 4u);  // none pruned...
  PtqMatch m;
  ASSERT_TRUE(c->TakeNext(&m));  // ...but one row only opens the first one
  EXPECT_EQ(w.Delta().file_opens, 1u);

  // Full drain pays the whole (unpruned) fan-out: all four heap opens.
  while (c->TakeNext(&m)) {
  }
  EXPECT_TRUE(c->status().ok());
  EXPECT_EQ(w.Delta().file_opens, 4u);
}

TEST(PruningEngineTest, PreparedPlansStayCorrectAcrossFlushWithPruning) {
  // The prepared-plan cache invalidates on the stats epoch a flush bumps;
  // with pruning on, re-binding after the flush must see the new fracture
  // and still produce rows identical to the unpruned run.
  engine::Database db;
  Rng rng(17);
  UpiOptions opt;
  opt.cluster_column = kInst;
  opt.cutoff = 0.1;
  opt.enable_pruning = true;
  std::vector<Tuple> base;
  TupleId id = 1;
  for (uint64_t s = 0; s < 80; ++s) {
    base.push_back(MakeSlotTuple(id++, s, false, &rng));
  }
  engine::Table* t =
      db.CreateFracturedTable("w", datagen::DblpGenerator::AuthorSchema(),
                              opt, {kCountry}, base)
          .ValueOrDie();
  engine::PreparedQuery pq =
      t->Prepare(engine::Query::Ptq("", 0.2)).ValueOrDie();

  std::string probe = "part000300";
  std::vector<PtqMatch> rows_before;
  ASSERT_TRUE(pq.Bind(probe).Execute(&rows_before).ok());
  EXPECT_TRUE(rows_before.empty());  // slot 300 does not exist yet
  uint64_t plans_before = pq.plans();

  // Flush a delta that *does* hold slot 300; the epoch moves, the cached
  // plan is invalidated, and the new fracture is probed (not pruned).
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        t->fractured()->Insert(MakeSlotTuple(id++, 290 + i, false, &rng)).ok());
  }
  ASSERT_TRUE(t->fractured()->FlushBuffer().ok());

  std::vector<PtqMatch> rows_after;
  ASSERT_TRUE(pq.Bind(probe).Execute(&rows_after).ok());
  EXPECT_GT(pq.plans(), plans_before);  // re-planned, not served stale
  EXPECT_FALSE(rows_after.empty());

  // Bit-identical to the unpruned execution of the same prepared query.
  t->fractured()->mutable_options()->enable_pruning = false;
  std::vector<PtqMatch> rows_unpruned;
  ASSERT_TRUE(pq.Bind(probe).Execute(&rows_unpruned).ok());
  EXPECT_EQ(Fingerprint(rows_after), Fingerprint(rows_unpruned));
}

TEST(PruningEngineTest, ExplainReportsPrunedFractures) {
  engine::Database db;
  Rng rng(29);
  UpiOptions opt;
  opt.cluster_column = kInst;
  opt.cutoff = 0.1;
  std::vector<Tuple> base;
  TupleId id = 1;
  for (uint64_t s = 0; s < 60; ++s) {
    base.push_back(MakeSlotTuple(id++, s, false, &rng));
  }
  engine::Table* t =
      db.CreateFracturedTable("w", datagen::DblpGenerator::AuthorSchema(),
                              opt, {kCountry}, base)
          .ValueOrDie();
  for (int d = 0; d < 3; ++d) {
    for (uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          t->fractured()
              ->Insert(MakeSlotTuple(id++, 100 + d * 20 + i, false, &rng))
              .ok());
    }
    ASSERT_TRUE(t->fractured()->FlushBuffer().ok());
  }

  // A probe for a main-only value: the three deltas are prunable.
  engine::Plan plan = t->planner().PlanPtq("part000030", 0.2);
  EXPECT_DOUBLE_EQ(plan.fractures_probed, 1.0);
  EXPECT_EQ(plan.fractures_total, 4u);
  std::string explain = plan.Explain();
  EXPECT_NE(explain.find("probing 1 of 4"), std::string::npos) << explain;
  EXPECT_NE(explain.find("3 pruned"), std::string::npos) << explain;
}

/// A Database-owned fractured table: a main fracture over slots 0..99 and
/// six deltas that interleave slots 200..799 (delta d holds the slots
/// 200 + d + 6j). A delta slot's value lies inside every delta's zone map,
/// so only the Bloom fences rule the deltas that lack it out.
struct InterleavedFx {
  static constexpr uint64_t kDeltas = 6;
  engine::Database db;
  engine::Table* table = nullptr;
  FracturedUpi* frac = nullptr;

  InterleavedFx() {
    Rng rng(61);
    UpiOptions opt;
    opt.cluster_column = kInst;
    opt.cutoff = 0.1;
    std::vector<Tuple> main_tuples;
    TupleId id = 1;
    for (uint64_t s = 0; s < 100; ++s) {
      main_tuples.push_back(MakeSlotTuple(id++, s, false, &rng));
    }
    table = db.CreateFracturedTable("t", datagen::DblpGenerator::AuthorSchema(),
                                    opt, {kCountry}, main_tuples)
                .ValueOrDie();
    frac = table->fractured();
    for (uint64_t d = 0; d < kDeltas; ++d) {
      for (uint64_t s = 200 + d; s < 800; s += kDeltas) {
        EXPECT_TRUE(table->Insert(MakeSlotTuple(id++, s, false, &rng)).ok());
      }
      EXPECT_TRUE(frac->FlushBuffer().ok());
    }
  }

  uint64_t Counter(const char* name) {
    return db.env()->metrics()->counter(name)->value();
  }
  uint64_t BloomRejects() { return Counter("upi_pruning_bloom_rejects_total"); }
};

/// Runs each executed fan-out shape once on `value` (its region for the
/// secondary probe) and hands `check` the shape's name.
void ForEachExecutedShape(FracturedUpi* frac, const std::string& value,
                          const std::string& region,
                          const std::function<void(const char*)>& before,
                          const std::function<void(const char*)>& check) {
  const double qt = 0.1;
  std::vector<PtqMatch> rows;
  before("ptq");
  ASSERT_TRUE(frac->OpenPtq(value, qt)->Drain(&rows).ok());
  check("ptq");
  before("secondary");
  ASSERT_TRUE(frac->OpenSecondary(kCountry, region, qt,
                                  SecondaryAccessMode::kTailored)
                  ->Drain(&rows)
                  .ok());
  check("secondary");
  before("top-k");
  ASSERT_TRUE(frac->OpenTopK(value, 3)->Drain(&rows).ok());
  check("top-k");
  before("scan-filter");
  ASSERT_TRUE(
      frac->ScanTuplesMatching(kInst, value, qt, [](catalog::TupleView) {}).ok());
  check("scan-filter");
}

TEST(PruningCounterTest, BloomRejectsCountExecutedFanOutsOnly) {
  InterleavedFx fx;
  // Slot 302 is delta 0's; delta 5 holds it as slot 301's second
  // alternative. The main fracture is out of the zone, deltas 1-4 are not.
  const std::string value = "part000302";
  const PruneSet set = fx.frac->ForQuery(-1, value, 0.1);
  ASSERT_EQ(set.pruned, 5u);

  // Estimates, planning and the merge policy decide without counting.
  const uint64_t rejects = fx.BloomRejects();
  const uint64_t pruned = fx.frac->fractures_pruned_total();
  const uint64_t probed = fx.frac->fractures_probed_total();
  for (int i = 0; i < 10; ++i) {
    (void)fx.frac->EstimatePrune(-1, value, 0.1);
    (void)fx.frac->ForQuery(-1, value, 0.1);
    (void)fx.table->planner().PlanQuery(engine::Query::Ptq(value, 0.1));
    maintenance::MergePolicyOptions popt;
    popt.reference_value = value;
    (void)maintenance::MergePolicy(popt, fx.db.profile()).DecideMerge(*fx.frac);
  }
  EXPECT_EQ(fx.BloomRejects(), rejects);
  EXPECT_EQ(fx.frac->fractures_pruned_total(), pruned);
  EXPECT_EQ(fx.frac->fractures_probed_total(), probed);

  // An executed fan-out counts at most one reject per fracture it pruned.
  uint64_t rejects0 = 0, pruned0 = 0;
  ForEachExecutedShape(
      fx.frac, value, "region0015",
      [&](const char*) {
        rejects0 = fx.BloomRejects();
        pruned0 = fx.frac->fractures_pruned_total();
      },
      [&](const char* shape) {
        EXPECT_LE(fx.BloomRejects() - rejects0,
                  fx.frac->fractures_pruned_total() - pruned0)
            << shape;
      });
#ifndef UPI_OBS_DISABLED
  // Top-k prunes through the same decision, so its Bloom skips count too.
  rejects0 = fx.BloomRejects();
  std::vector<PtqMatch> rows;
  ASSERT_TRUE(fx.frac->OpenTopK(value, 3)->Drain(&rows).ok());
  EXPECT_GT(fx.BloomRejects(), rejects0);
#endif
}

TEST(PruningFanoutTest, EveryExecutedShapeDecidesEachFractureOnce) {
  InterleavedFx fx;
  const std::string value = "part000302";
  const uint64_t nfrac = fx.frac->num_fractures();
  ASSERT_EQ(nfrac, 1 + InterleavedFx::kDeltas);
  uint64_t decided0 = 0;
  auto decided = [&] {
    return fx.frac->fractures_probed_total() +
           fx.frac->fractures_pruned_total();
  };
  ForEachExecutedShape(
      fx.frac, value, "region0015", [&](const char*) { decided0 = decided(); },
      [&](const char* shape) {
        EXPECT_EQ(decided() - decided0, nfrac) << shape;
      });

#ifndef UPI_OBS_DISABLED
  // The PTQ opens exactly the fractures ForQuery says it would.
  obs::QueryTrace trace;
  {
    obs::TraceScope scope(&trace);
    std::vector<PtqMatch> rows;
    ASSERT_TRUE(fx.frac->OpenPtq(value, 0.1)->Drain(&rows).ok());
  }
  std::vector<std::string> probed;
  for (const obs::TraceOp& op : trace.ops) {
    if (!op.pruned && op.label != "t.buffer") probed.push_back(op.label);
  }
  const PruneSet set = fx.frac->ForQuery(-1, value, 0.1);
  std::vector<std::string> want;
  size_t i = 0;
  fx.frac->ForEachFractureShared([&](const Upi& u) {
    if (set.probe[i++]) want.push_back(u.name());
  });
  EXPECT_EQ(probed, want);
  EXPECT_EQ(want.size(), set.probed);
#endif
}

// ---------------------------------------------------------------------------
// Seeded differential traces. Shard admission and fracture pruning may only
// change what a read opens, and every design answers the same reads: every
// read of a trace must equal the same read on a pruning-off twin, on every
// other design, and a brute-force answer over the live tuples.
// ---------------------------------------------------------------------------

// Columns of the trace schema: a clustered Key, a secondary Region, and a
// Tag that no index covers.
constexpr int kKey = 1;
constexpr int kRegion = 2;
constexpr int kTag = 3;

std::string Pick(const char* prefix, uint64_t n, Rng* rng) {
  return prefix + std::to_string(10 + rng->Uniform(n));
}

/// A discrete value of 1-3 distinct alternatives drawn from `n` values.
catalog::Value TraceDist(const char* prefix, uint64_t n, Rng* rng) {
  std::vector<prob::Alternative> alts;
  double mass = 1.0;
  const uint64_t count = 1 + rng->Uniform(3);
  for (uint64_t i = 0; i < count; ++i) {
    std::string v = Pick(prefix, n, rng);
    bool seen = false;
    for (const prob::Alternative& a : alts) seen |= a.value == v;
    if (seen) continue;
    const double p =
        i + 1 == count ? mass : mass * rng->UniformDouble(0.2, 0.9);
    alts.push_back({v, p});
    mass -= p;
  }
  return catalog::Value::Discrete(
      prob::DiscreteDistribution::Make(std::move(alts)).ValueOrDie());
}

Tuple TraceTuple(TupleId id, Rng* rng) {
  std::string name = "n";
  name += std::to_string(id);
  return Tuple(id, rng->UniformDouble(0.3, 1.0),
               {catalog::Value::String(std::move(name)),
                TraceDist("k", 24, rng), TraceDist("r", 6, rng),
                TraceDist("t", 4, rng)});
}

using IdConf = std::vector<std::pair<TupleId, double>>;

/// Rows by id: every read path's answer set, whatever its order.
IdConf ById(const std::vector<PtqMatch>& rows) {
  IdConf out;
  for (const PtqMatch& m : rows) out.emplace_back(m.id, m.confidence);
  std::sort(out.begin(), out.end());
  return out;
}

/// The brute-force answer: live tuples whose `column` takes `value` at qt or
/// above (on the heap key's grid, as every row reports it), or, when k > 0,
/// the k best of them (confidence descending, ties by TupleId).
IdConf Oracle(const std::map<TupleId, Tuple>& live, int column,
              const std::string& value, double qt, size_t k) {
  std::vector<std::pair<double, TupleId>> hits;
  for (const auto& [id, t] : live) {
    const double conf = QuantizeProb(t.ConfidenceOf(column, value));
    if (conf > 0 && conf >= qt) hits.emplace_back(-conf, id);
  }
  std::sort(hits.begin(), hits.end());
  if (k > 0 && hits.size() > k) hits.resize(k);
  IdConf out;
  for (const auto& [neg, id] : hits) out.emplace_back(id, -neg);
  std::sort(out.begin(), out.end());
  return out;
}

/// The Fractured UPIs behind a table: itself, each shard, or none (a plain
/// UPI and an unclustered table have no flush or merge).
std::vector<FracturedUpi*> FracturesOf(engine::Table* t) {
  if (t->fractured() != nullptr) return {t->fractured()};
  std::vector<FracturedUpi*> out;
  if (const engine::PartitionedTable* pt = t->partitioned()) {
    for (size_t i = 0; i < pt->num_shards(); ++i) {
      out.push_back(pt->shard_fractured(i));
    }
  }
  return out;
}

TEST(DifferentialTraceTest, ReadsEqualPruningOffTwinsAndBruteForce) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    engine::DatabaseOptions dopt;
    dopt.gather_workers = 0;
    // A small flush watermark: buffered rows and fractures mix.
    dopt.maintenance.policy.flush_max_buffered_tuples = 24;
    dopt.maintenance.policy.flush_max_buffered_deletes = 8;
    engine::Database db(dopt);
    const catalog::Schema schema({{"Name", catalog::ValueType::kString},
                                  {"Key", catalog::ValueType::kDiscrete},
                                  {"Region", catalog::ValueType::kDiscrete},
                                  {"Tag", catalog::ValueType::kDiscrete}});
    std::map<TupleId, Tuple> live;
    std::vector<Tuple> base;
    TupleId next_id = 1;
    for (int i = 0; i < 60; ++i) {
      base.push_back(TraceTuple(next_id++, &rng));
      live.emplace(base.back().id(), base.back());
    }
    engine::PartitionOptions range;
    range.scheme = engine::PartitionOptions::Scheme::kRange;
    range.num_shards = 4;
    range.range_splits = {"k16", "k22", "k28"};
    engine::PartitionOptions hash;
    hash.num_shards = 4;
    // Each table kind with pruning on, then its pruning-off twin.
    std::vector<engine::Table*> tables;
    for (bool pruning : {true, false}) {
      UpiOptions opt;
      opt.cluster_column = kKey;
      opt.cutoff = 0.2;
      opt.enable_pruning = pruning;
      const std::string tag = pruning ? "on" : "off";
      tables.push_back(db.CreatePartitionedTable("range_" + tag, schema, opt,
                                                 {kRegion}, range, base)
                           .ValueOrDie());
      tables.push_back(db.CreatePartitionedTable("hash_" + tag, schema, opt,
                                                 {kRegion}, hash, base)
                           .ValueOrDie());
      tables.push_back(db.CreateFracturedTable("frac_" + tag, schema, opt,
                                               {kRegion}, base)
                           .ValueOrDie());
    }
    // The designs with no fracture, and a Fractured table created with no
    // tuples, which holds the base in its buffer until a flush.
    UpiOptions opt;
    opt.cluster_column = kKey;
    opt.cutoff = 0.2;
    tables.push_back(
        db.CreateUpiTable("upi", schema, opt, {kRegion}, base).ValueOrDie());
    tables.push_back(db.CreateUnclusteredTable("heap", schema, kKey,
                                               {kKey, kRegion}, base)
                         .ValueOrDie());
    engine::Table* empty =
        db.CreateFracturedTable("frac_empty", schema, opt, {kRegion}, {})
            .ValueOrDie();
    for (const Tuple& t : base) ASSERT_TRUE(empty->Insert(t).ok());
    tables.push_back(empty);

    for (int op = 0; op < 400; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const uint64_t dice = rng.Uniform(100);
      if (dice < 45) {
        const Tuple t = TraceTuple(next_id++, &rng);
        for (engine::Table* table : tables) {
          ASSERT_TRUE(table->Insert(t).ok());
        }
        live.emplace(t.id(), t);
      } else if (dice < 55 && !live.empty()) {
        auto victim = live.begin();
        std::advance(victim, rng.Uniform(live.size()));
        for (engine::Table* table : tables) {
          ASSERT_TRUE(table->Delete(victim->second).ok());
        }
        live.erase(victim);
      } else if (dice < 58) {
        // An id never stored: a phantom delete changes no answer.
        const Tuple ghost = TraceTuple(1'000'000 + next_id, &rng);
        for (engine::Table* table : tables) (void)table->Delete(ghost);
      } else if (dice < 62) {
        db.RunMaintenance();
      } else if (dice < 66) {
        const uint64_t kind = rng.Uniform(3);
        for (engine::Table* table : tables) {
          for (FracturedUpi* f : FracturesOf(table)) {
            const Status st = kind == 0   ? f->FlushBuffer()
                              : kind == 1 ? f->MergeOldestFractures(2)
                                          : f->MergeAll();
            ASSERT_TRUE(st.ok()) << st.ToString();
          }
        }
      } else {
        const uint64_t shape = rng.Uniform(4);
        constexpr double kThresholds[] = {0.05, 0.15, 0.3, 0.6};
        const double qt = kThresholds[rng.Uniform(4)];
        engine::Query q = engine::Query::Ptq("", 0.0);
        IdConf want;
        if (shape == 0) {
          const std::string v = Pick("k", 24, &rng);
          q = engine::Query::Ptq(v, qt);
          want = Oracle(live, kKey, v, qt, 0);
        } else if (shape == 1) {
          const std::string v = Pick("k", 24, &rng);
          const size_t k = 1 + rng.Uniform(8);
          q = engine::Query::TopK(v, k);
          want = Oracle(live, kKey, v, 0.0, k);
        } else if (shape == 2) {
          const std::string v = Pick("r", 6, &rng);
          q = engine::Query::Secondary(kRegion, v, qt);
          want = Oracle(live, kRegion, v, qt, 0);
        } else {
          const std::string v = Pick("t", 4, &rng);
          q = engine::Query::ScanFilter(kTag, v, qt);
          want = Oracle(live, kTag, v, qt, 0);
        }
        for (engine::Table* table : tables) {
          std::vector<PtqMatch> rows;
          ASSERT_TRUE(table->Run(q, &rows).ok()) << table->name();
          ASSERT_EQ(ById(rows), want)
              << table->name() << " shape " << shape << " value " << q.value
              << " qt " << q.qt << " k " << q.k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace upi::core
