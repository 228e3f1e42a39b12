// Tests for horizontal partitioning (engine/partition.h): hash and range
// placement (including boundary keys), invalid-spec and router-mismatch
// rejection, routed writes, per-shard zone-map pruning (a range PTQ whose key
// range maps to one shard probes exactly 1 of N), shard fan-out in EXPLAIN /
// EXPLAIN ANALYZE, and the per-shard metric families.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "engine/database.h"
#include "prob/confidence.h"

namespace upi::engine {
namespace {

using catalog::Schema;
using catalog::Tuple;
using catalog::Value;
using catalog::ValueType;
using prob::Alternative;
using prob::DiscreteDistribution;

DiscreteDistribution Dist(std::vector<Alternative> alts) {
  return DiscreteDistribution::Make(std::move(alts)).ValueOrDie();
}

Schema TwoColSchema() {
  return Schema({{"Name", ValueType::kString},
                 {"Institution", ValueType::kDiscrete}});
}

Tuple CertainTuple(catalog::TupleId id, const std::string& key) {
  std::string name = "n";
  name += std::to_string(id);
  return Tuple(id, 1.0,
               {Value::String(std::move(name)),
                Value::Discrete(Dist({{key, 1.0}}))});
}

core::UpiOptions Options() {
  core::UpiOptions opt;
  opt.cluster_column = 1;
  opt.cutoff = 0.1;
  opt.charge_open_per_query = false;
  return opt;
}

// Four range shards over a*, h*, p*, v* keys; every alternative is certain,
// so each shard's summary covers exactly its own key range.
PartitionOptions RangePopts() {
  PartitionOptions popts;
  popts.scheme = PartitionOptions::Scheme::kRange;
  popts.num_shards = 4;
  popts.range_splits = {"g", "n", "t"};
  return popts;
}

std::vector<Tuple> RangeTuples() {
  std::vector<Tuple> tuples;
  catalog::TupleId id = 1;
  for (const char* prefix : {"a", "h", "p", "v"}) {
    for (int i = 0; i < 12; ++i) {
      tuples.push_back(
          CertainTuple(id++, prefix + std::to_string(i % 10) +
                                 std::string(1, 'a' + i)));
    }
  }
  return tuples;
}

// ---------------------------------------------------------------------------
// Partitioner placement
// ---------------------------------------------------------------------------

TEST(PartitionerTest, HashPlacementIsStableAndInRange) {
  PartitionOptions popts;
  popts.scheme = PartitionOptions::Scheme::kHash;
  popts.num_shards = 8;
  Partitioner p = Partitioner::Make(popts).ValueOrDie();
  size_t hits[8] = {};
  for (int i = 0; i < 1000; ++i) {
    std::string key = "key" + std::to_string(i);
    size_t shard = p.ShardOf(key);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, Partitioner::HashKey(key) % 8);
    EXPECT_EQ(shard, p.ShardOf(key));  // deterministic
    ++hits[shard];
  }
  // FNV-1a spreads: no shard is empty or hoards the keyspace.
  for (size_t h : hits) {
    EXPECT_GT(h, 50u);
    EXPECT_LT(h, 300u);
  }
}

TEST(PartitionerTest, RangePlacementAndBoundaryKeys) {
  Partitioner p = Partitioner::Make(RangePopts()).ValueOrDie();
  EXPECT_EQ(p.ShardOf("a"), 0u);
  EXPECT_EQ(p.ShardOf("fzzz"), 0u);
  EXPECT_EQ(p.ShardOf("g"), 1u);  // boundary key goes to the upper shard
  EXPECT_EQ(p.ShardOf("m"), 1u);
  EXPECT_EQ(p.ShardOf("n"), 2u);
  EXPECT_EQ(p.ShardOf("s"), 2u);
  EXPECT_EQ(p.ShardOf("t"), 3u);
  EXPECT_EQ(p.ShardOf("zz"), 3u);
  EXPECT_EQ(p.ShardOf(""), 0u);  // below every split
}

TEST(PartitionerTest, RejectsInvalidSpecs) {
  PartitionOptions popts;
  popts.num_shards = 0;
  EXPECT_EQ(Partitioner::Make(popts).status().code(),
            StatusCode::kInvalidArgument);

  popts = PartitionOptions();
  popts.scheme = PartitionOptions::Scheme::kHash;
  popts.range_splits = {"m"};
  EXPECT_EQ(Partitioner::Make(popts).status().code(),
            StatusCode::kInvalidArgument);

  popts = PartitionOptions();
  popts.scheme = PartitionOptions::Scheme::kRange;
  popts.num_shards = 4;
  popts.range_splits = {"g", "n"};  // needs exactly 3
  EXPECT_EQ(Partitioner::Make(popts).status().code(),
            StatusCode::kInvalidArgument);

  popts.range_splits = {"g", "g", "n"};  // not strictly ascending
  EXPECT_EQ(Partitioner::Make(popts).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Routed writes
// ---------------------------------------------------------------------------

TEST(PartitionTest, InsertAndDeleteRouteToOwningShard) {
  DatabaseOptions dopt;
  dopt.gather_workers = 0;
  Database db(dopt);
  Table* t = db.CreatePartitionedTable("t", TwoColSchema(), Options(), {},
                                       RangePopts(), RangeTuples())
                 .ValueOrDie();
  PartitionedTable* pt = t->partitioned();

  // "q..." lives in shard 2 ([n, t)).
  Tuple extra = CertainTuple(500, "q-extra");
  ASSERT_TRUE(t->Insert(extra).ok());
  db.RunMaintenance();
  EXPECT_EQ(pt->shard_fractured(2)->num_live_tuples(), 13u);
  EXPECT_EQ(pt->shard_fractured(0)->num_live_tuples(), 12u);

  std::vector<core::PtqMatch> rows;
  ASSERT_TRUE(t->Run(Query::Ptq("q-extra", 0.5), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, 500u);

  ASSERT_TRUE(t->Delete(extra).ok());
  db.RunMaintenance();
  rows.clear();
  ASSERT_TRUE(t->Run(Query::Ptq("q-extra", 0.5), &rows).ok());
  EXPECT_TRUE(rows.empty());

  // Deletes remove by id, whatever value the passed tuple carries. In a
  // table split at "m", tuple 2 lives under "b" in shard 0; a delete of id 2
  // carrying "x" (which would route to shard 1) must still remove it.
  PartitionOptions split;
  split.scheme = PartitionOptions::Scheme::kRange;
  split.num_shards = 2;
  split.range_splits = {"m"};
  Table* s = db.CreatePartitionedTable(
                   "s", TwoColSchema(), Options(), {}, split,
                   {CertainTuple(1, "a"), CertainTuple(2, "b"),
                    CertainTuple(3, "y")})
                 .ValueOrDie();
  ASSERT_TRUE(s->Delete(CertainTuple(2, "x")).ok());
  rows.clear();
  ASSERT_TRUE(s->Run(Query::Ptq("b", 0.5), &rows).ok());
  EXPECT_TRUE(rows.empty());
  // The same for a row still in shard 0's insert buffer.
  ASSERT_TRUE(s->Insert(CertainTuple(4, "c")).ok());
  ASSERT_TRUE(s->Delete(CertainTuple(4, "z")).ok());
  rows.clear();
  ASSERT_TRUE(s->Run(Query::Ptq("c", 0.5), &rows).ok());
  EXPECT_TRUE(rows.empty());
  // An id no shard holds, deleted or never stored, is NotFound.
  EXPECT_TRUE(s->Delete(CertainTuple(2, "b")).IsNotFound());
  EXPECT_TRUE(s->Delete(CertainTuple(99, "b")).IsNotFound());
  // The value is never routed, so one that cannot be still deletes by id.
  ASSERT_TRUE(
      s->Delete(Tuple(3, 1.0, {Value::String("n3"), Value::String("y")})).ok());
  rows.clear();
  ASSERT_TRUE(s->Run(Query::Ptq("y", 0.5), &rows).ok());
  EXPECT_TRUE(rows.empty());
  rows.clear();
  ASSERT_TRUE(s->Run(Query::Ptq("a", 0.5), &rows).ok());
  EXPECT_EQ(rows.size(), 1u);
}

TEST(PartitionTest, BloomFalsePositiveDeleteLowersLiveCountUntilFullMerge) {
  // A delete reaches every shard whose fences may hold the id. A fracture
  // Bloom false positive also sends it to a shard that lacks the id: no row
  // there is hidden, but that shard's live count is one low until its next
  // full merge retires the phantom.
  DatabaseOptions dopt;
  dopt.gather_workers = 0;
  Database db(dopt);
  PartitionOptions split;
  split.scheme = PartitionOptions::Scheme::kRange;
  split.num_shards = 2;
  split.range_splits = {"m"};
  std::vector<Tuple> tuples;
  for (catalog::TupleId id = 1; id <= 200; ++id) {
    std::string key = "a";
    key += std::to_string(id);
    tuples.push_back(CertainTuple(id, key));
  }
  Table* s = db.CreatePartitionedTable("s", TwoColSchema(), Options(), {},
                                       split, tuples)
                 .ValueOrDie();
  PartitionedTable* pt = s->partitioned();
  core::FracturedUpi* left = pt->shard_fractured(0);
  core::FracturedUpi* right = pt->shard_fractured(1);
  // An id shard 0 never stored that its main fracture's fence still admits.
  catalog::TupleId id = 1000;
  while (id < 100000 && !left->MayHoldTupleId(id)) ++id;
  ASSERT_LT(id, 100000u);
  ASSERT_TRUE(s->Insert(CertainTuple(id, "y")).ok());
  auto live = [&] {
    return left->num_live_tuples() + right->num_live_tuples();
  };
  ASSERT_EQ(live(), 201u);

  ASSERT_TRUE(s->Delete(CertainTuple(id, "y")).ok());
  EXPECT_EQ(right->num_live_tuples(), 0u);
  EXPECT_EQ(left->num_live_tuples(), 199u);  // the phantom
  uint64_t scanned = 0;
  ASSERT_TRUE(pt->ScanTuples([&](catalog::TupleView) { ++scanned; }).ok());
  EXPECT_EQ(scanned, 200u);

  ASSERT_TRUE(left->MergeAll().ok());
  EXPECT_EQ(live(), 200u);
}

// ---------------------------------------------------------------------------
// Zone-map shard pruning: a range PTQ mapping to one shard probes 1 of N
// ---------------------------------------------------------------------------

TEST(PartitionTest, RangePtqProbesExactlyOneShard) {
  DatabaseOptions dopt;
  dopt.gather_workers = 0;
  Database db(dopt);
  Table* t = db.CreatePartitionedTable("t", TwoColSchema(), Options(), {},
                                       RangePopts(), RangeTuples())
                 .ValueOrDie();
  PartitionedTable* pt = t->partitioned();
  const std::string value = "p5f";  // exists, owned by shard 2

  core::PruneEstimate pe = pt->EstimatePrune(-1, value, 0.3);
  EXPECT_EQ(pe.total_shards, 4u);
  EXPECT_EQ(pe.probed_shards, 1.0);

  uint64_t probed_before = pt->shards_probed_total();
  uint64_t pruned_before = pt->shards_pruned_total();
  std::vector<core::PtqMatch> rows;
  Plan plan = t->Run(Query::Ptq(value, 0.3), &rows).ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(pt->shards_probed_total() - probed_before, 1u);
  EXPECT_EQ(pt->shards_pruned_total() - pruned_before, 3u);

  // The plan renders the fan-out the ISSUE way.
  EXPECT_NE(plan.Explain().find("probing 1 of 4 shards (3 pruned)"),
            std::string::npos);

  // With pruning disabled the same probe fans out to every shard.
  core::UpiOptions no_prune = Options();
  no_prune.enable_pruning = false;
  Table* t2 = db.CreatePartitionedTable("t2", TwoColSchema(), no_prune, {},
                                        RangePopts(), RangeTuples())
                  .ValueOrDie();
  PartitionedTable* pt2 = t2->partitioned();
  probed_before = pt2->shards_probed_total();
  rows.clear();
  ASSERT_TRUE(t2->Run(Query::Ptq(value, 0.3), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(pt2->shards_probed_total() - probed_before, 4u);
}

TEST(PartitionTest, SummariesPruneAcrossAllAlternatives) {
  // A tuple routes by its *first* alternative, but its lower-probability
  // alternatives live in the same shard's indexes — so the shard owning the
  // tuple must stay admissible for those values too.
  DatabaseOptions dopt;
  dopt.gather_workers = 0;
  Database db(dopt);
  PartitionOptions popts;
  popts.num_shards = 4;
  std::vector<Tuple> tuples = RangeTuples();
  // First alt "b-home" decides placement; "w-away" rides along.
  tuples.push_back(Tuple(900, 1.0,
                         {Value::String("n900"),
                          Value::Discrete(Dist({{"b-home", 0.6},
                                                {"w-away", 0.4}}))}));
  Table* t = db.CreatePartitionedTable("t", TwoColSchema(), Options(), {},
                                       popts, tuples)
                 .ValueOrDie();
  std::vector<core::PtqMatch> rows;
  ASSERT_TRUE(t->Run(Query::Ptq("w-away", 0.3), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, 900u);
  // Within the key encoding's probability quantization step.
  EXPECT_NEAR(rows[0].confidence, 0.4, 1e-8);
}

TEST(PartitionTest, AValueOnlyInOneShardsBufferIsAdmitted) {
  // Admission reads each shard's insert-buffer index exactly: a value that
  // lives only in one shard's buffer admits that shard and no other, and
  // once the buffered tuple is deleted no shard is probed for it.
  DatabaseOptions dopt;
  dopt.gather_workers = 0;
  Database db(dopt);
  Table* t = db.CreatePartitionedTable("t", TwoColSchema(), Options(), {},
                                       RangePopts(), RangeTuples())
                 .ValueOrDie();
  PartitionedTable* pt = t->partitioned();
  const Tuple buffered = CertainTuple(600, "q-buffered");  // shard 2
  ASSERT_TRUE(t->Insert(buffered).ok());
  ASSERT_EQ(pt->shard_fractured(2)->buffered_inserts(), 1u);

  EXPECT_EQ(pt->EstimatePrune(-1, "q-buffered", 0.5).probed_shards, 1.0);
  uint64_t probed_before = pt->shards_probed_total();
  std::vector<core::PtqMatch> rows;
  ASSERT_TRUE(t->Run(Query::Ptq("q-buffered", 0.5), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, 600u);
  EXPECT_EQ(pt->shards_probed_total() - probed_before, 1u);
  rows.clear();
  ASSERT_TRUE(t->Run(Query::TopK("q-buffered", 3), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, 600u);

  ASSERT_TRUE(t->Delete(buffered).ok());
  probed_before = pt->shards_probed_total();
  rows.clear();
  ASSERT_TRUE(t->Run(Query::Ptq("q-buffered", 0.5), &rows).ok());
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(pt->shards_probed_total() - probed_before, 0u);
}

TEST(PartitionTest, ScanFilterOnAnUnindexedColumnReachesBufferedRows) {
  // The buffers index only the clustered and secondary columns. A probe on
  // any other column must still admit every shard whose buffer holds a
  // tuple.
  DatabaseOptions dopt;
  dopt.gather_workers = 0;
  Database db(dopt);
  Schema schema({{"Name", ValueType::kString},
                 {"Institution", ValueType::kDiscrete},
                 {"Tag", ValueType::kDiscrete}});
  auto tagged = [](catalog::TupleId id, const std::string& key,
                   const std::string& tag) {
    std::string name = "n";
    name += std::to_string(id);
    return Tuple(id, 1.0,
                 {Value::String(std::move(name)),
                  Value::Discrete(Dist({{key, 1.0}})),
                  Value::Discrete(Dist({{tag, 0.8}}))});
  };
  // Every base tuple lands in shard 1, so shard 0 has no fracture: only
  // its buffer can admit it.
  std::vector<Tuple> base;
  for (catalog::TupleId id = 1; id <= 8; ++id) {
    std::string key = "x";
    key += std::to_string(id);
    base.push_back(tagged(id, key, "old"));
  }
  PartitionOptions split;
  split.scheme = PartitionOptions::Scheme::kRange;
  split.num_shards = 2;
  split.range_splits = {"m"};
  Table* t = db.CreatePartitionedTable("t", schema, Options(), {}, split, base)
                 .ValueOrDie();
  ASSERT_TRUE(t->Insert(tagged(50, "c", "new")).ok());  // shard 0's buffer
  ASSERT_EQ(t->partitioned()->shard_fractured(0)->num_fractures(), 0u);
  std::vector<core::PtqMatch> rows;
  ASSERT_TRUE(t->Run(Query::ScanFilter(2, "new", 0.5), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, 50u);
  rows.clear();
  ASSERT_TRUE(t->Run(Query::ScanFilter(2, "old", 0.5), &rows).ok());
  EXPECT_EQ(rows.size(), 8u);
}

TEST(PartitionTest, ProbedShardFractureOpensOncePerColdEpoch) {
  // Fractured shards inherit the handle cache: a probed shard's fracture
  // pays Costinit on its first touch in a cold epoch, then nothing until
  // the next ColdCache().
  DatabaseOptions dopt;
  dopt.gather_workers = 0;
  Database db(dopt);
  Table* t = db.CreatePartitionedTable("t", TwoColSchema(), Options(), {},
                                       RangePopts(), RangeTuples())
                 .ValueOrDie();
  // Neither shard nor fracture pruning: every shard's fracture is probed.
  core::UpiOptions probe_all = Options();
  probe_all.enable_pruning = false;
  Table* all = db.CreatePartitionedTable("all", TwoColSchema(), probe_all, {},
                                         RangePopts(), RangeTuples())
                   .ValueOrDie();
  auto opens = [&](Table* table) {
    sim::StatsWindow window(db.env()->disk());
    std::vector<core::PtqMatch> rows;
    EXPECT_TRUE(table->Run(Query::Ptq("p5f", 0.3), &rows).ok());
    EXPECT_EQ(rows.size(), 1u);
    return window.Delta().file_opens;
  };
  for (int epoch = 0; epoch < 2; ++epoch) {
    db.ColdCache();
    EXPECT_EQ(opens(t), 1u) << "one probed shard, epoch " << epoch;
    EXPECT_EQ(opens(t), 0u);
    EXPECT_EQ(opens(all), 4u) << "every shard probed, epoch " << epoch;
    EXPECT_EQ(opens(all), 0u);
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE shard rendering + metric families
// ---------------------------------------------------------------------------

TEST(PartitionTest, ExplainAnalyzeRendersShardFanout) {
  DatabaseOptions dopt;
  dopt.gather_workers = 0;
  Database db(dopt);
  Table* t = db.CreatePartitionedTable("t", TwoColSchema(), Options(), {},
                                       RangePopts(), RangeTuples())
                 .ValueOrDie();
  std::string text = t->ExplainAnalyze(Query::Ptq("p5f", 0.3)).ValueOrDie();
  EXPECT_NE(text.find("shards: probing 1 of 4 shards (3 pruned)"),
            std::string::npos);
  EXPECT_NE(text.find("shard["), std::string::npos);
  EXPECT_NE(text.find("[pruned]"), std::string::npos);
}

TEST(PartitionTest, PerShardMetricFamiliesAreExported) {
  Database db;  // default gather pool, so the queue-depth gauge registers
  Table* t = db.CreatePartitionedTable("t", TwoColSchema(), Options(), {},
                                       RangePopts(), RangeTuples())
                 .ValueOrDie();
  ASSERT_TRUE(t->Insert(CertainTuple(700, "q-m")).ok());
  std::vector<core::PtqMatch> rows;
  ASSERT_TRUE(t->Run(Query::Ptq("p5f", 0.3), &rows).ok());
  std::string prom = db.MetricsSnapshot().ToPrometheus();
  EXPECT_NE(prom.find("upi_partition_shards_probed_total"), std::string::npos);
  EXPECT_NE(prom.find("upi_partition_shards_pruned_total"), std::string::npos);
  EXPECT_NE(prom.find("upi_partition_rows_routed_total"), std::string::npos);
  EXPECT_NE(prom.find("upi_partition_gather_queue_depth"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scatter-gather over the pool matches serial execution
// ---------------------------------------------------------------------------

TEST(PartitionTest, PooledAndSerialGatherAgree) {
  std::vector<Tuple> tuples = RangeTuples();
  DatabaseOptions serial_opt;
  serial_opt.gather_workers = 0;
  Database serial_db(serial_opt);
  DatabaseOptions pooled_opt;
  pooled_opt.gather_workers = 4;
  Database pooled_db(pooled_opt);

  PartitionOptions popts;
  popts.num_shards = 4;
  core::UpiOptions probe_all = Options();
  probe_all.enable_pruning = false;  // force a full fan-out through the pool
  Table* ts = serial_db.CreatePartitionedTable("t", TwoColSchema(), probe_all,
                                               {}, popts, tuples)
                  .ValueOrDie();
  Table* tp = pooled_db.CreatePartitionedTable("t", TwoColSchema(), probe_all,
                                               {}, popts, tuples)
                  .ValueOrDie();
  for (const char* v : {"a3d", "h7h", "p5f", "v9j", "missing"}) {
    std::vector<core::PtqMatch> serial_rows, pooled_rows;
    ASSERT_TRUE(ts->Run(Query::Ptq(v, 0.2), &serial_rows).ok());
    ASSERT_TRUE(tp->Run(Query::Ptq(v, 0.2), &pooled_rows).ok());
    ASSERT_EQ(serial_rows.size(), pooled_rows.size());
    for (size_t i = 0; i < serial_rows.size(); ++i) {
      EXPECT_EQ(serial_rows[i].id, pooled_rows[i].id);
      EXPECT_EQ(serial_rows[i].confidence, pooled_rows[i].confidence);
    }
  }
}

}  // namespace
}  // namespace upi::engine
