// Observability tests: metric primitives (concurrent counter exactness,
// histogram bucket boundaries, snapshot isolation, serializers, the runtime
// and type-conflict guards), the engine wiring (every upi_* family present
// and moving after real queries), EXPLAIN ANALYZE on a clustered PTQ and on
// a pruned 16-fracture probe (per-operator actuals reconcile exactly with
// the SimDisk thread-stats delta), and the slow-query log threshold.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "datagen/dblp.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "prob/discrete.h"
#include "sim/sim_disk.h"

namespace upi::obs {
namespace {

using catalog::Tuple;
using datagen::AuthorCols;

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterIncrementsSumExactly) {
  MetricsRegistry reg;
  Counter* c = reg.counter("test_total");
  ASSERT_NE(c, nullptr);
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  // UpperBound is the contract: bucket b holds UpperBound(b-1) < v <=
  // UpperBound(b); exact powers of two land on their own bound.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(Histogram::UpperBound(0)), 0u);
  for (size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    double ub = Histogram::UpperBound(b);
    EXPECT_EQ(Histogram::BucketIndex(ub), b) << "at bound " << ub;
    EXPECT_EQ(Histogram::BucketIndex(ub * 1.0001), b + 1) << "above " << ub;
  }
  // 1.0 = 2^0 sits exactly -kMinExp buckets up.
  EXPECT_EQ(Histogram::BucketIndex(1.0),
            static_cast<size_t>(-Histogram::kMinExp));
  EXPECT_EQ(Histogram::BucketIndex(1e30), Histogram::kBuckets - 1);

  MetricsRegistry reg;
  Histogram* h = reg.histogram("test_ms");
  ASSERT_NE(h, nullptr);
  h->Record(1.0);
  h->Record(1.0);
  h->Record(3.0);  // 2 < 3 <= 4: one bucket above 2^1
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 5.0);
  EXPECT_EQ(h->bucket_count(Histogram::BucketIndex(1.0)), 2u);
  EXPECT_EQ(h->bucket_count(Histogram::BucketIndex(3.0)), 1u);
}

TEST(MetricsTest, SnapshotIsIsolatedFromLaterUpdates) {
  MetricsRegistry reg;
  Counter* c = reg.counter("iso_total");
  Gauge* g = reg.gauge("iso_depth");
  c->Add(5);
  g->Set(2.0);
  MetricsSnapshot snap = reg.Snapshot();
  c->Add(100);
  g->Set(9.0);
  const Sample* cs = snap.Find("iso_total");
  const Sample* gs = snap.Find("iso_depth");
  ASSERT_NE(cs, nullptr);
  ASSERT_NE(gs, nullptr);
  EXPECT_DOUBLE_EQ(cs->value, 5.0);
  EXPECT_DOUBLE_EQ(gs->value, 2.0);
  // The live registry did move.
  EXPECT_DOUBLE_EQ(reg.Snapshot().Find("iso_total")->value, 105.0);
}

TEST(MetricsTest, TypeConflictReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.counter("x"), nullptr);
  EXPECT_EQ(reg.gauge("x"), nullptr);
  EXPECT_EQ(reg.histogram("x"), nullptr);
  // Create-or-get returns the same object.
  EXPECT_EQ(reg.counter("x"), reg.counter("x"));
}

TEST(MetricsTest, RuntimeDisableStopsRecording) {
  MetricsRegistry reg;
  Counter* c = reg.counter("sw_total");
  Histogram* h = reg.histogram("sw_ms");
  Gauge* g = reg.gauge("sw_depth");
  c->Add();
  reg.set_enabled(false);
  c->Add(100);
  h->Record(1.0);
  g->Set(7.0);
  reg.set_enabled(true);
  c->Add();
#ifndef UPI_OBS_DISABLED
  EXPECT_EQ(c->value(), 2u);
#endif
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(MetricsTest, SnapshotHooksExportAtSnapshotTime) {
  MetricsRegistry reg;
  uint64_t external = 17;
  reg.AddSnapshotHook([&external](MetricsSnapshot* snap) {
    snap->counters.push_back(
        {"hooked_total", "", static_cast<double>(external)});
  });
  EXPECT_DOUBLE_EQ(reg.Snapshot().Find("hooked_total")->value, 17.0);
  external = 40;
  // Hooks re-read at every snapshot, and export even when native recording
  // is off (the subsystem maintains the counter for itself regardless).
  reg.set_enabled(false);
  EXPECT_DOUBLE_EQ(reg.Snapshot().Find("hooked_total")->value, 40.0);
}

TEST(MetricsTest, SerializersRenderEveryFamily) {
  MetricsRegistry reg;
  reg.counter("fam_a_total")->Add(3);
  reg.gauge("fam_b")->Set(1.5);
  reg.histogram("fam_c_ms")->Record(2.0);
  MetricsSnapshot snap = reg.Snapshot();

  std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE fam_a_total counter"), std::string::npos);
  EXPECT_NE(prom.find("fam_a_total 3\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE fam_b gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE fam_c_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("fam_c_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("fam_c_ms_count 1"), std::string::npos);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"fam_a_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"fam_b\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"fam_c_ms\": {\"count\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine wiring
// ---------------------------------------------------------------------------

/// DBLP fixture through the Database facade, clustered UPI table.
struct DbFx {
  datagen::DblpConfig cfg;
  std::vector<Tuple> authors;
  engine::Database db;
  engine::Table* authors_table = nullptr;

  explicit DbFx(engine::DatabaseOptions opts = {}, size_t num_authors = 2000)
      : db((cfg.num_authors = num_authors, cfg.num_institutions = 80,
            cfg.seed = 77, opts)) {
    datagen::DblpGenerator gen(cfg);
    authors = gen.GenerateAuthors();
    core::UpiOptions opt;
    opt.cluster_column = AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    authors_table =
        db.CreateUpiTable("authors", datagen::DblpGenerator::AuthorSchema(),
                          opt, {AuthorCols::kCountry}, authors)
            .ValueOrDie();
  }

  std::string SomeInstitution() const {
    return datagen::FindValueWithApproxCount(authors, AuthorCols::kInstitution,
                                             200);
  }
};

TEST(ObsEngineTest, PoolPrivateBytesCountOnlyWrittenFrames) {
  // A bulk-built table's pages go straight to the device, so its warm reads
  // share the device's page images: no frame holds a copy of its own.
  DbFx fx;
  auto private_bytes = [&fx] {
    return fx.db.MetricsSnapshot().Find("upi_bufferpool_private_bytes")->value;
  };
  const engine::Query q = engine::Query::Ptq(fx.SomeInstitution(), 0.5);
  std::vector<core::PtqMatch> rows;
  fx.db.ColdCache();
  ASSERT_TRUE(fx.authors_table->Run(q, &rows).ok());
  ASSERT_TRUE(fx.authors_table->Run(q, &rows).ok());  // warm
  EXPECT_GT(fx.db.env()->pool()->cached_bytes(), 0u);
  EXPECT_EQ(private_bytes(), 0.0);
  // A write pin gives its frame a private copy, until it is written back.
  storage::Pager* heap = fx.authors_table->upi()->heap_tree()->pager();
  {
    storage::PageRef ref = heap->Get(0);
    ref.mutable_data();
    EXPECT_EQ(private_bytes(), static_cast<double>(heap->page_size()));
  }
  fx.db.env()->pool()->FlushAll();
  EXPECT_EQ(private_bytes(), 0.0);
}

TEST(ObsEngineTest, DatabaseExportsEngineMetricFamilies) {
  DbFx fx;
  std::vector<core::PtqMatch> rows;
  fx.db.ColdCache();
  ASSERT_TRUE(fx.authors_table
                  ->Run(engine::Query::Ptq(fx.SomeInstitution(), 0.5), &rows)
                  .ok());
  MetricsSnapshot snap = fx.db.MetricsSnapshot();
  EXPECT_GE(snap.Find("upi_query_executions_total")->value, 1.0);
  EXPECT_GE(snap.Find("upi_planner_plans_total")->value, 1.0);
  EXPECT_GT(snap.SumOf("upi_disk_reads_total"), 0.0);
  EXPECT_GT(snap.SumOf("upi_bufferpool_misses_total"), 0.0);
  EXPECT_NE(snap.Find("upi_bufferpool_cached_bytes"), nullptr);
  EXPECT_NE(snap.Find("upi_bufferpool_private_bytes"), nullptr);
  const Sample* file_bytes = snap.Find("upi_storage_file_bytes");
  ASSERT_NE(file_bytes, nullptr);
  EXPECT_GT(file_bytes->value, 0.0);
  // The query histogram saw the execution.
  bool found = false;
  for (const HistogramSample& h : snap.histograms) {
    if (h.name == "upi_query_sim_ms") {
      found = true;
#ifndef UPI_OBS_DISABLED
      EXPECT_GE(h.count, 1u);
#endif
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsEngineTest, ExplainAnalyzeClusteredPtq) {
  DbFx fx;
  fx.db.ColdCache();
  const std::string inst = fx.SomeInstitution();

  sim::ThreadStatsWindow outer(fx.db.env()->disk());
  auto r = fx.authors_table->AnalyzeQuery(engine::Query::Ptq(inst, 0.5));
  sim::DiskStats outer_delta = outer.Delta();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const engine::Table::AnalyzeResult& a = r.value();

  // The trace's end-to-end actuals ARE the thread-stats delta of the
  // execution: re-measuring around the call may only add the planner's
  // RAM-only work (nothing).
  EXPECT_EQ(a.trace.total.reads, outer_delta.reads);
  EXPECT_EQ(a.trace.total.seeks, outer_delta.seeks);
  EXPECT_EQ(a.trace.rows, a.rows.size());
  ASSERT_FALSE(a.trace.ops.empty());
  // Per-operator reads reconcile exactly with the end-to-end delta.
  EXPECT_EQ(a.trace.OpReads(), a.trace.total.reads);

  // Estimates speak to the actuals: the Section 6.1 histogram estimate of
  // rows and the cost model's page expectation are within a small factor on
  // clustered data the statistics were built from.
  EXPECT_GT(a.est_rows, 0.0);
  EXPECT_GT(a.est_pages, 0.0);
  double actual_rows = static_cast<double>(a.rows.size());
  double actual_pages = static_cast<double>(a.trace.total.reads);
  EXPECT_GT(a.est_rows, actual_rows / 3.0);
  EXPECT_LT(a.est_rows, actual_rows * 3.0 + 16.0);
  EXPECT_GT(a.est_pages, actual_pages / 4.0);
  EXPECT_LT(a.est_pages, actual_pages * 4.0 + 16.0);

  // The report carries the plan, the per-op lines, and the reconciliation.
  EXPECT_NE(a.text.find("ANALYZE"), std::string::npos);
  EXPECT_NE(a.text.find("total:"), std::string::npos);
  EXPECT_NE(a.text.find("est rows="), std::string::npos);
}

TEST(ObsEngineTest, ExplainAnalyzeCountsAForwardReadAsOneRead) {
  // A cold cutoff-pointer sweep (QT < C) fetches heap pages in key order and
  // reads short forward gaps through, so some reads transfer more than one
  // page. The per-operator reads, seeks and bytes still sum exactly to the
  // device delta, each such read counted once.
  DbFx fx;
  const engine::Query q = engine::Query::Ptq(
      datagen::FindValueWithApproxCount(fx.authors, AuthorCols::kInstitution,
                                        40),
      0.05);
  fx.db.ColdCache();
  sim::ThreadStatsWindow outer(fx.db.env()->disk());
  auto r = fx.authors_table->AnalyzeQuery(q);
  const sim::DiskStats d = outer.Delta();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::QueryTrace& trace = r.value().trace;
  EXPECT_EQ(trace.total.reads, d.reads);
  EXPECT_EQ(trace.total.seeks, d.seeks);
  EXPECT_EQ(trace.total.bytes_read, d.bytes_read);
  uint64_t seeks = 0, bytes = 0;
  for (const obs::TraceOp& op : trace.ops) {
    seeks += op.io.seeks;
    bytes += op.io.bytes_read;
  }
  EXPECT_EQ(trace.OpReads(), d.reads);
  EXPECT_EQ(seeks, d.seeks);
  EXPECT_EQ(bytes, d.bytes_read);
  EXPECT_GT(d.bytes_read, d.reads * 8192)
      << "no read went through a gap\n" << r.value().text;
}

TEST(ObsEngineTest, ExplainAnalyzeReconcilesOnSsdProfile) {
  // The SSD profile's extra charges (GC surcharge, overlap savings) flow
  // through the same DiskStats every actuals pipeline reads, so per-op
  // reconciliation stays exact on flash too.
  engine::DatabaseOptions opts;
  opts.device = sim::DeviceProfile::Ssd();
  DbFx fx(opts);
  const sim::SimDisk* disk = fx.db.env()->disk();

  // The bulk build already wrote the table: GC debt is live and priced.
  sim::DiskStats built = disk->stats();
  EXPECT_GT(built.gc_ms, 0.0);

  fx.db.ColdCache();
  sim::ThreadStatsWindow outer(disk);
  auto r = fx.authors_table->AnalyzeQuery(
      engine::Query::Ptq(fx.SomeInstitution(), 0.5));
  sim::DiskStats outer_delta = outer.Delta();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const engine::Table::AnalyzeResult& a = r.value();
  EXPECT_EQ(a.trace.total.reads, outer_delta.reads);
  EXPECT_EQ(a.trace.total.seeks, outer_delta.seeks);
  EXPECT_EQ(a.trace.OpReads(), a.trace.total.reads);
  // The pinned equality: EXPLAIN ANALYZE's total simulated ms IS the window
  // delta priced with the SSD constants — including the device-profile
  // fields — down to the last bit.
  EXPECT_EQ(a.trace.total_sim_ms, outer_delta.SimMs(disk->params()));

  // The upi_device_* families export the same accounting.
  MetricsSnapshot snap = fx.db.MetricsSnapshot();
  EXPECT_GT(snap.SumOf("upi_device_gc_ms_total"), 0.0);
  EXPECT_GT(snap.SumOf("upi_device_queue_depth_total"), 0.0);
  std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("upi_device_gc_ms_total"), std::string::npos);
  EXPECT_NE(prom.find("upi_device_overlap_saved_ms_total"), std::string::npos);
  EXPECT_NE(prom.find("upi_device_queue_depth_total{depth=\"1\"}"),
            std::string::npos);
}

/// An author whose only institution is "inst<part>_<id % 1000>": fractures
/// built from different parts hold disjoint institution ranges.
Tuple PartTuple(catalog::TupleId id, int part) {
  char inst[32];
  std::snprintf(inst, sizeof(inst), "inst%02d_%04llu", part,
                static_cast<unsigned long long>(id % 1000));
  std::vector<catalog::Value> values(4);
  std::string name = "n";
  name += std::to_string(id);
  values[AuthorCols::kName] = catalog::Value::String(std::move(name));
  values[AuthorCols::kInstitution] = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make({{inst, 0.9}}).ValueOrDie());
  values[AuthorCols::kCountry] = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make({{"c", 0.9}}).ValueOrDie());
  values[AuthorCols::kPayload] = catalog::Value::String("p");
  return Tuple(id, 0.95, values);
}

core::UpiOptions PartOptions() {
  core::UpiOptions opt;
  opt.cluster_column = AuthorCols::kInstitution;
  opt.cutoff = 0.1;
  return opt;
}

TEST(ObsEngineTest, ExplainAnalyzeFracturedPrunedProbe) {
  // A 16-fracture table whose fractures hold disjoint institution ranges:
  // a point probe can touch exactly one, and the zone maps prove it.
  engine::Database db;
  std::vector<Tuple> main_batch;
  catalog::TupleId id = 1;
  for (int i = 0; i < 300; ++i) main_batch.push_back(PartTuple(id++, 0));
  engine::Table* t =
      db.CreateFracturedTable("parts", datagen::DblpGenerator::AuthorSchema(),
                              PartOptions(), {}, main_batch)
          .ValueOrDie();
  for (int part = 1; part < 16; ++part) {
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(t->Insert(PartTuple(id++, part)).ok());
    }
    ASSERT_TRUE(t->fractured()->FlushBuffer().ok());
    db.RunMaintenance();  // drain any policy-enqueued follow-ups
  }
  ASSERT_GE(t->fractured()->num_fractures(), 10u);
  const size_t nfrac = t->fractured()->num_fractures();

  // Part 7's ids are 1021..1140, so "inst07_0021" lives in exactly one
  // fracture; every other zone map excludes it.
  db.ColdCache();
  sim::ThreadStatsWindow outer(db.env()->disk());
  auto r = t->AnalyzeQuery(engine::Query::Ptq("inst07_0021", 0.5));
  sim::DiskStats outer_delta = outer.Delta();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const engine::Table::AnalyzeResult& a = r.value();
  ASSERT_FALSE(a.rows.empty());

  // Exact reconciliation against the device: the trace total is the
  // thread-stats delta, and the per-operator reads sum to it.
  EXPECT_EQ(a.trace.total.reads, outer_delta.reads);
  EXPECT_EQ(a.trace.total.seeks, outer_delta.seeks);
  EXPECT_EQ(a.trace.OpReads(), a.trace.total.reads);

  // Pruning shows up per node: most fractures are recorded as pruned ops
  // with zero I/O, and at least one probed op carries the pages.
  size_t pruned_ops = 0, probed_io_ops = 0;
  for (const TraceOp& op : a.trace.ops) {
    if (op.pruned) {
      ++pruned_ops;
      EXPECT_EQ(op.io.reads, 0u) << op.label;
    } else if (op.io.reads > 0) {
      ++probed_io_ops;
    }
  }
  EXPECT_GE(pruned_ops, nfrac - 3);
  EXPECT_GE(probed_io_ops, 1u);
  EXPECT_NE(a.text.find("[pruned]"), std::string::npos);

  // The pruning counters moved accordingly.
  MetricsSnapshot snap = db.MetricsSnapshot();
#ifndef UPI_OBS_DISABLED
  EXPECT_GE(snap.Find("upi_pruning_fractures_pruned_total")->value,
            static_cast<double>(pruned_ops));
  EXPECT_GE(snap.Find("upi_pruning_fractures_probed_total")->value, 1.0);
#endif
}

TEST(ObsEngineTest, ExplainAnalyzeReconcilesOverOpenAndClosedFractures) {
  // A cold epoch in which one fracture's handle is already open: its node
  // shows opens=0, every other probed fracture pays Costinit (opens=1), and
  // the per-operator actuals, Costinit included, still sum exactly to the
  // device delta of the query.
  engine::Database db;
  std::vector<Tuple> main_batch;
  catalog::TupleId id = 1;
  for (int i = 0; i < 60; ++i) main_batch.push_back(PartTuple(id++, 0));
  engine::Table* t =
      db.CreateFracturedTable("parts", datagen::DblpGenerator::AuthorSchema(),
                              PartOptions(), {}, main_batch)
          .ValueOrDie();
  for (int part = 1; part < 4; ++part) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(t->Insert(PartTuple(id++, part)).ok());
    }
    ASSERT_TRUE(t->fractured()->FlushBuffer().ok());
  }
  db.RunMaintenance();
  const size_t nfrac = t->fractured()->num_fractures();
  ASSERT_GE(nfrac, 3u);

  // Part 2's ids are 101..140: "inst02_0121" lives in one fracture, and a
  // pruned probe opens only that one.
  const engine::Query q = engine::Query::Ptq("inst02_0121", 0.5);
  db.ColdCache();
  std::vector<core::PtqMatch> rows;
  ASSERT_TRUE(t->Run(q, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);

  // Without pruning the same probe visits every fracture.
  t->fractured()->mutable_options()->enable_pruning = false;
  const sim::SimDisk* disk = db.env()->disk();
  sim::ThreadStatsWindow outer(disk);
  auto r = t->AnalyzeQuery(q);
  sim::DiskStats outer_delta = outer.Delta();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const engine::Table::AnalyzeResult& a = r.value();
  EXPECT_EQ(a.rows.size(), 1u);

  sim::DiskStats op_sum;
  double op_ms = 0.0;
  size_t open_ops = 0, paid_ops = 0;
  for (const TraceOp& op : a.trace.ops) {
    op_sum += op.io;
    op_ms += op.sim_ms;
    EXPECT_FALSE(op.pruned) << op.label;
    ++(op.io.file_opens == 0 ? open_ops : paid_ops);
    EXPECT_LE(op.io.file_opens, 1u) << op.label;
  }
  EXPECT_EQ(open_ops, 1u);
  EXPECT_EQ(paid_ops, nfrac - 1);
  EXPECT_EQ(outer_delta.file_opens, nfrac - 1);
  EXPECT_EQ(a.trace.total.file_opens, outer_delta.file_opens);
  EXPECT_EQ(op_sum.file_opens, a.trace.total.file_opens);
  EXPECT_EQ(op_sum.reads, a.trace.total.reads);
  EXPECT_EQ(op_sum.seeks, a.trace.total.seeks);
  EXPECT_EQ(a.trace.total_sim_ms, outer_delta.SimMs(disk->params()));
  EXPECT_NEAR(op_ms, a.trace.total_sim_ms, 1e-9);
  EXPECT_NE(a.text.find("opens=0 "), std::string::npos) << a.text;
  EXPECT_NE(a.text.find("opens=1 "), std::string::npos) << a.text;
}

TEST(ObsEngineTest, SlowQueryLogFiresAtThresholdOnly) {
  engine::DatabaseOptions opts;
  opts.slow_query_ms = 1e9;  // start effectively silent
  DbFx fx(opts);
  const std::string inst = fx.SomeInstitution();
  std::vector<core::PtqMatch> rows;

  fx.db.ColdCache();
  ASSERT_TRUE(fx.authors_table->Run(engine::Query::Ptq(inst, 0.5), &rows).ok());
  EXPECT_EQ(fx.db.slow_query_log()->total_recorded(), 0u);

  // Any cold PTQ costs well over a microsecond of simulated device time.
  fx.db.set_slow_query_ms(0.001);
  fx.db.ColdCache();
  rows.clear();
  ASSERT_TRUE(fx.authors_table->Run(engine::Query::Ptq(inst, 0.5), &rows).ok());
  ASSERT_EQ(fx.db.slow_query_log()->total_recorded(), 1u);

  std::vector<SlowQueryEntry> entries = fx.db.slow_query_log()->entries();
  ASSERT_EQ(entries.size(), 1u);
  const SlowQueryEntry& e = entries.front();
  EXPECT_GE(e.sim_ms, e.threshold_ms);
  EXPECT_EQ(e.rows, rows.size());
  EXPECT_NE(e.query.find(inst), std::string::npos);
  EXPECT_FALSE(e.trace.ops.empty());
  EXPECT_NE(e.ToString().find("SLOW"), std::string::npos);

  // Disarming stops recording; the ring keeps what it has.
  fx.db.set_slow_query_ms(0.0);
  fx.db.ColdCache();
  rows.clear();
  ASSERT_TRUE(fx.authors_table->Run(engine::Query::Ptq(inst, 0.5), &rows).ok());
  EXPECT_EQ(fx.db.slow_query_log()->total_recorded(), 1u);
}

TEST(ObsEngineTest, SlowQueryLogRingDropsOldest) {
  SlowQueryLog log(3);
  for (int i = 0; i < 5; ++i) {
    SlowQueryEntry e;
    e.query = "q";
    e.query += std::to_string(i);
    log.Record(std::move(e));
  }
  EXPECT_EQ(log.total_recorded(), 5u);
  std::vector<SlowQueryEntry> entries = log.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.front().query, "q2");
  EXPECT_EQ(entries.back().query, "q4");
  log.Clear();
  EXPECT_TRUE(log.entries().empty());
}

}  // namespace
}  // namespace upi::obs
