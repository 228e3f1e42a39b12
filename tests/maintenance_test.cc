#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "core/fractured_upi.h"
#include "datagen/dblp.h"
#include "maintenance/manager.h"
#include "maintenance/merge_policy.h"
#include "maintenance/task_queue.h"
#include "storage/db_env.h"

namespace upi::maintenance {
namespace {

using catalog::Tuple;
using catalog::TupleId;
using core::FracturedUpi;
using core::MaintenanceOp;
using core::PtqMatch;
using core::UpiOptions;

struct Fx {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<Tuple> tuples;
  storage::DbEnv env;
  std::unique_ptr<FracturedUpi> table;
  TupleId next_id = 0;

  explicit Fx(uint64_t n = 600, uint64_t seed = 11) {
    cfg.num_authors = n;
    cfg.num_institutions = 50;
    cfg.seed = seed;
    gen = std::make_unique<datagen::DblpGenerator>(cfg);
    tuples = gen->GenerateAuthors();
    UpiOptions opt;
    opt.cluster_column = datagen::AuthorCols::kInstitution;
    opt.cutoff = 0.1;
    table = FracturedUpi::Build(&env, "authors",
                                datagen::DblpGenerator::AuthorSchema(), opt,
                                {}, tuples)
                .ValueOrDie();
    next_id = n + 1;
  }

  Tuple MakeAuthor() { return gen->MakeAuthor(next_id++); }

  std::map<TupleId, double> Oracle(const std::string& value, double qt,
                                   const std::set<TupleId>& deleted,
                                   const std::vector<Tuple>& extra) {
    std::map<TupleId, double> oracle;
    auto consider = [&](const Tuple& t) {
      if (deleted.contains(t.id())) return;
      double conf = t.ConfidenceOf(datagen::AuthorCols::kInstitution, value);
      if (conf >= qt && conf > 0) oracle[t.id()] = conf;
    };
    for (const Tuple& t : tuples) consider(t);
    for (const Tuple& t : extra) consider(t);
    return oracle;
  }
};

MergePolicyOptions NoMergePolicy() {
  MergePolicyOptions p;
  p.merges_enabled = false;
  return p;
}

// ---------------------------------------------------------------------------
// TaskQueue
// ---------------------------------------------------------------------------

TEST(TaskQueueTest, FifoAndTryPop) {
  TaskQueue q;
  EXPECT_TRUE(q.Push({MaintenanceOp::kFlush, nullptr, 0}));
  EXPECT_TRUE(q.Push({MaintenanceOp::kMergePartial, nullptr, 3}));
  EXPECT_EQ(q.size(), 2u);
  MaintenanceTask t;
  ASSERT_TRUE(q.TryPop(&t));
  EXPECT_EQ(t.op, MaintenanceOp::kFlush);
  ASSERT_TRUE(q.TryPop(&t));
  EXPECT_EQ(t.op, MaintenanceOp::kMergePartial);
  EXPECT_EQ(t.merge_count, 3u);
  EXPECT_FALSE(q.TryPop(&t));
}

TEST(TaskQueueTest, CloseDrainsQueuedTasksThenStops) {
  TaskQueue q;
  EXPECT_TRUE(q.Push({MaintenanceOp::kFlush, nullptr, 0}));
  q.Close();
  EXPECT_FALSE(q.Push({MaintenanceOp::kMergeAll, nullptr, 0}))
      << "pushes after Close are rejected";
  MaintenanceTask t;
  EXPECT_TRUE(q.Pop(&t)) << "queued task still handed out";
  EXPECT_FALSE(q.Pop(&t)) << "then Pop reports shutdown";
}

TEST(TaskQueueTest, PopBlocksUntilPush) {
  TaskQueue q;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    MaintenanceTask t;
    if (q.Pop(&t)) got = true;
  });
  EXPECT_TRUE(q.Push({MaintenanceOp::kFlush, nullptr, 0}));
  consumer.join();
  EXPECT_TRUE(got);
}

// ---------------------------------------------------------------------------
// MergePolicy
// ---------------------------------------------------------------------------

TEST(MergePolicyTest, FlushWatermarks) {
  Fx fx;
  MergePolicyOptions opt;
  opt.flush_max_buffered_tuples = 5;
  opt.flush_max_buffered_bytes = 1ull << 40;
  opt.flush_max_buffered_deletes = 3;
  MergePolicy policy(opt, fx.env.profile());

  EXPECT_EQ(policy.DecideFlush(*fx.table).action, std::nullopt);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.table->Insert(fx.MakeAuthor()).ok());
  }
  EXPECT_EQ(policy.DecideFlush(*fx.table).action, std::nullopt);
  ASSERT_TRUE(fx.table->Insert(fx.MakeAuthor()).ok());
  EXPECT_EQ(policy.DecideFlush(*fx.table).action, MaintenanceOp::kFlush);

  ASSERT_TRUE(fx.table->FlushBuffer().ok());
  EXPECT_EQ(policy.DecideFlush(*fx.table).action, std::nullopt);
  for (TupleId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(fx.table->Delete(id).ok());
  }
  Decision d = policy.DecideFlush(*fx.table);
  EXPECT_EQ(d.action, MaintenanceOp::kFlush);
  EXPECT_STREQ(d.reason, "buffered-delete watermark");
}

TEST(MergePolicyTest, ByteWatermark) {
  Fx fx;
  MergePolicyOptions opt;
  opt.flush_max_buffered_tuples = 1u << 30;
  opt.flush_max_buffered_bytes = 512;  // a handful of tuples
  MergePolicy policy(opt, fx.env.profile());
  while (policy.DecideFlush(*fx.table).action == std::nullopt) {
    ASSERT_TRUE(fx.table->Insert(fx.MakeAuthor()).ok());
    ASSERT_LT(fx.table->buffered_inserts(), 100u) << "watermark never hit";
  }
  EXPECT_GE(fx.table->buffered_bytes(), 512u);
}

TEST(MergePolicyTest, MergeTriggersFollowTheCostModel) {
  Fx fx;
  MergePolicyOptions opt;
  // Selectivity 0 isolates the fracture tax: Cost_frac = Nfrac * Lookup, so
  // deterioration over the merged layout is exactly Nfrac.
  opt.reference_selectivity = 0.0;
  opt.partial_merge_overhead_fraction = 0.5;
  opt.full_merge_deterioration = 100.0;  // off for this test
  MergePolicy policy(opt, fx.env.profile());

  EXPECT_EQ(policy.DecideMerge(*fx.table).action, std::nullopt)
      << "nothing to merge on a clean table";

  for (int batch = 0; batch < 2; ++batch) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(fx.table->Insert(fx.MakeAuthor()).ok());
    }
    ASSERT_TRUE(fx.table->FlushBuffer().ok());
  }
  Decision d = policy.DecideMerge(*fx.table);
  EXPECT_EQ(d.action, MaintenanceOp::kMergePartial);
  EXPECT_EQ(d.merge_count, 2u);
  EXPECT_GT(d.overhead_ms, 0.5 * d.predicted_query_ms);

  // With the deterioration knee at 2x, Nfrac = 3 is past it: full merge wins.
  opt.full_merge_deterioration = 2.0;
  MergePolicy strict(opt, fx.env.profile());
  Decision full = strict.DecideMerge(*fx.table);
  EXPECT_EQ(full.action, MaintenanceOp::kMergeAll);
  EXPECT_GT(full.predicted_query_ms, 2.0 * full.merged_query_ms);

  MergePolicyOptions off = opt;
  off.merges_enabled = false;
  EXPECT_EQ(MergePolicy(off, fx.env.profile()).DecideMerge(*fx.table).action,
            std::nullopt);
}

// ---------------------------------------------------------------------------
// MaintenanceManager, synchronous mode (deterministic)
// ---------------------------------------------------------------------------

TEST(MaintenanceManagerTest, WatermarkTriggeredFlush) {
  Fx fx;
  MaintenanceManagerOptions opt;
  opt.policy = NoMergePolicy();
  opt.policy.flush_max_buffered_tuples = 10;
  MaintenanceManager mgr(&fx.env, opt);
  mgr.Register(fx.table.get());

  std::vector<Tuple> extras;
  for (int i = 0; i < 9; ++i) {
    extras.push_back(fx.MakeAuthor());
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
    mgr.NotifyWrite(fx.table.get());
  }
  EXPECT_EQ(mgr.queued_tasks(), 0u) << "below watermark: no task";
  EXPECT_EQ(mgr.RunPending(), 0u);

  extras.push_back(fx.MakeAuthor());
  ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
  mgr.NotifyWrite(fx.table.get());
  EXPECT_EQ(mgr.queued_tasks(), 1u);
  EXPECT_EQ(fx.table->num_fractures(), 1u) << "sync mode: nothing ran yet";

  EXPECT_EQ(mgr.RunPending(), 1u);
  EXPECT_TRUE(mgr.last_error().ok());
  EXPECT_EQ(fx.table->buffered_inserts(), 0u);
  EXPECT_EQ(fx.table->num_fractures(), 2u);
  EXPECT_EQ(mgr.stats().flushes, 1u);
  EXPECT_GT(mgr.stats().flush_sim_ms, 0.0);

  std::string v = fx.gen->PopularInstitution();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.table->OpenPtq(v, 0.05)->Drain(&out).ok());
  auto oracle = fx.Oracle(v, 0.05, {}, extras);
  EXPECT_EQ(out.size(), oracle.size());
}

TEST(MaintenanceManagerTest, DuplicateNotifiesEnqueueOneTask) {
  Fx fx;
  MaintenanceManagerOptions opt;
  opt.policy = NoMergePolicy();
  opt.policy.flush_max_buffered_tuples = 5;
  MaintenanceManager mgr(&fx.env, opt);
  mgr.Register(fx.table.get());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fx.table->Insert(fx.MakeAuthor()).ok());
    mgr.NotifyWrite(fx.table.get());
  }
  EXPECT_EQ(mgr.queued_tasks(), 1u) << "deduplicated per table";
  EXPECT_EQ(mgr.RunPending(), 1u);
  EXPECT_EQ(fx.table->buffered_inserts(), 0u)
      << "the one flush drains everything accumulated";
}

TEST(MaintenanceManagerTest, PolicyTriggeredPartialMerge) {
  Fx fx;
  MaintenanceManagerOptions opt;
  opt.policy.flush_max_buffered_tuples = 20;
  opt.policy.reference_selectivity = 0.0;  // isolate the fracture tax
  opt.policy.partial_merge_overhead_fraction = 0.5;
  opt.policy.full_merge_deterioration = 100.0;  // keep MergeAll out of this test
  MaintenanceManager mgr(&fx.env, opt);
  mgr.Register(fx.table.get());

  // Two watermark flushes accumulate two delta fractures; the follow-up
  // policy check after the second flush must fold them.
  std::vector<Tuple> extras;
  for (int i = 0; i < 40; ++i) {
    extras.push_back(fx.MakeAuthor());
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
    mgr.NotifyWrite(fx.table.get());
    mgr.RunPending();
  }
  EXPECT_TRUE(mgr.last_error().ok());
  EXPECT_GE(mgr.stats().flushes, 2u);
  EXPECT_GE(mgr.stats().partial_merges, 1u);
  EXPECT_EQ(mgr.stats().full_merges, 0u);
  EXPECT_EQ(fx.table->num_fractures(), 2u) << "main + the folded delta";

  std::string v = fx.gen->PopularInstitution();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.table->OpenPtq(v, 0.05)->Drain(&out).ok());
  auto oracle = fx.Oracle(v, 0.05, {}, extras);
  ASSERT_EQ(out.size(), oracle.size());
  for (const auto& m : out) {
    ASSERT_TRUE(oracle.contains(m.id));
    EXPECT_NEAR(oracle[m.id], m.confidence, 1e-6);
  }
}

TEST(MaintenanceManagerTest, MergeAllPastDeteriorationThreshold) {
  Fx fx;
  MaintenanceManagerOptions opt;
  opt.policy.flush_max_buffered_tuples = 20;
  opt.policy.reference_selectivity = 0.0;
  // Fraction 1.0 disables partial merges (overhead can never *exceed* the
  // whole predicted cost when selectivity is 0), so deterioration alone
  // drives maintenance.
  opt.policy.partial_merge_overhead_fraction = 1.0;
  opt.policy.full_merge_deterioration = 2.5;  // Nfrac > 2.5 => full merge
  MaintenanceManager mgr(&fx.env, opt);
  mgr.Register(fx.table.get());

  std::vector<Tuple> extras;
  for (int i = 0; i < 60; ++i) {  // three watermark flushes
    extras.push_back(fx.MakeAuthor());
    ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
    mgr.NotifyWrite(fx.table.get());
    mgr.RunPending();
  }
  // Flush 1: Nfrac=2 (ratio 2 < 2.5, no merge). Flush 2: Nfrac=3, past the
  // knee -> MergeAll -> Nfrac=1. Flush 3: Nfrac=2 again.
  EXPECT_TRUE(mgr.last_error().ok());
  EXPECT_EQ(mgr.stats().full_merges, 1u);
  EXPECT_EQ(mgr.stats().partial_merges, 0u);
  EXPECT_EQ(fx.table->num_fractures(), 2u);
  EXPECT_GT(mgr.stats().merge_sim_ms, 0.0);

  std::string v = fx.gen->PopularInstitution();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.table->OpenPtq(v, 0.05)->Drain(&out).ok());
  auto oracle = fx.Oracle(v, 0.05, {}, extras);
  ASSERT_EQ(out.size(), oracle.size());
}

TEST(MaintenanceManagerTest, ForcedScheduleAndDeleteFlush) {
  Fx fx;
  MaintenanceManagerOptions opt;
  opt.policy = NoMergePolicy();
  opt.policy.flush_max_buffered_deletes = 4;
  MaintenanceManager mgr(&fx.env, opt);
  mgr.Register(fx.table.get());

  for (TupleId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(fx.table->Delete(id).ok());
    mgr.NotifyWrite(fx.table.get());
  }
  EXPECT_EQ(mgr.RunPending(), 1u);
  EXPECT_EQ(fx.table->buffered_deletes(), 0u) << "delete set persisted";

  // ScheduleMergeAll ignores watermarks (and the merges_enabled switch, which
  // only gates *policy-decided* merges).
  Tuple extra = fx.MakeAuthor();
  ASSERT_TRUE(fx.table->Insert(extra).ok());
  mgr.ScheduleMergeAll(fx.table.get());
  EXPECT_EQ(mgr.RunPending(), 1u);
  EXPECT_TRUE(mgr.last_error().ok());
  EXPECT_EQ(fx.table->num_fractures(), 1u);
  EXPECT_EQ(fx.table->buffered_inserts(), 0u)
      << "MergeAll folds the buffer in too";

  std::string v = fx.gen->PopularInstitution();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.table->OpenPtq(v, 0.05)->Drain(&out).ok());
  auto oracle = fx.Oracle(v, 0.05, {1, 2, 3, 4}, {extra});
  EXPECT_EQ(out.size(), oracle.size());
}

// ---------------------------------------------------------------------------
// Threaded smoke test: correct query results while background merges run
// ---------------------------------------------------------------------------

TEST(MaintenanceManagerTest, ThreadedQueriesStayCorrectDuringMerges) {
  Fx fx(1000, 7);
  MaintenanceManagerOptions opt;
  opt.num_workers = 2;
  opt.policy.flush_max_buffered_tuples = 25;
  opt.policy.reference_selectivity = 0.0;  // merge eagerly: maximum churn
  opt.policy.partial_merge_overhead_fraction = 0.5;
  opt.policy.full_merge_deterioration = 4.0;
  MaintenanceManager mgr(&fx.env, opt);
  mgr.Register(fx.table.get());

  std::string v = fx.gen->PopularInstitution();

  // Writer: the test thread streams inserts and pokes the manager, querying
  // every few tuples while the workers flush and merge underneath. Every
  // inserted tuple must be visible immediately (buffer) and stay visible
  // through every flush/partial-merge/full-merge install. The WaitIdle at
  // each round boundary makes the flush count deterministic (>= 1 per round)
  // without serializing the queries *inside* a round against the workers.
  std::vector<Tuple> extras;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 50; ++i) {
      extras.push_back(fx.MakeAuthor());
      ASSERT_TRUE(fx.table->Insert(extras.back()).ok());
      mgr.NotifyWrite(fx.table.get());
      if (i % 10 == 9) {
        auto oracle = fx.Oracle(v, 0.05, {}, extras);
        std::vector<PtqMatch> out;
        ASSERT_TRUE(fx.table->OpenPtq(v, 0.05)->Drain(&out).ok());
        ASSERT_EQ(out.size(), oracle.size())
            << "round " << round << " insert " << i;
        for (const auto& m : out) {
          ASSERT_TRUE(oracle.contains(m.id));
          ASSERT_NEAR(oracle[m.id], m.confidence, 1e-6);
        }
      }
    }
    mgr.WaitIdle();
  }
  EXPECT_TRUE(mgr.last_error().ok());
  MaintenanceStats stats = mgr.stats();
  EXPECT_GE(stats.flushes, 4u) << "watermark flushes ran in the background";
  EXPECT_GE(stats.partial_merges + stats.full_merges, 1u)
      << "at least one background merge overlapped the queries";

  // Final state: everything visible, exactly once.
  auto oracle = fx.Oracle(v, 0.05, {}, extras);
  std::vector<PtqMatch> out;
  ASSERT_TRUE(fx.table->OpenPtq(v, 0.05)->Drain(&out).ok());
  ASSERT_EQ(out.size(), oracle.size());

  mgr.Stop();
}

TEST(MaintenanceManagerTest, StopDropsQueuedSyncTasksWithoutHanging) {
  Fx fx;
  MaintenanceManagerOptions opt;
  opt.policy = NoMergePolicy();
  opt.policy.flush_max_buffered_tuples = 1;
  MaintenanceManager mgr(&fx.env, opt);
  mgr.Register(fx.table.get());
  ASSERT_TRUE(fx.table->Insert(fx.MakeAuthor()).ok());
  mgr.NotifyWrite(fx.table.get());
  EXPECT_EQ(mgr.queued_tasks(), 1u);
  mgr.Stop();           // never ran RunPending
  mgr.WaitIdle();       // must not hang
  EXPECT_EQ(mgr.stats().flushes, 0u);
}

}  // namespace
}  // namespace upi::maintenance
