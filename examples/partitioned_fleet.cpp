// Partitioned fleet tracking: horizontal partitioning with scatter-gather.
// Builds one logical car-observation table as N range-partitioned Fractured
// UPI shards through the Database facade — writes route to the owning shard,
// segment PTQs admit a shard only when its own fences (its insert buffer's
// index and its fractures' summaries) may hold a match and probe only those
// shards (concurrently, on the shared gather pool), and each shard runs its
// own maintenance domain so flushes and merges interleave instead of
// serializing behind one table lock. Prints the planner's EXPLAIN (the shard
// fan-out line), an EXPLAIN ANALYZE with the per-shard trace, and the
// partition counters the run moved.
//
//   ./example_partitioned_fleet [--scale=0.1] [--shards=4] [--qt=0.5]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "datagen/cartel.h"
#include "engine/database.h"

using namespace upi;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  double scale = flags::GetDouble("scale", 0.1);
  double qt = flags::GetDouble("qt", 0.5);
  size_t nshards = static_cast<size_t>(flags::GetInt64("shards", 4));

  datagen::CartelConfig cfg = datagen::CartelConfig{}.Scaled(scale);
  datagen::CartelGenerator gen(cfg);
  auto obs = gen.GenerateObservations();

  // Range splits at routing-key quantiles: each tuple routes by its
  // highest-probability segment, and because a Cartel observation's
  // alternatives are the true segment plus its lexical neighbors, almost
  // every tuple lands with *all* its alternatives inside one shard — the
  // property that lets each shard's fences prune.
  std::vector<std::string> keys;
  keys.reserve(obs.size());
  for (const catalog::Tuple& t : obs) {
    keys.push_back(t.values()[datagen::CarObsCols::kSegment]
                       .discrete()
                       .alternatives()[0]
                       .value);
  }
  std::sort(keys.begin(), keys.end());
  engine::PartitionOptions popts;
  popts.scheme = engine::PartitionOptions::Scheme::kRange;
  for (size_t i = 1; i < nshards; ++i) {
    std::string split = keys[i * keys.size() / nshards];
    if (popts.range_splits.empty() || split > popts.range_splits.back()) {
      popts.range_splits.push_back(std::move(split));
    }
  }
  popts.num_shards = popts.range_splits.size() + 1;

  engine::DatabaseOptions dbopt;
  dbopt.maintenance.num_workers = 2;
  engine::Database db(dbopt);
  core::UpiOptions opt;
  opt.cluster_column = datagen::CarObsCols::kSegment;
  opt.cutoff = 0.1;
  engine::Table* fleet =
      db.CreatePartitionedTable("fleet",
                                datagen::CartelGenerator::CarObservationSchema(),
                                opt, {}, popts, obs)
          .ValueOrDie();
  std::printf("Built %zu observations as %zu range shards (splits at "
              "routing-key quantiles)\n\n",
              obs.size(), popts.num_shards);

  // --- Writes route to the owning shard ------------------------------------
  size_t stream = obs.size() / 10;
  for (size_t i = 0; i < stream; ++i) {
    bench::CheckOk(fleet->Insert(gen.MakeObservation(1000000 + i)));
  }
  db.maintenance()->WaitIdle();
  std::printf("Streamed %zu observations; each shard flushes on its own "
              "maintenance domain\n\n", stream);

  // --- Segment PTQ: shard fences prune the fan-out -------------------------
  std::string segment = gen.MidSegment();
  std::vector<core::PtqMatch> out;
  engine::Plan plan =
      std::move(fleet->Run(engine::Query::Ptq(segment, qt), &out))
          .ValueOrDie();
  std::printf("PTQ %s @ qt=%.2f -> %zu cars\n%s\n", segment.c_str(), qt,
              out.size(), plan.Explain().c_str());

  // --- The same query under EXPLAIN ANALYZE: the per-shard trace ------------
  std::string analyzed =
      std::move(fleet->ExplainAnalyze(engine::Query::Ptq(segment, qt)))
          .ValueOrDie();
  std::printf("%s\n", analyzed.c_str());

  // --- Top-k across shards: each admissible shard's best 5, merged ----------
  out.clear();
  bench::CheckOk(fleet->Run(engine::Query::TopK(segment, 5), &out).status());
  std::printf("top-5 for %s:\n", segment.c_str());
  for (const auto& m : out) {
    std::printf("  car %llu  conf %.3f\n",
                static_cast<unsigned long long>(m.id), m.confidence);
  }

  engine::PartitionedTable* part = fleet->partitioned();
  std::printf("\nfan-out counters: %llu shard probes, %llu pruned\n",
              static_cast<unsigned long long>(part->shards_probed_total()),
              static_cast<unsigned long long>(part->shards_pruned_total()));
  return 0;
}
