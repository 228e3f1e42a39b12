// Sensor / vehicle tracking: the Cartel-style continuous-uncertainty
// scenario. Builds a continuous UPI over noisy GPS observations, runs
// probabilistic range queries ("which cars were within R meters of this
// point, with confidence >= QT?"), a road-segment query through the
// correlated secondary index, a k-NN lookup — and then the deployment shape:
// a live observation stream ingested into a segment-clustered Fractured UPI
// whose flushes and merges are handled by the background MaintenanceManager
// (no manual FlushBuffer anywhere), with PTQs answered mid-stream while the
// worker threads merge underneath.
//
//   ./example_sensor_tracking [--scale=0.1] [--qt=0.5]
#include <cstdio>

#include "baseline/secondary_utree.h"
#include "baseline/unclustered_table.h"
#include "bench/bench_util.h"
#include "common/flags.h"
#include "core/continuous_upi.h"
#include "core/fractured_upi.h"
#include "datagen/cartel.h"
#include "engine/database.h"
#include "exec/spatial.h"
#include "maintenance/manager.h"

using namespace upi;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  double scale = flags::GetDouble("scale", 0.1);
  double qt = flags::GetDouble("qt", 0.5);

  datagen::CartelConfig cfg = datagen::CartelConfig{}.Scaled(scale);
  datagen::CartelGenerator gen(cfg);
  auto obs = gen.GenerateObservations();
  std::printf("Generated %zu car observations over a %.0fm x %.0fm city\n\n",
              obs.size(), cfg.area_size, cfg.area_size);

  storage::DbEnv env;
  auto upi = core::ContinuousUpi::Build(
                 &env, "cars", datagen::CartelGenerator::CarObservationSchema(),
                 datagen::CarObsCols::kLocation,
                 {datagen::CarObsCols::kSegment}, obs)
                 .ValueOrDie();

  // Baseline for comparison: secondary U-Tree over an unclustered heap.
  storage::DbEnv base_env;
  auto heap = baseline::UnclusteredTable::Build(
                  &base_env, "cars",
                  datagen::CartelGenerator::CarObservationSchema(),
                  datagen::CarObsCols::kSegment,
                  {datagen::CarObsCols::kSegment}, obs)
                  .ValueOrDie();
  auto utree = baseline::SecondaryUtree::Build(
                   &base_env, "cars", *heap, datagen::CarObsCols::kLocation, obs)
                   .ValueOrDie();

  Rng rng(9);
  prob::Point center = gen.RandomQueryCenter(&rng);
  double radius = cfg.area_size / 20.0;

  // --- Query 4: probabilistic range ---------------------------------------
  auto upi_cost = bench::RunCold(&env, [&]() -> size_t {
    std::vector<core::PtqMatch> out;
    bench::CheckOk(upi->QueryRange(center, radius, qt, &out));
    return out.size();
  });
  auto ut_cost = bench::RunCold(&base_env, [&]() -> size_t {
    std::vector<core::PtqMatch> out;
    bench::CheckOk(utree->QueryRange(*heap, center, radius, qt, &out));
    return out.size();
  });
  std::printf("Range query (r=%.0fm, qt=%.2f): %zu cars\n", radius, qt,
              upi_cost.rows);
  std::printf("  continuous UPI:   %8.2fs simulated\n", upi_cost.sim_ms / 1000);
  std::printf("  secondary U-Tree: %8.2fs simulated (%.0fx slower)\n\n",
              ut_cost.sim_ms / 1000, ut_cost.sim_ms / upi_cost.sim_ms);

  // --- Query 5: road segment through the correlated secondary --------------
  std::string segment = gen.MidSegment();
  auto seg_cost = bench::RunCold(&env, [&]() -> size_t {
    std::vector<core::PtqMatch> out;
    bench::CheckOk(
        upi->QueryBySecondary(datagen::CarObsCols::kSegment, segment, qt, &out));
    return out.size();
  });
  std::printf("Segment query (%s, qt=%.2f): %zu cars, %.2fs simulated\n\n",
              segment.c_str(), qt, seg_cost.rows, seg_cost.sim_ms / 1000);

  // --- k nearest observations ----------------------------------------------
  std::vector<core::PtqMatch> knn;
  int rounds = 0;
  bench::CheckOk(
      exec::KnnByExpandingRange(*upi, center, 5, qt, radius / 8, &knn, &rounds));
  std::printf("5-NN around (%.0f, %.0f) after %d range expansions:\n", center.x,
              center.y, rounds);
  for (const auto& m : knn) {
    // One column of the encoded row: the location, decoded alone.
    const catalog::Value loc =
        m.tuple.Column(datagen::CarObsCols::kLocation).ValueOrDie();
    const auto& g = loc.gaussian();
    std::printf("  car %llu at (%.0f, %.0f), conf %.2f\n",
                static_cast<unsigned long long>(m.id), g.mean().x, g.mean().y,
                m.confidence);
  }

  // --- Live stream ingest through the Database facade ----------------------
  // The LSST-style pipeline: observations stream into a Fractured UPI table
  // created through the engine facade, which auto-registers it with the
  // database's MaintenanceManager — every Table::Insert notifies the manager,
  // whose worker threads flush at the watermark and merge when the Section
  // 6.2 cost model says the fracture tax is due, while this thread keeps
  // answering segment PTQs through the planner.
  engine::DatabaseOptions dbopt;
  dbopt.maintenance.num_workers = 2;
  dbopt.maintenance.policy.flush_max_buffered_tuples = obs.size() / 20 + 1;
  dbopt.maintenance.policy.reference_value = segment;
  dbopt.maintenance.policy.reference_qt = qt;
  engine::Database stream_db(dbopt);
  core::UpiOptions fopt;
  fopt.cluster_column = datagen::CarObsCols::kSegment;
  fopt.cutoff = 0.1;
  engine::Table* stream_table =
      stream_db
          .CreateFracturedTable("obs_stream",
                                datagen::CartelGenerator::CarObservationSchema(),
                                fopt, {}, obs)
          .ValueOrDie();

  // The serving loop prepares its query shape once; the plan cache re-plans
  // only when the stream's flushes/merges move the table's stats epoch.
  engine::PreparedQuery by_segment =
      stream_table->Prepare(engine::Query::Ptq("", qt)).ValueOrDie();
  size_t stream = obs.size() / 2;
  size_t mid_stream_rows = 0, mid_stream_queries = 0;
  for (size_t i = 0; i < stream; ++i) {
    bench::CheckOk(stream_table->Insert(gen.MakeObservation(1000000 + i)));
    if (i % (stream / 8 + 1) == 0) {
      // Planned query concurrent with whatever the workers are doing —
      // planning and execution both read the fracture list under the
      // table's shared lock.
      std::vector<core::PtqMatch> out;
      bench::CheckOk(by_segment.Bind(segment).Execute(&out).status());
      mid_stream_rows += out.size();
      ++mid_stream_queries;
    }
  }
  stream_db.maintenance()->WaitIdle();
  bench::CheckOk(stream_db.maintenance()->last_error());

  // The stream is idle: one planned query, with its EXPLAIN.
  std::vector<core::PtqMatch> settled;
  engine::Plan plan =
      std::move(stream_table->Run(engine::Query::Ptq(segment, qt), &settled))
          .ValueOrDie();
  std::printf("\n%s", plan.Explain().c_str());

  maintenance::MaintenanceStats mstats = stream_db.maintenance()->stats();
  std::printf("\nIngested %zu streamed observations under the maintenance "
              "manager:\n", stream);
  std::printf("  %llu watermark flushes (%.2fs simulated), %llu partial + "
              "%llu full merges (%.2fs), %u fractures remain\n",
              static_cast<unsigned long long>(mstats.flushes),
              mstats.flush_sim_ms / 1000,
              static_cast<unsigned long long>(mstats.partial_merges),
              static_cast<unsigned long long>(mstats.full_merges),
              mstats.merge_sim_ms / 1000,
              stream_table->stats().table.num_fractures);
  std::printf("  prepared segment query: %llu plannings over %llu executions "
              "(re-planned as merges moved the stats epoch)\n",
              static_cast<unsigned long long>(by_segment.plans()),
              static_cast<unsigned long long>(by_segment.plans() +
                                              by_segment.hits()));
  std::printf("  %zu segment PTQs answered mid-stream (%zu rows) while "
              "background merges ran\n",
              mid_stream_queries, mid_stream_rows);

  // Also stream into the continuous UPI as before: R-Tree splits keep the
  // heap clustered for the spatial queries.
  size_t cont_stream = obs.size() / 10;
  sim::StatsWindow w(env.disk());
  for (size_t i = 0; i < cont_stream; ++i) {
    bench::CheckOk(upi->Insert(gen.MakeObservation(2000000 + i)));
  }
  env.pool()->FlushAll();
  std::printf("  (+%zu observations into the continuous UPI: %.2fs simulated; "
              "R-Tree splits kept the heap clustered)\n",
              cont_stream, w.ElapsedMs() / 1000);
  return 0;
}
