// Tuning advisor walkthrough (the Section 6.3 DBA procedure, automated).
//
// Collects the probability histogram of a synthetic author table, then asks
// the advisor: given a query workload (mix of thresholds) and a storage
// budget, which cutoff threshold C should the UPI use, and how many fractures
// may accumulate before a merge is due?
//
//   ./example_tuning_advisor [--scale=0.2] [--budget_mb=30]
#include <cstdio>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "core/advisor.h"
#include "core/upi.h"
#include "datagen/dblp.h"
#include "engine/database.h"

using namespace upi;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  double scale = flags::GetDouble("scale", 0.2);
  double budget_mb = flags::GetDouble("budget_mb", 30.0);

  datagen::DblpConfig cfg = datagen::DblpConfig{}.Scaled(scale);
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();

  // Step 1: collect statistics (Section 6.1's probability histogram).
  histogram::ProbHistogram hist(20);
  double total_bytes = 0;
  for (const auto& t : authors) {
    std::string buf;
    t.Serialize(&buf);
    total_bytes += static_cast<double>(buf.size());
    const auto& dist = t.Get(datagen::AuthorCols::kInstitution).discrete();
    bool first = true;
    for (const auto& a : dist.alternatives()) {
      hist.Add(a.value, t.existence() * a.prob, first);
      first = false;
    }
  }
  double avg_entry = total_bytes / static_cast<double>(authors.size()) + 24;
  histogram::SelectivityEstimator estimator(&hist);
  core::Advisor advisor(sim::DeviceProfile::SpinningDisk(), &estimator,
                        avg_entry, 8192);

  // Step 2: describe the observed workload (value, threshold, frequency).
  std::vector<core::WorkloadQuery> workload = {
      {gen.PopularInstitution(), 0.30, 5.0},   // frequent dashboards
      {gen.PopularInstitution(), 0.05, 1.0},   // occasional deep dives
      {gen.InstitutionName(25), 0.20, 2.0},    // mid-size institution reports
  };

  std::printf("Authors: %zu, alternatives: %llu, avg heap entry %.0f bytes\n",
              authors.size(),
              static_cast<unsigned long long>(hist.total_alternatives()),
              avg_entry);
  std::printf("Storage budget: %.0f MB\n\n", budget_mb);

  // Step 3: evaluate cutoff candidates.
  std::printf("%-6s %14s %16s %9s\n", "C", "heap size[MB]", "avg query[s]",
              "fits?");
  std::vector<double> candidates = {0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5};
  for (double c : candidates) {
    auto rec = advisor.Evaluate(c, workload, budget_mb * 1024 * 1024);
    std::printf("%-6.2f %14.1f %16.2f %9s\n", c,
                rec.expected_heap_bytes / (1024.0 * 1024.0),
                rec.expected_query_ms / 1000.0, rec.feasible ? "yes" : "NO");
  }
  auto best =
      advisor.RecommendCutoff(candidates, workload, budget_mb * 1024 * 1024);
  std::printf("\nRecommended cutoff C = %.2f (expected avg query %.2fs, heap "
              "%.1f MB)\n",
              best.cutoff, best.expected_query_ms / 1000.0,
              best.expected_heap_bytes / (1024.0 * 1024.0));

  // Step 4: merge scheduling for the fractured deployment.
  double sel = estimator.EstimatePtq(gen.PopularInstitution(), 0.3, best.cutoff)
                   .selectivity;
  for (double tolerable_s : {1.0, 2.0, 5.0}) {
    uint32_t nfrac = advisor.FracturesBeforeMerge(
        tolerable_s * 1000.0, sel,
        static_cast<uint64_t>(best.expected_heap_bytes), 4);
    std::printf("Tolerating %.0fs queries -> merge after %u fractures\n",
                tolerable_s, nfrac);
  }

  // Step 5: sanity-check the recommendation against a real build, through
  // the Database facade (and show the planner's view of the tuned table).
  engine::Database db;
  engine::Table* table =
      db.CreateUpiTable("author", datagen::DblpGenerator::AuthorSchema(),
                        bench::AuthorUpiOptions(best.cutoff), {}, authors)
          .ValueOrDie();
  std::printf("\nBuilt UPI at C=%.2f: heap %.1f MB (estimate was %.1f MB)\n",
              best.cutoff,
              static_cast<double>(table->stats().table.table_bytes) / (1 << 20),
              best.expected_heap_bytes / (1 << 20));

  // The workload's own dashboard query, prepared the way a serving tier
  // would run it: its plan (EXPLAIN below) is cached until writes move the
  // table's statistics.
  engine::PreparedQuery dashboard =
      table->Prepare(engine::Query::Ptq("", workload[0].qt)).ValueOrDie();
  std::vector<core::PtqMatch> rows;
  engine::Plan plan = std::move(dashboard.Bind(gen.PopularInstitution())
                                    .Execute(&rows))
                          .ValueOrDie();
  std::printf("\n%s", plan.Explain().c_str());
  std::printf("dashboard query returns %zu authors at qt=%.2f\n", rows.size(),
              workload[0].qt);
  return 0;
}
