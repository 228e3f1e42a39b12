// DBLP-style analytics: the workload that motivates the paper's introduction,
// served through the engine's Database facade.
//
// Generates a synthetic uncertain bibliography (authors with web-derived,
// probabilistic affiliations; publications inheriting them), creates named
// tables (a UPI-clustered Publication table and its PII baseline), and runs
// analytic queries through the cost-based planner: per-journal publication
// counts for an institution, a country-level roll-up (the planner picks the
// tailored secondary access itself), and a top-k author ranking — reporting
// the simulated I/O cost of each, with the planner's EXPLAIN output.
//
//   ./example_dblp_analytics [--scale=0.2] [--qt=0.3]
#include <cstdio>

#include "bench/bench_util.h"  // reuse the cold-query harness helpers
#include "common/flags.h"
#include "engine/database.h"
#include "exec/aggregate.h"
#include "exec/topk.h"

using namespace upi;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  double scale = flags::GetDouble("scale", 0.2);
  double qt = flags::GetDouble("qt", 0.3);

  datagen::DblpConfig cfg = datagen::DblpConfig{}.Scaled(scale);
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();
  auto pubs = gen.GeneratePublications(authors);
  std::printf("Generated %zu authors, %zu publications, %llu institutions\n\n",
              authors.size(), pubs.size(),
              static_cast<unsigned long long>(cfg.num_institutions));

  // Publication table: UPI on Institution + secondary on Country; PII
  // baseline on an unclustered heap in its own database (own cold cache).
  engine::Database db, pii_db;
  core::UpiOptions opt;
  opt.cluster_column = datagen::PublicationCols::kInstitution;
  opt.cutoff = 0.1;
  engine::Table* pub =
      db.CreateUpiTable("pub", datagen::DblpGenerator::PublicationSchema(), opt,
                        {datagen::PublicationCols::kCountry}, pubs)
          .ValueOrDie();
  engine::Table* heap =
      pii_db
          .CreateUnclusteredTable("pub",
                                  datagen::DblpGenerator::PublicationSchema(),
                                  datagen::PublicationCols::kInstitution,
                                  {datagen::PublicationCols::kInstitution}, pubs)
          .ValueOrDie();

  std::string inst = gen.PopularInstitution();

  // --- Query 2: per-journal counts for one institution ---------------------
  engine::Plan plan;
  auto upi_cost = bench::RunCold(db.env(), [&]() -> size_t {
    std::vector<core::PtqMatch> matches;
    plan = std::move(pub->Run(engine::Query::Ptq(inst, qt), &matches))
               .ValueOrDie();
    auto groups = exec::GroupByCount(matches, datagen::PublicationCols::kJournal);
    std::printf("Top journals for %s (confidence >= %.2f):\n", inst.c_str(), qt);
    int shown = 0;
    for (const auto& [journal, gc] : groups) {
      if (shown++ >= 5) break;
      std::printf("  %-12s count=%llu  expected=%.1f\n", journal.c_str(),
                  static_cast<unsigned long long>(gc.count), gc.expected_count);
    }
    return matches.size();
  });
  auto pii_cost = bench::RunCold(pii_db.env(), [&]() -> size_t {
    std::vector<core::PtqMatch> matches;
    bench::CheckOk(
        heap->Run(engine::Query::Ptq(inst, qt), &matches).status());
    return matches.size();
  });
  std::printf("Aggregate over %zu matches: UPI %.2fs vs PII %.2fs (simulated)"
              " -> %.0fx\n%s\n",
              upi_cost.rows, upi_cost.sim_ms / 1000.0, pii_cost.sim_ms / 1000.0,
              pii_cost.sim_ms / upi_cost.sim_ms, plan.Explain().c_str());

  // --- Query 3: country roll-up; the planner picks the access mode ---------
  std::string country = gen.MidCountry();
  auto sec_cost = bench::RunCold(db.env(), [&]() -> size_t {
    std::vector<core::PtqMatch> matches;
    plan = std::move(pub->Run(engine::Query::Secondary(
                                  datagen::PublicationCols::kCountry, country,
                                  qt),
                              &matches))
               .ValueOrDie();
    return matches.size();
  });
  std::printf("Country=%s roll-up: %zu pubs, %.2fs simulated via %s\n\n",
              country.c_str(), sec_cost.rows, sec_cost.sim_ms / 1000.0,
              engine::PlanKindName(plan.kind));

  // --- Top-k: most confident authors of the institution --------------------
  core::UpiOptions aopt;
  aopt.cluster_column = datagen::AuthorCols::kInstitution;
  engine::Table* author =
      db.CreateUpiTable("author", datagen::DblpGenerator::AuthorSchema(), aopt,
                        {}, authors)
          .ValueOrDie();
  // Streamed through a cursor: the direct top-k plan pulls exactly five rows
  // off the probability-ordered heap.
  auto cursor = author->OpenCursor(engine::Query::TopK(inst, 5)).ValueOrDie();
  std::printf("Top-5 most-confident %s authors (streamed):\n", inst.c_str());
  engine::RowView row;
  while (cursor->Next(&row)) {
    // The row's tuple stays encoded; this decodes its name column alone.
    catalog::Value name =
        row.tuple.Column(datagen::AuthorCols::kName).ValueOrDie();
    std::printf("  %-12s confidence=%.2f\n", name.str().c_str(),
                row.confidence);
  }
  bench::CheckOk(cursor->status());
  return 0;
}
