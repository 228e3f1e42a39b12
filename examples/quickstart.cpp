// Quickstart: the paper's running example (Tables 1-5) end to end, through
// the engine's declarative Query API.
//
// Builds the three-author uncertain table, clusters it with a UPI on
// Institution (cutoff C = 10%), adds a secondary index on Country, and runs
// the paper's example queries as Query values through the cost-based planner
// — one-shot Run(), a streaming ResultCursor, and a PreparedQuery — printing
// each structure's contents and one EXPLAIN.
//
//   ./example_quickstart
#include <cstdio>

#include "core/upi_key.h"
#include "engine/database.h"
#include "exec/ptq.h"

using namespace upi;

namespace {

prob::DiscreteDistribution Dist(std::vector<prob::Alternative> alts) {
  return prob::DiscreteDistribution::Make(std::move(alts)).ValueOrDie();
}

/// A row keeps its tuple encoded: reading the name decodes that one column.
std::string NameOf(catalog::TupleView tuple) {
  return tuple.Column(0).ValueOrDie().str();
}

void PrintMatches(const char* what, const std::vector<core::PtqMatch>& out) {
  std::printf("%s -> %s\n", what, exec::Summarize(out).c_str());
  for (const auto& m : out) {
    std::printf("  %-6s confidence=%.0f%%\n", NameOf(m.tuple.view()).c_str(),
                m.confidence * 100.0);
  }
}

}  // namespace

int main() {
  // ----- Table 1: the uncertain Author table ------------------------------
  catalog::Schema schema({{"Name", catalog::ValueType::kString},
                          {"Institution", catalog::ValueType::kDiscrete},
                          {"Country", catalog::ValueType::kDiscrete}});
  std::vector<catalog::Tuple> authors;
  authors.push_back(catalog::Tuple(
      1, 0.9,
      {catalog::Value::String("Alice"),
       catalog::Value::Discrete(Dist({{"Brown", 0.8}, {"MIT", 0.2}})),
       catalog::Value::Discrete(Dist({{"US", 1.0}}))}));
  authors.push_back(catalog::Tuple(
      2, 1.0,
      {catalog::Value::String("Bob"),
       catalog::Value::Discrete(Dist({{"MIT", 0.95}, {"UCB", 0.05}})),
       catalog::Value::Discrete(Dist({{"US", 1.0}}))}));
  authors.push_back(catalog::Tuple(
      3, 0.8,
      {catalog::Value::String("Carol"),
       catalog::Value::Discrete(Dist({{"Brown", 0.6}, {"U.Tokyo", 0.4}})),
       catalog::Value::Discrete(Dist({{"US", 0.6}, {"Japan", 0.4}}))}));

  // ----- Build a UPI table on Institution with C = 10% (Table 3) ----------
  engine::Database db;
  core::UpiOptions options;
  options.cluster_column = 1;
  options.cutoff = 0.10;
  engine::Table* table =
      db.CreateUpiTable("author", schema, options, /*secondary_columns=*/{2},
                        authors)
          .ValueOrDie();

  // Physical-layout tour (structural introspection through the escape
  // hatch; every *read query* below goes through the Query API).
  std::printf("== UPI heap file (Institution ASC, probability DESC) ==\n");
  table->upi()->ScanHeap([&](std::string_view key, std::string_view tuple_bytes) {
    core::UpiKey k;
    (void)core::DecodeUpiKey(key, &k);
    std::printf("  %-9s (%2.0f%%)  %s\n", k.attr.c_str(), k.prob * 100.0,
                NameOf(catalog::TupleView(tuple_bytes)).c_str());
  });
  std::printf("Cutoff index holds %llu entry(ies) — Bob's UCB@5%% pointer.\n\n",
              static_cast<unsigned long long>(
                  table->upi()->cutoff_index()->num_entries()));

  // ----- Query 1 (paper Section 1): Institution = MIT ---------------------
  std::vector<core::PtqMatch> out;
  engine::Plan plan =
      std::move(table->Run(engine::Query::Ptq("MIT", 0.10), &out)).ValueOrDie();
  PrintMatches("Query 1: Institution=MIT, threshold 10%", out);
  std::printf("\n%s", plan.Explain().c_str());

  // Threshold below the cutoff: the cutoff index is consulted (Algorithm 2).
  out.clear();
  (void)table->Run(engine::Query::Ptq("UCB", 0.01), &out);
  PrintMatches("\nQuery: Institution=UCB, threshold 1% (via cutoff index)", out);

  // ----- Secondary index on Country (Table 5 + Algorithm 3) ---------------
  out.clear();
  plan = std::move(table->Run(engine::Query::Secondary(2, "US", 0.8), &out))
             .ValueOrDie();
  PrintMatches("\nQuery: Country=US, threshold 80% (planner-chosen secondary "
               "access)", out);
  std::printf("  planner picked: %s\n", engine::PlanKindName(plan.kind));

  // ----- Prepared execution: plan once, bind per value ---------------------
  engine::PreparedQuery by_institution =
      table->Prepare(engine::Query::Ptq("", 0.10)).ValueOrDie();
  for (const char* inst : {"MIT", "Brown"}) {
    out.clear();
    (void)by_institution.Bind(inst).Execute(&out);
    PrintMatches(inst, out);
  }
  std::printf("  prepared: %llu planning(s) served %llu executions\n",
              static_cast<unsigned long long>(by_institution.plans()),
              static_cast<unsigned long long>(by_institution.plans() +
                                              by_institution.hits()));

  // ----- Top-1 through a streaming cursor ----------------------------------
  // The cursor pulls exactly one row off the probability-ordered heap and
  // stops — no materialized match set, no cutoff-index visit.
  auto cursor =
      table->OpenCursor(engine::Query::TopK("Brown", 1)).ValueOrDie();
  engine::RowView row;
  std::printf("\nTop-1 for Institution=Brown (streamed):\n");
  while (cursor->Next(&row)) {
    std::printf("  %-6s confidence=%.0f%%\n", NameOf(row.tuple).c_str(),
                row.confidence * 100.0);
  }
  if (!cursor->status().ok()) {
    std::fprintf(stderr, "cursor failed: %s\n",
                 cursor->status().ToString().c_str());
    return 1;
  }

  // The engine's unified metrics replace hand-rolled DiskStats printing:
  // one snapshot covers the device, the pool, the planner, and the queries.
  obs::MetricsSnapshot snap = db.MetricsSnapshot();
  std::printf("\nSimulated I/O so far: reads=%.0f writes=%.0f seeks=%.0f "
              "seek_ms=%.2f opens=%.0f sim=%.2f ms\n",
              snap.SumOf("upi_disk_reads_total"),
              snap.SumOf("upi_disk_writes_total"),
              snap.SumOf("upi_disk_seeks_total"),
              snap.SumOf("upi_disk_seek_ms_total"),
              snap.SumOf("upi_disk_file_opens_total"),
              snap.SumOf("upi_disk_sim_ms_total"));
  std::printf("Engine counters: queries=%.0f plans=%.0f pool_hits=%.0f "
              "pool_misses=%.0f\n",
              snap.SumOf("upi_query_executions_total"),
              snap.SumOf("upi_planner_plans_total"),
              snap.SumOf("upi_bufferpool_hits_total"),
              snap.SumOf("upi_bufferpool_misses_total"));
  return 0;
}
