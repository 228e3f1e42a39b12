// Figure 5: Query 2 runtime — the analytical aggregate
//   SELECT Journal, COUNT(*) FROM Publication
//   WHERE Institution = <popular> GROUP BY Journal, confidence >= QT
// PII vs UPI on the Publication table, C = 0.1.
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(/*with_publications=*/true);

  storage::DbEnv pii_env(32ull << 20, DeviceFromFlags());
  auto table = baseline::UnclusteredTable::Build(
                   &pii_env, "pub", datagen::DblpGenerator::PublicationSchema(),
                   datagen::PublicationCols::kInstitution,
                   {datagen::PublicationCols::kInstitution}, d.publications)
                   .ValueOrDie();
  storage::DbEnv upi_env(32ull << 20, DeviceFromFlags());
  auto upi = core::Upi::Build(&upi_env, "pub",
                              datagen::DblpGenerator::PublicationSchema(),
                              PublicationUpiOptions(0.1), {}, d.publications)
                 .ValueOrDie();

  PrintTitle("Figure 5: Query 2 runtime (simulated seconds), C=0.1");
  std::printf("# publications=%zu  value=%s\n", d.publications.size(),
              d.popular_institution.c_str());
  std::printf("%-6s %12s %12s %9s %7s %8s\n", "QT", "PII[s]", "UPI[s]",
              "speedup", "rows", "groups");
  for (double qt = 0.1; qt <= 0.91; qt += 0.1) {
    size_t groups = 0;
    QueryCost pii = RunCold(&pii_env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(table->OpenPii(datagen::PublicationCols::kInstitution,
                             d.popular_institution, qt)
                  ->Drain(&out));
      groups = exec::GroupByCount(out, datagen::PublicationCols::kJournal).size();
      return out.size();
    });
    QueryCost upic = RunCold(&upi_env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(upi->OpenPtq(d.popular_institution, qt)->Drain(&out));
      groups = exec::GroupByCount(out, datagen::PublicationCols::kJournal).size();
      return out.size();
    });
    std::printf("%-6.1f %12.3f %12.3f %8.1fx %7zu %8zu\n", qt,
                pii.sim_ms / 1000.0, upic.sim_ms / 1000.0,
                pii.sim_ms / upic.sim_ms, upic.rows, groups);
  }
  return 0;
}
