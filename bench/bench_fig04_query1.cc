// Figure 4: Query 1 runtime, PII vs UPI, QT swept 0.1..0.9, C = 0.1.
//
// Expected shape: both get faster as QT rises (less data); the UPI is
// 20-100x faster because it answers with one seek plus a sequential scan
// while PII random-seeks the heap per qualifying tuple.
//
// Both tables are built and queried through the engine's Database facade
// (separate databases so each side keeps its own cold cache, as the paper's
// per-design measurements do).
#include "bench_util.h"
#include "engine/database.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(false);

  engine::DatabaseOptions dbopts;
  dbopts.device = DeviceFromFlags();
  engine::Database pii_db(dbopts);
  engine::Table* table =
      pii_db
          .CreateUnclusteredTable("author",
                                  datagen::DblpGenerator::AuthorSchema(),
                                  datagen::AuthorCols::kInstitution,
                                  {datagen::AuthorCols::kInstitution}, d.authors)
          .ValueOrDie();
  engine::Database upi_db(dbopts);
  engine::Table* upi =
      upi_db
          .CreateUpiTable("author", datagen::DblpGenerator::AuthorSchema(),
                          AuthorUpiOptions(0.1), {}, d.authors)
          .ValueOrDie();

  PrintTitle("Figure 4: Query 1 runtime (simulated seconds), C=0.1");
  std::printf("# authors=%zu  value=%s\n", d.authors.size(),
              d.popular_institution.c_str());
  std::printf("%-6s %12s %12s %9s %6s %12s\n", "QT", "PII[s]", "UPI[s]",
              "speedup", "rows", "wall(UPI)ms");
  for (double qt = 0.1; qt <= 0.91; qt += 0.1) {
    QueryCost pii = RunCold(pii_db.env(), [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(table->path()->OpenPtq(d.popular_institution, qt)->Drain(&out));
      return out.size();
    });
    QueryCost upic = RunCold(upi_db.env(), [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(upi->path()->OpenPtq(d.popular_institution, qt)->Drain(&out));
      return out.size();
    });
    std::printf("%-6.1f %12.3f %12.3f %8.1fx %6zu %12.1f\n", qt,
                pii.sim_ms / 1000.0, upic.sim_ms / 1000.0,
                pii.sim_ms / upic.sim_ms, upic.rows, upic.wall_ms);
  }
  // Per-side device totals via the engine's metrics snapshot; opt-in so
  // default rows stay bit-identical.
  if (flags::GetBool("metrics", false)) {
    for (const auto& [label, dbp] :
         {std::pair<const char*, engine::Database*>{"pii", &pii_db},
          {"upi", &upi_db}}) {
      obs::MetricsSnapshot snap = dbp->MetricsSnapshot();
      std::printf("# metrics %s: reads=%.0f seeks=%.0f seek_ms=%.1f "
                  "opens=%.0f sim_ms=%.1f\n",
                  label, snap.SumOf("upi_disk_reads_total"),
                  snap.SumOf("upi_disk_seeks_total"),
                  snap.SumOf("upi_disk_seek_ms_total"),
                  snap.SumOf("upi_disk_file_opens_total"),
                  snap.SumOf("upi_disk_sim_ms_total"));
    }
  }
  return 0;
}
