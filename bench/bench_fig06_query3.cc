// Figure 6: Query 3 runtime — the secondary-index aggregate
//   SELECT Journal, COUNT(*) FROM Publication
//   WHERE Country = <mid country> GROUP BY Journal, confidence >= QT
// comparing (a) PII on an unclustered heap, (b) the UPI's secondary index
// without tailored access (always first pointer), and (c) with tailored
// access (Algorithm 3). Expected shape: tailored access wins by up to ~7x
// over non-tailored and ~8x over PII; non-tailored can even lose to the
// unclustered baseline because it ignores pointer overlap.
//
// Tables are built and queried through the engine's Database facade;
// --json=<path> captures the rows for perf tracking.
#include "bench_util.h"
#include "engine/database.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(/*with_publications=*/true);
  JsonWriter json("fig06_query3");

  engine::DatabaseOptions dbopts;
  dbopts.device = DeviceFromFlags();
  engine::Database pii_db(dbopts);
  engine::Table* table =
      pii_db
          .CreateUnclusteredTable("pub",
                                  datagen::DblpGenerator::PublicationSchema(),
                                  datagen::PublicationCols::kCountry,
                                  {datagen::PublicationCols::kCountry},
                                  d.publications)
          .ValueOrDie();
  engine::Database upi_db(dbopts);
  engine::Table* upi =
      upi_db
          .CreateUpiTable("pub", datagen::DblpGenerator::PublicationSchema(),
                          PublicationUpiOptions(0.1),
                          {datagen::PublicationCols::kCountry}, d.publications)
          .ValueOrDie();

  PrintTitle(
      "Figure 6: Query 3 runtime (simulated seconds) via secondary index on "
      "Country");
  std::printf("# publications=%zu  country=%s\n", d.publications.size(),
              d.mid_country.c_str());
  std::printf("%-6s %14s %14s %14s %7s\n", "QT", "PII-on-heap[s]",
              "UPI-plain[s]", "UPI-tailored[s]", "rows");
  char config[64];
  for (double qt = 0.1; qt <= 0.91; qt += 0.1) {
    QueryCost pii = RunCold(pii_db.env(), [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(table->path()->OpenPtq(d.mid_country, qt)->Drain(&out));
      return out.size();
    });
    QueryCost plain = RunCold(upi_db.env(), [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(upi->path()
                  ->OpenSecondary(datagen::PublicationCols::kCountry,
                                  d.mid_country, qt,
                                  core::SecondaryAccessMode::kFirstPointer)
                  ->Drain(&out));
      return out.size();
    });
    QueryCost tailored = RunCold(upi_db.env(), [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(upi->path()
                  ->OpenSecondary(datagen::PublicationCols::kCountry,
                                  d.mid_country, qt,
                                  core::SecondaryAccessMode::kTailored)
                  ->Drain(&out));
      return out.size();
    });
    std::printf("%-6.1f %14.3f %14.3f %14.3f %7zu\n", qt, pii.sim_ms / 1000.0,
                plain.sim_ms / 1000.0, tailored.sim_ms / 1000.0, tailored.rows);
    std::snprintf(config, sizeof(config), "pii qt=%.1f", qt);
    json.AddRow(config, pii);
    std::snprintf(config, sizeof(config), "upi-plain qt=%.1f", qt);
    json.AddRow(config, plain);
    std::snprintf(config, sizeof(config), "upi-tailored qt=%.1f", qt);
    json.AddRow(config, tailored);
  }
  return 0;
}
