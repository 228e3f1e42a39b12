// Figure 8: Query 5 runtime — the secondary attribute query
//   SELECT * FROM CarObservation WHERE Segment = <segment>, conf >= QT
// comparing a secondary index over the continuous UPI against PII on an
// unclustered heap, QT swept 0.1..0.8. Expected shape: big gap (up to ~180x
// in the paper) below QT=0.5 thanks to location/segment correlation — the
// UPI's heap pointers for one segment land on few neighboring 64 KB pages;
// smaller but still large gap for selective thresholds.
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  CartelData d = MakeCartel();

  storage::DbEnv pii_env(32ull << 20, DeviceFromFlags());
  auto table = baseline::UnclusteredTable::Build(
                   &pii_env, "cars",
                   datagen::CartelGenerator::CarObservationSchema(),
                   datagen::CarObsCols::kSegment,
                   {datagen::CarObsCols::kSegment}, d.observations)
                   .ValueOrDie();
  storage::DbEnv upi_env(32ull << 20, DeviceFromFlags());
  auto upi = core::ContinuousUpi::Build(
                 &upi_env, "cars",
                 datagen::CartelGenerator::CarObservationSchema(),
                 datagen::CarObsCols::kLocation,
                 {datagen::CarObsCols::kSegment}, d.observations)
                 .ValueOrDie();

  std::string segment = d.gen->MidSegment();
  PrintTitle("Figure 8: Query 5 runtime (simulated seconds)");
  std::printf("# observations=%zu  segment=%s\n", d.observations.size(),
              segment.c_str());
  std::printf("%-6s %18s %22s %9s %6s\n", "QT", "PII-on-heap[s]",
              "PII-on-ContinuousUPI[s]", "speedup", "rows");
  for (double qt = 0.1; qt <= 0.81; qt += 0.1) {
    QueryCost pii = RunCold(&pii_env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(table->OpenPii(datagen::CarObsCols::kSegment, segment, qt)
                  ->Drain(&out));
      return out.size();
    });
    QueryCost up = RunCold(&upi_env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(upi->QueryBySecondary(datagen::CarObsCols::kSegment, segment, qt,
                                    &out));
      return out.size();
    });
    std::printf("%-6.1f %18.3f %22.3f %8.1fx %6zu\n", qt, pii.sim_ms / 1000.0,
                up.sim_ms / 1000.0, pii.sim_ms / up.sim_ms, up.rows);
  }
  return 0;
}
