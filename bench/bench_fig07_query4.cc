// Figure 7: Query 4 runtime — the spatial range query
//   SELECT * FROM CarObservation WHERE Distance(location, p) <= Radius
// at QT = 0.5, radius swept 100..1000 m: continuous UPI vs secondary U-Tree.
// Expected shape: the continuous UPI wins by ~50-60x because qualifying
// tuples are co-located with the R-Tree leaf order (sequential 64 KB heap
// pages) while the U-Tree random-seeks an unclustered heap.
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  CartelData d = MakeCartel();

  storage::DbEnv ut_env(32ull << 20, DeviceFromFlags());
  auto table = baseline::UnclusteredTable::BuildHeap(
                   &ut_env, "cars",
                   datagen::CartelGenerator::CarObservationSchema(),
                   d.observations)
                   .ValueOrDie();
  auto utree = baseline::SecondaryUtree::Build(&ut_env, "cars", *table,
                                               datagen::CarObsCols::kLocation,
                                               d.observations)
                   .ValueOrDie();
  storage::DbEnv upi_env(32ull << 20, DeviceFromFlags());
  auto upi = core::ContinuousUpi::Build(
                 &upi_env, "cars",
                 datagen::CartelGenerator::CarObservationSchema(),
                 datagen::CarObsCols::kLocation, {}, d.observations)
                 .ValueOrDie();

  const int kCenters = 3;  // average over query centers, like repeated runs
  Rng rng(7);
  std::vector<prob::Point> centers;
  for (int i = 0; i < kCenters; ++i) centers.push_back(d.gen->RandomQueryCenter(&rng));

  PrintTitle("Figure 7: Query 4 runtime (simulated seconds), QT=0.5");
  std::printf("# observations=%zu, averaged over %d query centers\n",
              d.observations.size(), kCenters);
  std::printf("%-8s %12s %16s %9s %7s\n", "radius", "U-Tree[s]",
              "ContinuousUPI[s]", "speedup", "rows");
  for (double radius = 100; radius <= 1000.1; radius += 100) {
    double ut_ms = 0, upi_ms = 0;
    size_t rows = 0;
    for (const auto& c : centers) {
      QueryCost ut = RunCold(&ut_env, [&]() -> size_t {
        std::vector<core::PtqMatch> out;
        CheckOk(utree->QueryRange(*table, c, radius, 0.5, &out));
        return out.size();
      });
      QueryCost up = RunCold(&upi_env, [&]() -> size_t {
        std::vector<core::PtqMatch> out;
        CheckOk(upi->QueryRange(c, radius, 0.5, &out));
        return out.size();
      });
      ut_ms += ut.sim_ms;
      upi_ms += up.sim_ms;
      rows += up.rows;
    }
    ut_ms /= kCenters;
    upi_ms /= kCenters;
    std::printf("%-8.0f %12.3f %16.3f %8.1fx %7zu\n", radius, ut_ms / 1000.0,
                upi_ms / 1000.0, ut_ms / upi_ms, rows / kCenters);
  }
  return 0;
}
