// Ablation: the Section 3.2 tuning knob — "limit the number of pointers
// stored in each secondary index entry. Though the query performance
// gradually degenerates to the normal secondary index access with a tighter
// limit, such a limit can lower storage consumption."
//
// Sweeps max_secondary_pointers and reports secondary-index size vs Query 3
// runtime under tailored access.
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(/*with_publications=*/true);
  const double qt = 0.3;

  PrintTitle(
      "Ablation: secondary-index pointer limit (Query 3, tailored access, "
      "QT=0.3)");
  std::printf("# publications=%zu  country=%s\n", d.publications.size(),
              d.mid_country.c_str());
  std::printf("%-8s %14s %16s %7s\n", "limit", "sec size[MB]", "tailored[s]",
              "rows");
  for (int limit : {1, 2, 3, 5, 10}) {
    storage::DbEnv env(32ull << 20, DeviceFromFlags());
    core::UpiOptions opt = PublicationUpiOptions(0.1);
    opt.max_secondary_pointers = limit;
    auto upi = core::Upi::Build(&env, "pub",
                                datagen::DblpGenerator::PublicationSchema(), opt,
                                {datagen::PublicationCols::kCountry},
                                d.publications)
                   .ValueOrDie();
    QueryCost cost = RunCold(&env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(upi->OpenSecondary(datagen::PublicationCols::kCountry,
                                 d.mid_country, qt,
                                 core::SecondaryAccessMode::kTailored)
                  ->Drain(&out));
      return out.size();
    });
    double sec_mb =
        static_cast<double>(
            upi->secondary(datagen::PublicationCols::kCountry)->size_bytes()) /
        (1024.0 * 1024.0);
    std::printf("%-8d %14.2f %16.3f %7zu\n", limit, sec_mb,
                cost.sim_ms / 1000.0, cost.rows);
  }
  return 0;
}
