// Figure 12: Cutoff-index cost model — estimated runtimes for exactly the
// Figure 3 settings (same C sweep, same QTs, same two query values), using
// Cost_cut with the sigmoid pointer-saturation term (Section 6.3).
// Run next to bench_fig03_cutoff_runtime with identical flags; the two
// tables should track each other (bench/golden/fig03_cutoff_runtime.txt and
// bench/golden/fig12_costmodel_cutoff.txt hold both at --scale=0.1).
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(false);
  const std::vector<double> cutoffs = {0.0,  0.05, 0.1, 0.15, 0.2, 0.25,
                                       0.3,  0.35, 0.4, 0.45, 0.5};
  const std::vector<double> qts = {0.05, 0.15, 0.25};

  PrintTitle(
      "Figure 12: Cutoff cost model estimates (Query 1), simulated seconds");
  std::printf("# authors=%zu  non-selective=%s  selective=%s\n",
              d.authors.size(), d.popular_institution.c_str(),
              d.selective_institution.c_str());
  std::printf("%-6s %-10s", "C", "query");
  for (double qt : qts) std::printf(" QT=%-8.2f", qt);
  std::printf("\n");

  for (double c : cutoffs) {
    storage::DbEnv env(32ull << 20, DeviceFromFlags());
    auto upi = core::Upi::Build(&env, "author",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(c), {}, d.authors)
                   .ValueOrDie();
    core::CostModel model(env.profile(), core::TableStats::Of(*upi));
    for (const auto& [label, value] :
         {std::pair<const char*, std::string>{"nonsel", d.popular_institution},
          {"select", d.selective_institution}}) {
      std::printf("%-6.2f %-10s", c, label);
      for (double qt : qts) {
        histogram::PtqEstimate est = upi->EstimatePtq(value, qt);
        double ms;
        if (qt < c) {
          ms = model.CutoffQueryMs(est.selectivity, est.cutoff_pointers);
        } else {
          ms = model.CostScanMs() * est.selectivity + model.LookupOverheadMs();
        }
        std::printf(" %8.3fs  ", ms / 1000.0);
      }
      std::printf("\n");
    }
  }
  return 0;
}
