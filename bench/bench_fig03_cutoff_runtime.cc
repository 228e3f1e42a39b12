// Figure 3: Cutoff Index real runtime.
//
// Query 1 (SELECT * FROM Author WHERE Institution = v, confidence >= QT) for
// a non-selective value (the dataset's "MIT") and a selective one (~300
// matches), with QT in {0.05, 0.15, 0.25} and the cutoff threshold C swept
// over [0, 0.5]. Expected shape (paper Section 6.3):
//  * QT >= C: fast, pure sequential heap scan;
//  * QT <  C: slower — cutoff-pointer chasing;
//  * non-selective query saturates: for large C the three QT curves converge
//    (the sorted pointer sweep touches nearly every page either way);
//  * selective query does not saturate.
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(/*with_publications=*/false);
  const std::vector<double> cutoffs = {0.0,  0.05, 0.1, 0.15, 0.2, 0.25,
                                       0.3,  0.35, 0.4, 0.45, 0.5};
  const std::vector<double> qts = {0.05, 0.15, 0.25};

  PrintTitle("Figure 3: Cutoff Index real runtime (Query 1), simulated seconds");
  std::printf("# authors=%zu  non-selective=%s  selective=%s\n",
              d.authors.size(), d.popular_institution.c_str(),
              d.selective_institution.c_str());
  std::printf("%-6s %-10s", "C", "query");
  for (double qt : qts) std::printf(" QT=%-11.2f", qt);
  std::printf("\n");

  for (double c : cutoffs) {
    storage::DbEnv env(32ull << 20, DeviceFromFlags());
    core::UpiOptions opt = AuthorUpiOptions(c);
    // Figure 3 validates the Cost_cut model, whose 2*(Costinit + H*Tseek)
    // term includes per-query opens of the heap and cutoff files; charge
    // them here so Figure 12's estimates are directly comparable.
    opt.charge_open_per_query = true;
    auto upi = core::Upi::Build(&env, "author",
                                datagen::DblpGenerator::AuthorSchema(), opt, {},
                                d.authors)
                   .ValueOrDie();
    for (const auto& [label, value] :
         {std::pair<const char*, std::string>{"nonsel", d.popular_institution},
          {"select", d.selective_institution}}) {
      std::printf("%-6.2f %-10s", c, label);
      for (double qt : qts) {
        QueryCost cost = RunCold(&env, [&]() -> size_t {
          std::vector<core::PtqMatch> out;
          CheckOk(upi->OpenPtq(value, qt)->Drain(&out));
          return out.size();
        });
        std::printf(" %7.3fs/%4zu", cost.sim_ms / 1000.0, cost.rows);
      }
      std::printf("\n");
    }
    // Per-device totals via the engine's metrics snapshot; opt-in so default
    // rows stay bit-identical.
    if (flags::GetBool("metrics", false)) {
      obs::MetricsSnapshot snap = env.metrics()->Snapshot();
      std::printf("# metrics C=%.2f: reads=%.0f seeks=%.0f seek_ms=%.1f "
                  "opens=%.0f sim_ms=%.1f\n",
                  c, snap.SumOf("upi_disk_reads_total"),
                  snap.SumOf("upi_disk_seeks_total"),
                  snap.SumOf("upi_disk_seek_ms_total"),
                  snap.SumOf("upi_disk_file_opens_total"),
                  snap.SumOf("upi_disk_sim_ms_total"));
    }
  }
  return 0;
}
