// Figure 10: Fractured UPI runtime, real vs. cost-model estimate, over 30
// insert batches with a merge after every 10 — the Section 6.2 validation.
// Expected shape: runtime climbs linearly with the fracture count, drops back
// after each merge, and the model tracks the measured curve.
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(false);
  const double qt = 0.1, cutoff = 0.1;
  const int batches = static_cast<int>(flags::GetInt64("batches", 30));
  const int merge_every = static_cast<int>(flags::GetInt64("merge_every", 10));

  storage::DbEnv env(32ull << 20, DeviceFromFlags());
  std::unique_ptr<core::FracturedUpi> fractured =
      core::FracturedUpi::Build(&env, "author",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(cutoff), {}, d.authors)
          .ValueOrDie();
  catalog::TupleId next_id = d.cfg.num_authors + 1;
  // Batches are 10% of the *original* table so 30 batches are tractable.
  const size_t insert_per_batch = d.authors.size() / 10;

  PrintTitle(
      "Figure 10: Fractured UPI — real vs estimated Q1 runtime (simulated "
      "seconds), merge every 10 batches");
  std::printf("# authors=%zu  value=%s  QT=C=0.1\n", d.authors.size(),
              d.popular_institution.c_str());
  std::printf("%-7s %9s %12s %7s %7s\n", "batch", "real[s]", "estimated[s]",
              "Nfrac", "event");

  auto measure = [&](int batch, const char* event) {
    QueryCost real = RunCold(&env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(fractured->OpenPtq(d.popular_institution, qt)->Drain(&out));
      return out.size();
    });
    core::CostModel model(env.profile(), core::TableStats::Of(*fractured));
    double est_ms = model.FracturedQueryMs(
        fractured->EstimateSelectivity(d.popular_institution, qt));
    std::printf("%-7d %9.3f %12.3f %7zu %7s\n", batch, real.sim_ms / 1000.0,
                est_ms / 1000.0, fractured->num_fractures(), event);
  };

  measure(0, "");
  for (int batch = 1; batch <= batches; ++batch) {
    for (size_t i = 0; i < insert_per_batch; ++i) {
      CheckOk(fractured->Insert(d.gen->MakeAuthor(next_id++)));
    }
    CheckOk(fractured->FlushBuffer());
    const char* event = "";
    if (batch % merge_every == 0) {
      CheckOk(fractured->MergeAll());
      event = "merge";
    }
    measure(batch, event);
  }
  return 0;
}
