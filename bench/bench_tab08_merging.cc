// Table 8: Merging cost — three successive merge rounds; each round adds
// five update batches (+10% inserts, -1% deletes each) and then merges all
// fractures. Expected shape: merge time ~ sequential read + write of the
// whole database (the Section 6.2 Costmerge), growing with DB size.
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(false);

  storage::DbEnv env(32ull << 20, DeviceFromFlags());
  std::unique_ptr<core::FracturedUpi> fractured =
      core::FracturedUpi::Build(&env, "author",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(0.1), {}, d.authors)
          .ValueOrDie();
  catalog::TupleId next_id = d.cfg.num_authors + 1;
  std::unordered_map<catalog::TupleId, catalog::Tuple> live;
  for (const auto& t : d.authors) live.emplace(t.id(), t);
  Rng rng(d.cfg.seed + 3);

  PrintTitle("Table 8: Merging cost");
  std::printf("%-3s %12s %14s %14s %9s\n", "#", "Time[s]", "DBsize[MB]",
              "model[s]", "Nfrac");

  for (int round = 1; round <= 3; ++round) {
    for (int batch = 0; batch < 5; ++batch) {
      size_t deletes = live.size() / 100;
      size_t done = 0;
      for (auto it = live.begin(); it != live.end() && done < deletes;) {
        if (rng.Bernoulli(0.02)) {
          CheckOk(fractured->Delete(it->first));
          it = live.erase(it);
          ++done;
        } else {
          ++it;
        }
      }
      for (size_t i = 0; i < d.authors.size() / 10; ++i) {
        catalog::Tuple t = d.gen->MakeAuthor(next_id++);
        CheckOk(fractured->Insert(t));
        live.emplace(t.id(), t);
      }
      CheckOk(fractured->FlushBuffer());
    }
    size_t nfrac = fractured->num_fractures();
    core::CostModel model(env.profile(), core::TableStats::Of(*fractured));
    double model_s = model.MergeMs() / 1000.0;
    QueryCost merge = RunMaintenance(&env, [&]() -> size_t {
      CheckOk(fractured->MergeAll());
      return 1;
    });
    std::printf("%-3d %12.1f %14.1f %14.1f %9zu\n", round,
                merge.sim_ms / 1000.0,
                static_cast<double>(fractured->size_bytes()) /
                    (1024.0 * 1024.0),
                model_s, nfrac);
  }
  return 0;
}
