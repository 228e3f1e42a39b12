// Ablation: partial vs. full merging (Section 4.3: "One option is to only
// merge a few fractures at a time. Still, the DBA has to carefully decide how
// often to merge, trading off the merging cost with the expected query
// speedup.")
//
// Accumulates 8 delta fractures, then compares: no merge, partial merge of
// the 4 oldest deltas, a full merge, and the MaintenanceManager's cost-model
// policy deciding for itself (synchronous mode; it may chain several partial
// merges until the predicted fracture tax drops below its threshold) —
// reporting merge cost and the resulting Q1 runtime.
#include "bench_util.h"
#include "maintenance/manager.h"

using namespace upi;
using namespace upi::bench;

namespace {

std::unique_ptr<core::FracturedUpi> BuildWithDeltas(storage::DbEnv* env,
                                                    const DblpData& d,
                                                    int deltas) {
  std::unique_ptr<core::FracturedUpi> fractured =
      core::FracturedUpi::Build(env, "author",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(0.1), {}, d.authors)
          .ValueOrDie();
  datagen::DblpGenerator gen(d.cfg);  // same seed: identical deltas every run
  (void)gen.GenerateAuthors();        // advance past the base tuples
  catalog::TupleId next_id = d.cfg.num_authors + 1;
  for (int b = 0; b < deltas; ++b) {
    for (size_t i = 0; i < d.authors.size() / 20; ++i) {
      CheckOk(fractured->Insert(gen.MakeAuthor(next_id++)));
    }
    CheckOk(fractured->FlushBuffer());
  }
  return fractured;
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(false);
  const double qt = 0.1;

  PrintTitle("Ablation: partial vs full merge (8 delta fractures)");
  std::printf("%-14s %12s %9s %12s\n", "strategy", "merge[s]", "Nfrac",
              "Q1[s]");

  for (const char* strategy : {"none", "partial4", "full", "policy"}) {
    storage::DbEnv env(32ull << 20, DeviceFromFlags());
    std::unique_ptr<core::FracturedUpi> fractured =
        BuildWithDeltas(&env, d, 8);
    QueryCost merge_cost{};
    if (std::string(strategy) == "partial4") {
      merge_cost = RunMaintenance(&env, [&]() -> size_t {
        CheckOk(fractured->MergeOldestFractures(4));
        return 1;
      });
    } else if (std::string(strategy) == "full") {
      merge_cost = RunMaintenance(&env, [&]() -> size_t {
        CheckOk(fractured->MergeAll());
        return 1;
      });
    } else if (std::string(strategy) == "policy") {
      maintenance::MaintenanceManagerOptions mopt;
      mopt.num_workers = 0;
      mopt.policy.reference_value = d.popular_institution;
      mopt.policy.reference_qt = qt;
      maintenance::MaintenanceManager mgr(&env, mopt);
      mgr.Register(fractured.get());
      merge_cost = RunMaintenance(&env, [&]() -> size_t {
        // An (empty) forced flush kicks the policy re-check; follow-up
        // merges chain until the model is satisfied.
        mgr.ScheduleFlush(fractured.get());
        return mgr.RunPending();
      });
      CheckOk(mgr.last_error());
    }
    QueryCost q = RunCold(&env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(fractured->OpenPtq(d.popular_institution, qt)->Drain(&out));
      return out.size();
    });
    std::printf("%-14s %12.1f %9zu %12.3f\n", strategy,
                merge_cost.sim_ms / 1000.0, fractured->num_fractures(),
                q.sim_ms / 1000.0);
  }
  return 0;
}
