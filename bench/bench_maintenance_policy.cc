// Maintenance policy sweep: what the paper leaves to the DBA ("the DBA has
// to carefully decide how often to merge, trading off the merging cost with
// the expected query speedup", Section 4.3), decided by the cost model.
//
// A mixed workload — rounds of inserts (watermark-flushed by the
// MaintenanceManager in synchronous mode) interleaved with cold PTQs — runs
// under several merge policies:
//
//   never-merge   flushes only; the per-query fracture tax
//                 Nfrac * (Costinit + H*Tseek) grows linearly all run
//   every-flush   full MergeAll after every flush: queries always see one
//                 fracture, but each merge rereads and rewrites the database
//   model@f/d     the cost-model policy: partial merge when the fracture tax
//                 exceeds fraction f of predicted query cost, full merge past
//                 deterioration d
//
// Expected shape (the Figure 9 / Table 8 trade-off): both extremes lose —
// never-merge on query tax, every-flush on merge I/O — and a cost-model
// setting in between wins total simulated time.
#include "bench_util.h"
#include "maintenance/manager.h"

using namespace upi;
using namespace upi::bench;

namespace {

struct RunResult {
  double total_ms = 0;
  double query_ms = 0;
  double flush_ms = 0;
  double merge_ms = 0;
  uint64_t flushes = 0;
  uint64_t partials = 0;
  uint64_t fulls = 0;
  size_t final_nfrac = 0;
  size_t rows = 0;  // sanity: identical across policies
};

RunResult RunWorkload(const DblpData& d, maintenance::MergePolicyOptions policy,
                      int rounds, int queries_per_round) {
  storage::DbEnv env(32ull << 20, DeviceFromFlags());
  std::unique_ptr<core::FracturedUpi> fractured =
      core::FracturedUpi::Build(&env, "author",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(0.1), {}, d.authors)
          .ValueOrDie();

  maintenance::MaintenanceManagerOptions mopt;
  mopt.num_workers = 0;  // synchronous: simulated time stays deterministic
  mopt.policy = policy;
  maintenance::MaintenanceManager mgr(&env, mopt);
  mgr.Register(fractured.get());

  datagen::DblpGenerator gen(d.cfg);  // same seed: identical insert stream
  (void)gen.GenerateAuthors();
  catalog::TupleId next_id = d.cfg.num_authors + 1;
  const size_t batch = d.authors.size() / 20;
  const double qt = 0.1;

  RunResult r;
  sim::StatsWindow total(env.disk());
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < batch; ++i) {
      CheckOk(fractured->Insert(gen.MakeAuthor(next_id++)));
      mgr.NotifyWrite(fractured.get());
      mgr.RunPending();
    }
    for (int q = 0; q < queries_per_round; ++q) {
      const std::string& value =
          q % 2 == 0 ? d.popular_institution : d.selective_institution;
      QueryCost cost = RunCold(&env, [&]() -> size_t {
        std::vector<core::PtqMatch> out;
        CheckOk(fractured->OpenPtq(value, qt)->Drain(&out));
        return out.size();
      });
      r.query_ms += cost.sim_ms;
      r.rows += cost.rows;
    }
  }
  CheckOk(mgr.last_error());
  r.total_ms = total.ElapsedMs();
  maintenance::MaintenanceStats stats = mgr.stats();
  r.flush_ms = stats.flush_sim_ms;
  r.merge_ms = stats.merge_sim_ms;
  r.flushes = stats.flushes;
  r.partials = stats.partial_merges;
  r.fulls = stats.full_merges;
  r.final_nfrac = fractured->num_fractures();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(false);
  const int rounds = static_cast<int>(flags::GetInt64("rounds", 12));
  // Enough reads per round that repaying the fracture tax matters; drop
  // --queries toward 1 to see never-merge win (a write-mostly workload
  // genuinely shouldn't merge — that's the trade-off, not a policy failure).
  const int queries = static_cast<int>(flags::GetInt64("queries", 8));

  PrintTitle("Maintenance policy sweep: mixed insert/PTQ workload");
  std::printf("# %d rounds x (%zu inserts + %d cold PTQs); watermark flush at "
              "%zu buffered tuples\n",
              rounds, d.authors.size() / 20, queries, d.authors.size() / 25);
  std::printf("%-14s %9s %9s %9s %9s %5s %4s %4s %6s %8s\n", "policy",
              "total[s]", "query[s]", "flush[s]", "merge[s]", "flush", "pm",
              "fm", "Nfrac", "rows");

  auto base_policy = [&] {
    maintenance::MergePolicyOptions p;
    p.flush_max_buffered_tuples = d.authors.size() / 25;
    p.reference_value = d.popular_institution;
    p.reference_qt = 0.1;
    return p;
  };

  struct Config {
    std::string name;
    maintenance::MergePolicyOptions policy;
  };
  std::vector<Config> configs;
  {
    maintenance::MergePolicyOptions p = base_policy();
    p.merges_enabled = false;
    configs.push_back({"never-merge", p});
  }
  {
    maintenance::MergePolicyOptions p = base_policy();
    p.full_merge_deterioration = 0.0;  // any fracture: merge everything
    configs.push_back({"every-flush", p});
  }
  for (double fraction : {0.25, 0.5, 0.75}) {
    maintenance::MergePolicyOptions p = base_policy();
    p.partial_merge_overhead_fraction = fraction;
    p.full_merge_deterioration = 3.0;
    char name[32];
    std::snprintf(name, sizeof(name), "model@%.2f/3", fraction);
    configs.push_back({name, p});
  }

  double never_total = 0, every_total = 0, best_model = -1;
  std::string best_name;
  for (const Config& cfg : configs) {
    RunResult r = RunWorkload(d, cfg.policy, rounds, queries);
    std::printf("%-14s %9.1f %9.1f %9.1f %9.1f %5llu %4llu %4llu %6zu %8zu\n",
                cfg.name.c_str(), r.total_ms / 1000.0, r.query_ms / 1000.0,
                r.flush_ms / 1000.0, r.merge_ms / 1000.0,
                static_cast<unsigned long long>(r.flushes),
                static_cast<unsigned long long>(r.partials),
                static_cast<unsigned long long>(r.fulls), r.final_nfrac,
                r.rows);
    if (cfg.name == "never-merge") {
      never_total = r.total_ms;
    } else if (cfg.name == "every-flush") {
      every_total = r.total_ms;
    } else if (best_model < 0 || r.total_ms < best_model) {
      best_model = r.total_ms;
      best_name = cfg.name;
    }
  }
  bool wins = best_model < never_total && best_model < every_total;
  std::printf("# best cost-model setting: %s (%.1fs) vs never-merge %.1fs, "
              "every-flush %.1fs -> %s\n",
              best_name.c_str(), best_model / 1000.0, never_total / 1000.0,
              every_total / 1000.0,
              wins ? "policy wins both extremes" : "NO WIN (tune thresholds)");
  return wins ? 0 : 1;
}
