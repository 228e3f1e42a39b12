// Table 7: Maintenance cost — "we randomly delete 1% of the tuples from the
// DBLP Author table and randomly insert new tuples equal to 10% of the
// existing tuples", on an unclustered table, a UPI, and a Fractured UPI.
// Expected shape: UPI far worse on both (random B+Tree I/O); Fractured UPI
// cheapest, with deletions nearly free (delete-set append).
//
// The fractured leg runs under the MaintenanceManager in synchronous mode:
// writers call NotifyWrite after each insert/delete, watermark flushes fire
// through RunPending (deterministic, no threads), and a final ScheduleFlush
// drains the tail — the paper's "flushed at the end" protocol, automated.
#include "bench_util.h"
#include "maintenance/manager.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(false);
  const double cutoff = 0.1;

  storage::DbEnv heap_env(32ull << 20, DeviceFromFlags());
  storage::DbEnv upi_env(32ull << 20, DeviceFromFlags());
  storage::DbEnv frac_env(32ull << 20, DeviceFromFlags());
  auto table = baseline::UnclusteredTable::Build(
                   &heap_env, "author", datagen::DblpGenerator::AuthorSchema(),
                   datagen::AuthorCols::kInstitution,
                   {datagen::AuthorCols::kInstitution}, d.authors)
                   .ValueOrDie();
  auto upi = core::Upi::Build(&upi_env, "author",
                              datagen::DblpGenerator::AuthorSchema(),
                              AuthorUpiOptions(cutoff), {}, d.authors)
                 .ValueOrDie();
  std::unique_ptr<core::FracturedUpi> fractured =
      core::FracturedUpi::Build(&frac_env, "author",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(cutoff), {}, d.authors)
          .ValueOrDie();

  // Shared workload.
  Rng rng(d.cfg.seed + 7);
  std::vector<catalog::Tuple> victims;
  size_t delete_count = d.authors.size() / 100;
  for (const auto& t : d.authors) {
    if (victims.size() >= delete_count) break;
    if (rng.Bernoulli(0.02)) victims.push_back(t);
  }
  std::vector<catalog::Tuple> inserts;
  catalog::TupleId next_id = d.cfg.num_authors + 1;
  for (size_t i = 0; i < d.authors.size() / 10; ++i) {
    inserts.push_back(d.gen->MakeAuthor(next_id++));
  }

  PrintTitle("Table 7: Maintenance cost (simulated seconds)");
  std::printf("# authors=%zu: insert %zu tuples (10%%), delete %zu (1%%)\n",
              d.authors.size(), inserts.size(), victims.size());
  std::printf("%-15s %12s %12s\n", "system", "Insert[s]", "Delete[s]");

  {
    QueryCost ins = RunMaintenance(&heap_env, [&]() -> size_t {
      for (const auto& t : inserts) CheckOk(table->Insert(t));
      return inserts.size();
    });
    QueryCost del = RunMaintenance(&heap_env, [&]() -> size_t {
      for (const auto& t : victims) CheckOk(table->Delete(t.id()));
      return victims.size();
    });
    std::printf("%-15s %12.1f %12.2f\n", "Unclustered", ins.sim_ms / 1000.0,
                del.sim_ms / 1000.0);
  }
  {
    QueryCost ins = RunMaintenance(&upi_env, [&]() -> size_t {
      for (const auto& t : inserts) CheckOk(upi->Insert(t));
      return inserts.size();
    });
    QueryCost del = RunMaintenance(&upi_env, [&]() -> size_t {
      for (const auto& t : victims) CheckOk(upi->Delete(t));
      return victims.size();
    });
    std::printf("%-15s %12.1f %12.2f\n", "UPI", ins.sim_ms / 1000.0,
                del.sim_ms / 1000.0);
  }
  {
    maintenance::MaintenanceManagerOptions mopt;
    mopt.num_workers = 0;  // synchronous: RunPending keeps sim time exact
    // A quarter of the batch per fracture: the manager flushes mid-stream
    // (watermark) instead of the paper's single hand-rolled flush at the end;
    // merging is left off so the measured cost is pure maintenance I/O.
    mopt.policy.flush_max_buffered_tuples = inserts.size() / 4 + 1;
    mopt.policy.merges_enabled = false;
    maintenance::MaintenanceManager mgr(&frac_env, mopt);
    mgr.Register(fractured.get());

    QueryCost ins = RunMaintenance(&frac_env, [&]() -> size_t {
      for (const auto& t : inserts) {
        CheckOk(fractured->Insert(t));
        mgr.NotifyWrite(fractured.get());
        mgr.RunPending();
      }
      mgr.ScheduleFlush(fractured.get());  // drain the tail
      mgr.RunPending();
      return inserts.size();
    });
    QueryCost del = RunMaintenance(&frac_env, [&]() -> size_t {
      for (const auto& t : victims) {
        CheckOk(fractured->Delete(t.id()));
        mgr.NotifyWrite(fractured.get());
        mgr.RunPending();
      }
      mgr.ScheduleFlush(fractured.get());
      mgr.RunPending();
      return victims.size();
    });
    CheckOk(mgr.last_error());
    std::printf("%-15s %12.1f %12.2f\n", "Fractured UPI", ins.sim_ms / 1000.0,
                del.sim_ms / 1000.0);
    std::printf("# maintenance manager: %llu flushes, %.1fs simulated flush "
                "time, %zu fractures\n",
                static_cast<unsigned long long>(mgr.stats().flushes),
                mgr.stats().flush_sim_ms / 1000.0, fractured->num_fractures());
  }
  return 0;
}
