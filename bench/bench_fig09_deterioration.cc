// Figure 9: Query 1 (C = QT = 0.1) deterioration under update batches.
//
// Each batch randomly deletes 1% of live tuples and inserts new tuples equal
// to 10% of the *original* table, applied identically to three systems:
// an unclustered heap (+PII), a non-fractured UPI (in-place B+Tree updates),
// and a Fractured UPI (one fracture per batch). Expected shape after 10
// batches (paper): unclustered ~4x slower, UPI ~40x (fragmentation), and
// Fractured UPI ~9x (per-fracture overhead) — but the fractured curve starts
// and stays far below the others.
#include "bench_util.h"

using namespace upi;
using namespace upi::bench;

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  DblpData d = MakeDblp(false);
  const double qt = 0.1, cutoff = 0.1;
  const int batches = static_cast<int>(flags::GetInt64("batches", 10));

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

  std::unordered_map<catalog::TupleId, catalog::Tuple> live;
  for (const auto& t : d.authors) live.emplace(t.id(), t);
  catalog::TupleId next_id = d.cfg.num_authors + 1;
  Rng rng(d.cfg.seed + 1);

  auto measure = [&](int batch) {
    QueryCost h = RunCold(&heap_env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(table->OpenPii(datagen::AuthorCols::kInstitution,
                             d.popular_institution, qt)
                  ->Drain(&out));
      return out.size();
    });
    QueryCost u = RunCold(&upi_env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(upi->OpenPtq(d.popular_institution, qt)->Drain(&out));
      return out.size();
    });
    QueryCost f = RunCold(&frac_env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(fractured->OpenPtq(d.popular_institution, qt)->Drain(&out));
      return out.size();
    });
    std::printf("%-7d %15.3f %10.3f %14.3f %7zu\n", batch, h.sim_ms / 1000.0,
                u.sim_ms / 1000.0, f.sim_ms / 1000.0, f.rows);
  };

  PrintTitle(
      "Figure 9: Q1 (C=QT=0.1) runtime deterioration over update batches "
      "(simulated seconds)");
  std::printf("# authors=%zu  value=%s  batch = +10%% inserts, -1%% deletes\n",
              d.authors.size(), d.popular_institution.c_str());
  std::printf("%-7s %15s %10s %14s %7s\n", "batch", "Unclustered[s]", "UPI[s]",
              "FracturedUPI[s]", "rows");
  measure(0);

  const size_t insert_per_batch = d.authors.size() / 10;
  for (int batch = 1; batch <= batches; ++batch) {
    // Pick delete victims (1% of live) shared by all three systems.
    size_t delete_count = live.size() / 100;
    std::vector<catalog::Tuple> victims;
    for (auto it = live.begin(); it != live.end() && victims.size() < delete_count;) {
      if (rng.Bernoulli(0.02)) {
        victims.push_back(it->second);
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& v : victims) {
      CheckOk(table->Delete(v.id()));
      CheckOk(upi->Delete(v));
      CheckOk(fractured->Delete(v.id()));
    }
    for (size_t i = 0; i < insert_per_batch; ++i) {
      catalog::Tuple t = d.gen->MakeAuthor(next_id++);
      CheckOk(table->Insert(t));
      CheckOk(upi->Insert(t));
      CheckOk(fractured->Insert(t));
      live.emplace(t.id(), t);
    }
    CheckOk(fractured->FlushBuffer());  // one fracture per batch
    heap_env.pool()->FlushAll();
    upi_env.pool()->FlushAll();
    measure(batch);
  }
  return 0;
}
