// Micro-benchmarks (google-benchmark) for the substrates: wall-clock CPU
// costs of the building blocks, plus ablations for design choices (bulk load
// vs random insert, tailored vs plain pointer selection, histogram
// estimation).
#include <benchmark/benchmark.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "common/check.h"
#include "common/random.h"
#include "core/fractured_upi.h"
#include "core/upi.h"
#include "datagen/dblp.h"
#include "engine/database.h"
#include "exec/aggregate.h"
#include "histogram/prob_histogram.h"
#include "prob/gaussian2d.h"
#include "storage/db_env.h"
#include "wal/wal_format.h"

namespace upi {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

void BM_BTreePut(benchmark::State& state) {
  storage::DbEnv env(256ull << 20);
  storage::PageFile* file = env.CreateFile("t", 8192).ValueOrDie();
  btree::BTree tree(env.MakePager(file));
  Rng rng(1);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Put(Key(static_cast<int>(rng.Uniform(1u << 24)) + i++), "value"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePut);

void BM_BTreeGet(benchmark::State& state) {
  storage::DbEnv env(256ull << 20);
  storage::PageFile* file = env.CreateFile("t", 8192).ValueOrDie();
  btree::BTreeBuilder builder(env.MakePager(file));
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    (void)builder.Add(Key(i), "value");
  }
  btree::BTree tree = builder.Finish().ValueOrDie();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(Key(static_cast<int>(rng.Uniform(kN)))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGet);

// A sorted pointer sweep: 2,000 ascending keys of the 100k-key tree, looked
// up with one descent each (arg 0, BTree::Get) or through one SortedLookup
// (arg 1, one descent per leaf change).
void BM_BTreeGetSorted(benchmark::State& state) {
  storage::DbEnv env(256ull << 20);
  storage::PageFile* file = env.CreateFile("t", 8192).ValueOrDie();
  btree::BTreeBuilder builder(env.MakePager(file));
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    (void)builder.Add(Key(i), "value");
  }
  btree::BTree tree = builder.Finish().ValueOrDie();
  Rng rng(2);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(Key(static_cast<int>(rng.Uniform(kN))));
  }
  std::sort(keys.begin(), keys.end());
  const bool sorted = state.range(0) == 1;
  for (auto _ : state) {
    if (sorted) {
      btree::SortedLookup lookup(&tree);
      std::string_view value;
      for (const std::string& k : keys) {
        benchmark::DoNotOptimize(lookup.Get(k, &value));
      }
    } else {
      for (const std::string& k : keys) {
        benchmark::DoNotOptimize(tree.Get(k));
      }
    }
  }
  state.SetLabel(sorted ? "sorted-lookup" : "get");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_BTreeGetSorted)->Arg(0)->Arg(1);

void BM_BTreeSeek(benchmark::State& state) {
  storage::DbEnv env(256ull << 20);
  storage::PageFile* file = env.CreateFile("t", 8192).ValueOrDie();
  btree::BTreeBuilder builder(env.MakePager(file));
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    (void)builder.Add(Key(i), "value");
  }
  btree::BTree tree = builder.Finish().ValueOrDie();
  Rng rng(2);
  for (auto _ : state) {
    btree::Cursor c = tree.Seek(Key(static_cast<int>(rng.Uniform(kN))));
    benchmark::DoNotOptimize(c.value().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeSeek);

void BM_BTreeBulkLoad100k(benchmark::State& state) {
  for (auto _ : state) {
    storage::DbEnv env(256ull << 20);
    storage::PageFile* file = env.CreateFile("t", 8192).ValueOrDie();
    btree::BTreeBuilder builder(env.MakePager(file));
    for (int i = 0; i < 100000; ++i) {
      (void)builder.Add(Key(i), "value");
    }
    benchmark::DoNotOptimize(builder.Finish());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BTreeBulkLoad100k)->Unit(benchmark::kMillisecond);

// The analytic-shaped table (Query 2 and 3's Publication table, clustered on
// Institution, with its Country secondary index) that both the UPI bulk
// build and merge benchmarks stage.
std::vector<catalog::Tuple> AnalyticPublications() {
  datagen::DblpConfig cfg;
  cfg.num_authors = 10000;
  cfg.num_publications = 20000;
  datagen::DblpGenerator gen(cfg);
  return gen.GeneratePublications(gen.GenerateAuthors());
}

core::UpiOptions AnalyticOptions() {
  core::UpiOptions opt;
  opt.cluster_column = datagen::PublicationCols::kInstitution;
  return opt;
}

// Upi::Build of the whole table: heap, cutoff index and secondary index,
// each staged, sorted and bulk-loaded. Each iteration releases its files.
void BM_UpiBuild(benchmark::State& state) {
  const std::vector<catalog::Tuple> pubs = AnalyticPublications();
  storage::DbEnv env(512ull << 20);
  for (auto _ : state) {
    auto upi = core::Upi::Build(&env, "p",
                                datagen::DblpGenerator::PublicationSchema(),
                                AnalyticOptions(),
                                {datagen::PublicationCols::kCountry}, pubs)
                   .ValueOrDie();
    benchmark::DoNotOptimize(upi.get());
    core::Upi::Release(std::move(upi));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pubs.size()));
}
BENCHMARK(BM_UpiBuild)->Unit(benchmark::kMillisecond);

// Upi::Merge of two fractures (the table's halves) with a delete set of every
// tenth id: a k-way merge of the heaps, cutoff and secondary indexes.
void BM_UpiMerge(benchmark::State& state) {
  const std::vector<catalog::Tuple> pubs = AnalyticPublications();
  const size_t half = pubs.size() / 2;
  storage::DbEnv env(512ull << 20);
  std::vector<std::unique_ptr<core::Upi>> fractures;
  std::set<catalog::TupleId> deleted;
  for (size_t f = 0; f < 2; ++f) {
    std::vector<catalog::Tuple> part(pubs.begin() + f * half,
                                     f == 0 ? pubs.begin() + half : pubs.end());
    for (size_t i = 0; i < part.size(); i += 10) deleted.insert(part[i].id());
    core::FractureSummary::Builder summary;
    std::string name = "f";
    name += std::to_string(f);
    fractures.push_back(
        core::Upi::Build(&env, std::move(name),
                         datagen::DblpGenerator::PublicationSchema(),
                         AnalyticOptions(),
                         {datagen::PublicationCols::kCountry}, part, &summary)
            .ValueOrDie());
  }
  for (auto _ : state) {
    std::set<catalog::TupleId> filtered;
    core::FractureSummary::Builder summary;
    auto merged = core::Upi::Merge({fractures[0].get(), fractures[1].get()},
                                   "m", AnalyticOptions(), deleted, &filtered,
                                   &summary)
                      .ValueOrDie();
    benchmark::DoNotOptimize(merged.get());
    core::Upi::Release(std::move(merged));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pubs.size()));
}
BENCHMARK(BM_UpiMerge)->Unit(benchmark::kMillisecond);

void BM_BTreeScan(benchmark::State& state) {
  storage::DbEnv env(256ull << 20);
  storage::PageFile* file = env.CreateFile("t", 8192).ValueOrDie();
  btree::BTreeBuilder builder(env.MakePager(file));
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) (void)builder.Add(Key(i), "value");
  btree::BTree tree = builder.Finish().ValueOrDie();
  for (auto _ : state) {
    uint64_t n = 0;
    for (btree::Cursor c = tree.SeekToFirst(); c.Valid(); c.Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_BTreeScan)->Unit(benchmark::kMillisecond);

// BM_BTreeScan from a cold cache: every leaf is a pool miss, so each pass
// measures the miss path (frame install, device read, image hand-off).
void BM_BTreeScanCold(benchmark::State& state) {
  storage::DbEnv env(256ull << 20);
  storage::PageFile* file = env.CreateFile("t", 8192).ValueOrDie();
  btree::BTreeBuilder builder(env.MakePager(file));
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) (void)builder.Add(Key(i), "value");
  btree::BTree tree = builder.Finish().ValueOrDie();
  for (auto _ : state) {
    env.ColdCache();
    uint64_t n = 0;
    for (btree::Cursor c = tree.SeekToFirst(); c.Valid(); c.Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_BTreeScanCold)->Unit(benchmark::kMillisecond);

void BM_GaussianProbInCircle(benchmark::State& state) {
  prob::ConstrainedGaussian2D g({0, 0}, 20.0, 60.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.ProbInCircle({25, 10}, 30.0));
  }
}
BENCHMARK(BM_GaussianProbInCircle);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution z(2000, 1.0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_HistogramEstimate(benchmark::State& state) {
  histogram::ProbHistogram h(20);
  Rng rng(4);
  for (int i = 0; i < 100000; ++i) {
    std::string value = "v";
    value += std::to_string(rng.Uniform(500));
    h.Add(value, rng.NextDouble(), rng.Bernoulli(0.4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.EstimateHeapHits("v42", 0.1, 0.3));
  }
}
BENCHMARK(BM_HistogramEstimate);

void BM_UpiInsert(benchmark::State& state) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 1;
  datagen::DblpGenerator gen(cfg);
  storage::DbEnv env(256ull << 20);
  core::UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  auto upi = core::Upi::Build(&env, "a", datagen::DblpGenerator::AuthorSchema(),
                              opt, {}, {})
                 .ValueOrDie();
  catalog::TupleId id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(upi->Insert(gen.MakeAuthor(id++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpiInsert);

void BM_UpiOpenPtq(benchmark::State& state) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 20000;
  datagen::DblpGenerator gen(cfg);
  auto tuples = gen.GenerateAuthors();
  storage::DbEnv env(512ull << 20);
  core::UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  opt.charge_open_per_query = false;
  auto upi = core::Upi::Build(&env, "a", datagen::DblpGenerator::AuthorSchema(),
                              opt, {}, tuples)
                 .ValueOrDie();
  std::string v = gen.PopularInstitution();
  size_t rows = 0;
  for (auto _ : state) {
    std::vector<core::PtqMatch> out;
    benchmark::DoNotOptimize(upi->OpenPtq(v, 0.3)->Drain(&out));
    rows += out.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_UpiOpenPtq)->Unit(benchmark::kMillisecond);

// Query 2 on a warm, pool-resident Publication UPI: SELECT Journal,
// COUNT(*) WHERE Institution = v (QT 0.3) GROUP BY Journal, as a drained PTQ
// and exec::GroupByCount, which reads one column of each row.
void BM_UpiPtqGroupByJournal(benchmark::State& state) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 10000;
  cfg.num_publications = 20000;
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();
  auto pubs = gen.GeneratePublications(authors);
  storage::DbEnv env(512ull << 20);
  core::UpiOptions opt;
  opt.cluster_column = datagen::PublicationCols::kInstitution;
  opt.charge_open_per_query = false;
  auto upi = core::Upi::Build(&env, "p", datagen::DblpGenerator::PublicationSchema(),
                              opt, {}, pubs)
                 .ValueOrDie();
  std::string v = gen.PopularInstitution();
  size_t rows = 0;
  for (auto _ : state) {
    std::vector<core::PtqMatch> out;
    benchmark::DoNotOptimize(upi->OpenPtq(v, 0.3)->Drain(&out));
    auto groups = exec::GroupByCount(out, datagen::PublicationCols::kJournal);
    benchmark::DoNotOptimize(groups.size());
    rows += out.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_UpiPtqGroupByJournal)->Unit(benchmark::kMillisecond);

// Query 3 with tailored access (Algorithm 3) on a warm, pool-resident
// Publication table: the rows' heap keys, sorted, go through one
// SortedLookup, so this is the B-tree point-lookup path under a real
// secondary probe.
void BM_UpiOpenSecondary(benchmark::State& state) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 10000;
  cfg.num_publications = 20000;
  datagen::DblpGenerator gen(cfg);
  auto authors = gen.GenerateAuthors();
  auto pubs = gen.GeneratePublications(authors);
  storage::DbEnv env(512ull << 20);
  core::UpiOptions opt;
  opt.cluster_column = datagen::PublicationCols::kInstitution;
  opt.charge_open_per_query = false;
  auto upi = core::Upi::Build(&env, "p", datagen::DblpGenerator::PublicationSchema(),
                              opt, {datagen::PublicationCols::kCountry}, pubs)
                 .ValueOrDie();
  std::string v = gen.MidCountry();
  size_t rows = 0;
  for (auto _ : state) {
    std::vector<core::PtqMatch> out;
    benchmark::DoNotOptimize(
        upi->OpenSecondary(datagen::PublicationCols::kCountry, v, 0.3,
                           core::SecondaryAccessMode::kTailored)
            ->Drain(&out));
    rows += out.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_UpiOpenSecondary)->Unit(benchmark::kMillisecond);

// A Fractured UPI between two flushes: a main fracture of 15,000 DBLP
// authors and 2,048 more in the RAM insert buffer (perfbench's flush
// watermark). The buffer benchmarks read both, warm: the main's pages stay
// in the pool, so the buffer's share of each read shows.
std::unique_ptr<core::FracturedUpi> BufferedAuthors(
    storage::DbEnv* env, datagen::DblpGenerator* gen) {
  auto tuples = gen->GenerateAuthors();
  core::UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  opt.charge_open_per_query = false;
  auto table = core::FracturedUpi::Build(
                   env, "f", datagen::DblpGenerator::AuthorSchema(), opt,
                   {datagen::AuthorCols::kCountry}, tuples)
                   .ValueOrDie();
  for (catalog::TupleId id = 1'000'000; id < 1'000'000 + 2048; ++id) {
    UPI_CHECK(table->Insert(gen->MakeAuthor(id)).ok(), "buffered insert");
  }
  return table;
}

datagen::DblpConfig BufferedAuthorsConfig() {
  datagen::DblpConfig cfg;
  cfg.num_authors = 15000;
  return cfg;
}

// PTQ (QT 0.3) on a popular institution across the buffer and the main.
void BM_FracturedUpiBufferPtq(benchmark::State& state) {
  datagen::DblpGenerator gen(BufferedAuthorsConfig());
  storage::DbEnv env(512ull << 20);
  auto table = BufferedAuthors(&env, &gen);
  std::string v = gen.PopularInstitution();
  size_t rows = 0;
  for (auto _ : state) {
    std::vector<core::PtqMatch> out;
    benchmark::DoNotOptimize(table->OpenPtq(v, 0.3)->Drain(&out));
    rows += out.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_FracturedUpiBufferPtq)->Unit(benchmark::kMicrosecond);

// Top-10 on the same institution: the buffer's ten best, then the main's.
void BM_FracturedUpiBufferTopK(benchmark::State& state) {
  datagen::DblpGenerator gen(BufferedAuthorsConfig());
  storage::DbEnv env(512ull << 20);
  auto table = BufferedAuthors(&env, &gen);
  std::string v = gen.PopularInstitution();
  for (auto _ : state) {
    std::vector<core::PtqMatch> out;
    benchmark::DoNotOptimize(table->OpenTopK(v, 10)->Drain(&out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FracturedUpiBufferTopK)->Unit(benchmark::kMicrosecond);

// The WAL's frame checksum over a 16 MiB buffer, the size class of a bulk
// create record: paid once when the record is logged and again at recovery.
void BM_WalCrc32(benchmark::State& state) {
  Rng rng(3);
  std::string buf(16u << 20, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (auto _ : state) benchmark::DoNotOptimize(wal::Crc32(buf));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_WalCrc32)->Unit(benchmark::kMillisecond);

// Opening a database whose log holds a 20k-tuple partitioned create and 5k
// inserts: the streamed log scan, CRC checks, decoding and replay.
void BM_WalRecover(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "upi_bench_wal_XXXXXX");
  if (::mkdtemp(dir.data()) == nullptr) {
    state.SkipWithError("cannot create a scratch directory");
    return;
  }
  engine::DatabaseOptions opts;
  opts.maintenance.num_workers = 0;
  opts.gather_workers = 0;
  opts.wal_dir = dir;
  opts.wal_mode = wal::WalMode::kCommit;
  {
    datagen::DblpConfig cfg;
    cfg.num_authors = 20000;
    datagen::DblpGenerator gen(cfg);
    core::UpiOptions opt;
    opt.cluster_column = datagen::AuthorCols::kInstitution;
    engine::PartitionOptions popts;
    popts.num_shards = 4;
    engine::Database db(opts);
    engine::Table* table =
        db.CreatePartitionedTable("authors",
                                  datagen::DblpGenerator::AuthorSchema(), opt,
                                  {datagen::AuthorCols::kCountry}, popts,
                                  gen.GenerateAuthors())
            .ValueOrDie();
    for (int i = 0; i < 5000; ++i) {
      if (!table->Insert(gen.MakeAuthor(20000 + i)).ok()) {
        state.SkipWithError("insert failed");
        break;
      }
    }
  }
  uint64_t records = 0;
  for (auto _ : state) {
    engine::Database db(opts);
    records += db.recovery_stats().records;
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_WalRecover)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace upi

BENCHMARK_MAIN();
