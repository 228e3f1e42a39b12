#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "catalog/tuple.h"
#include "common/check.h"
#include "common/random.h"
#include "core/upi.h"
#include "core/upi_key.h"
#include "datagen/dblp.h"
#include "prob/confidence.h"
#include "storage/db_env.h"

namespace upi::core {
namespace {

using catalog::Schema;
using catalog::Tuple;
using catalog::TupleId;
using catalog::Value;
using catalog::ValueType;
using prob::Alternative;
using prob::DiscreteDistribution;

DiscreteDistribution Dist(std::vector<Alternative> alts) {
  return DiscreteDistribution::Make(std::move(alts)).ValueOrDie();
}

Schema PaperSchema() {
  return Schema({{"Name", ValueType::kString},
                 {"Institution", ValueType::kDiscrete},
                 {"Country", ValueType::kDiscrete}});
}

// The paper's running example (Tables 1 and 4).
std::vector<Tuple> PaperTuples() {
  std::vector<Tuple> tuples;
  tuples.push_back(Tuple(1, 0.9,
                         {Value::String("Alice"),
                          Value::Discrete(Dist({{"Brown", 0.8}, {"MIT", 0.2}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  tuples.push_back(Tuple(2, 1.0,
                         {Value::String("Bob"),
                          Value::Discrete(Dist({{"MIT", 0.95}, {"UCB", 0.05}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  tuples.push_back(
      Tuple(3, 0.8,
            {Value::String("Carol"),
             Value::Discrete(Dist({{"Brown", 0.6}, {"U.Tokyo", 0.4}})),
             Value::Discrete(Dist({{"US", 0.6}, {"Japan", 0.4}}))}));
  return tuples;
}

UpiOptions PaperOptions() {
  UpiOptions opt;
  opt.cluster_column = 1;
  opt.cutoff = 0.10;  // Table 3 uses C = 10%
  opt.charge_open_per_query = false;
  return opt;
}

TEST(UpiKeyTest, RoundTripAndOrder) {
  std::string k1 = EncodeUpiKey("MIT", 0.95, 2);
  std::string k2 = EncodeUpiKey("MIT", 0.18, 1);
  std::string k3 = EncodeUpiKey("UCB", 0.05, 2);
  EXPECT_LT(k1, k2);  // same value, higher probability first
  EXPECT_LT(k2, k3);  // value ascending
  UpiKey decoded;
  ASSERT_TRUE(DecodeUpiKey(k1, &decoded).ok());
  EXPECT_EQ(decoded.attr, "MIT");
  EXPECT_NEAR(decoded.prob, 0.95, 1e-8);
  EXPECT_EQ(decoded.id, 2u);
}

TEST(UpiKeyTest, ViewDecodesInPlaceUnlessTheAttributeHoldsANul) {
  std::string scratch;
  UpiKeyView view;
  const std::string plain = EncodeUpiKey("MIT", 0.95, 2);
  ASSERT_TRUE(DecodeUpiKeyView(plain, &scratch, &view).ok());
  EXPECT_EQ(view.attr, "MIT");
  EXPECT_EQ(view.attr.data(), plain.data());  // a view into the key
  EXPECT_EQ(view.id, 2u);
  EXPECT_NEAR(view.prob, 0.95, 1e-8);

  const std::string nul_attr("M\0T", 3);
  const std::string escaped = EncodeUpiKey(nul_attr, 0.5, 7);
  ASSERT_TRUE(DecodeUpiKeyView(escaped, &scratch, &view).ok());
  EXPECT_EQ(view.attr, nul_attr);
  EXPECT_EQ(view.attr.data(), scratch.data());
  EXPECT_EQ(view.id, 7u);
  UpiKey decoded;
  ASSERT_TRUE(DecodeUpiKey(escaped, &decoded).ok());
  EXPECT_EQ(decoded.attr, nul_attr);
  EXPECT_EQ(decoded.id, 7u);

  EXPECT_FALSE(DecodeUpiKeyView(plain.substr(0, 5), &scratch, &view).ok());
  EXPECT_FALSE(DecodeUpiKeyView(escaped.substr(0, 3), &scratch, &view).ok());
}

TEST(UpiKeyTest, PrefixCoversValueOnly) {
  std::string prefix = UpiKeyPrefix("MIT");
  EXPECT_EQ(EncodeUpiKey("MIT", 0.95, 2).substr(0, prefix.size()), prefix);
  EXPECT_NE(EncodeUpiKey("MITx", 0.95, 2).substr(0, prefix.size()), prefix);
}

TEST(UpiTest, PaperTable2HeapLayout) {
  // A naive UPI (C=0) duplicates every alternative in heap order:
  // Brown(72%) Alice, Brown(48%) Carol, MIT(95%) Bob, MIT(18%) Alice,
  // UCB(5%) Bob, U.Tokyo(32%) Carol.
  storage::DbEnv env;
  UpiOptions opt = PaperOptions();
  opt.cutoff = 0.0;
  auto upi =
      Upi::Build(&env, "author", PaperSchema(), opt, {}, PaperTuples()).ValueOrDie();
  std::vector<std::pair<std::string, TupleId>> order;
  upi->ScanHeap([&](std::string_view key, std::string_view) {
    UpiKey k;
    ASSERT_TRUE(DecodeUpiKey(key, &k).ok());
    order.push_back({k.attr, k.id});
  });
  std::vector<std::pair<std::string, TupleId>> expected = {
      {"Brown", 1}, {"Brown", 3}, {"MIT", 2},
      {"MIT", 1},   {"U.Tokyo", 3}, {"UCB", 2}};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(upi->cutoff_index()->num_entries(), 0u);
}

TEST(UpiTest, PaperTable3CutoffPlacement) {
  // With C=10%, only Bob's UCB (5%) entry moves to the cutoff index;
  // U.Tokyo (32%) and MIT(18%) stay (Table 3).
  storage::DbEnv env;
  auto upi = Upi::Build(&env, "author", PaperSchema(), PaperOptions(), {},
                        PaperTuples())
                 .ValueOrDie();
  EXPECT_EQ(upi->heap_entries(), 5u);
  EXPECT_EQ(upi->cutoff_index()->num_entries(), 1u);
  std::vector<CutoffIndex::PointerEntry> ptrs;
  ASSERT_TRUE(upi->cutoff_index()->CollectPointers("UCB", 0.0, &ptrs).ok());
  ASSERT_EQ(ptrs.size(), 1u);
  EXPECT_EQ(ptrs[0].entry.id, 2u);
  // The pointer names Bob's first alternative: MIT at 95%.
  UpiKey target;
  ASSERT_TRUE(DecodeUpiKey(ptrs[0].heap_key, &target).ok());
  EXPECT_EQ(target.attr, "MIT");
  EXPECT_NEAR(target.prob, 0.95, 1e-8);
}

TEST(UpiTest, FirstAlternativeStaysInHeapEvenBelowCutoff) {
  // Algorithm 1: "If a value has probability lower than C, but is the first
  // possible value, we leave the tuple in the UPI."
  storage::DbEnv env;
  UpiOptions opt = PaperOptions();
  opt.cutoff = 0.5;
  std::vector<Tuple> tuples;
  tuples.push_back(Tuple(7, 1.0,
                         {Value::String("Dave"),
                          Value::Discrete(Dist({{"X", 0.3}, {"Y", 0.25}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  auto upi =
      Upi::Build(&env, "author", PaperSchema(), opt, {}, tuples).ValueOrDie();
  EXPECT_EQ(upi->heap_entries(), 1u);   // X stays although 0.3 < 0.5
  EXPECT_EQ(upi->cutoff_index()->num_entries(), 1u);  // Y goes to cutoff
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi->OpenPtq("X", 0.1)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 7u);
}

TEST(UpiTest, Query1FromThePaper) {
  // SELECT * WHERE Institution=MIT: {(Alice, 18%), (Bob, 95%)}.
  storage::DbEnv env;
  auto upi = Upi::Build(&env, "author", PaperSchema(), PaperOptions(), {},
                        PaperTuples())
                 .ValueOrDie();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi->OpenPtq("MIT", 0.10)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 2u);
  EXPECT_NEAR(out[0].confidence, 0.95, 1e-8);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_NEAR(out[1].confidence, 0.18, 1e-8);
  EXPECT_EQ(out[0].tuple.Column(0).ValueOrDie().str(), "Bob");

  out.clear();
  ASSERT_TRUE(upi->OpenPtq("MIT", 0.5)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);
}

TEST(UpiTest, QueryBelowCutoffFollowsPointers) {
  storage::DbEnv env;
  auto upi = Upi::Build(&env, "author", PaperSchema(), PaperOptions(), {},
                        PaperTuples())
                 .ValueOrDie();
  // UCB@5% lives only in the cutoff index; QT=1% < C=10% must find it.
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi->OpenPtq("UCB", 0.01)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);
  EXPECT_NEAR(out[0].confidence, 0.05, 1e-8);
  EXPECT_EQ(out[0].tuple.Column(0).ValueOrDie().str(), "Bob");
  // ... while QT=10% >= C skips the cutoff index and finds nothing.
  out.clear();
  ASSERT_TRUE(upi->OpenPtq("UCB", 0.10)->Drain(&out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(UpiTest, MalformedHeapTupleFailsTheCursorAsItsRowIsProduced) {
  // Rows keep their tuple encoded, so a read checks each tuple's bytes when
  // it produces the row: Bob's MIT heap entry, truncated, fails the heap
  // phase at his row and the cutoff phase at the fetch UCB's pointer makes,
  // with Corruption; rows before it stream.
  storage::DbEnv env;
  auto upi = Upi::Build(&env, "author", PaperSchema(), PaperOptions(), {},
                        PaperTuples())
                 .ValueOrDie();
  const std::string bob = EncodeUpiKey("MIT", 0.95, 2);
  std::string bytes = upi->heap_tree()->Get(bob).ValueOrDie();
  bytes.resize(bytes.size() - 1);
  ASSERT_TRUE(upi->heap_tree()->Put(bob, bytes).ok());

  std::unique_ptr<ResultCursor> mit = upi->OpenPtq("MIT", 0.10);
  PtqMatch m;
  EXPECT_FALSE(mit->TakeNext(&m));
  EXPECT_EQ(mit->status().code(), StatusCode::kCorruption);

  std::unique_ptr<ResultCursor> brown = upi->OpenPtq("Brown", 0.10);
  std::vector<PtqMatch> rows;
  EXPECT_TRUE(brown->Drain(&rows).ok());
  EXPECT_EQ(rows.size(), 2u);

  std::unique_ptr<ResultCursor> ucb = upi->OpenPtq("UCB", 0.01);
  EXPECT_FALSE(ucb->TakeNext(&m));
  EXPECT_EQ(ucb->status().code(), StatusCode::kCorruption);
}

TEST(UpiTest, InsertMatchesBulkBuild) {
  storage::DbEnv env1, env2;
  auto built = Upi::Build(&env1, "a", PaperSchema(), PaperOptions(), {},
                          PaperTuples())
                   .ValueOrDie();
  auto incremental =
      Upi::Build(&env2, "b", PaperSchema(), PaperOptions(), {}, {})
          .ValueOrDie();
  for (const Tuple& t : PaperTuples()) ASSERT_TRUE(incremental->Insert(t).ok());
  EXPECT_EQ(built->heap_entries(), incremental->heap_entries());
  EXPECT_EQ(built->cutoff_index()->num_entries(),
            incremental->cutoff_index()->num_entries());
  for (const char* v : {"MIT", "Brown", "UCB", "U.Tokyo"}) {
    std::vector<PtqMatch> r1, r2;
    ASSERT_TRUE(built->OpenPtq(v, 0.01)->Drain(&r1).ok());
    ASSERT_TRUE(incremental->OpenPtq(v, 0.01)->Drain(&r2).ok());
    ASSERT_EQ(r1.size(), r2.size()) << v;
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].id, r2[i].id);
      EXPECT_NEAR(r1[i].confidence, r2[i].confidence, 1e-8);
    }
  }
}

TEST(UpiTest, DeleteRemovesAllTraces) {
  storage::DbEnv env;
  auto upi =
      Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {}, {}).ValueOrDie();
  auto tuples = PaperTuples();
  for (const Tuple& t : tuples) ASSERT_TRUE(upi->Insert(t).ok());
  ASSERT_TRUE(upi->Delete(tuples[1]).ok());  // Bob
  EXPECT_EQ(upi->num_tuples(), 2u);
  EXPECT_EQ(upi->cutoff_index()->num_entries(), 0u);  // UCB pointer gone
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi->OpenPtq("MIT", 0.01)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 1u);  // only Alice remains
  EXPECT_EQ(out[0].id, 1u);
}

TEST(UpiTest, TopKTerminatesEarly) {
  storage::DbEnv env;
  auto upi = Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {},
                        PaperTuples())
                 .ValueOrDie();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi->OpenTopK("MIT", 1)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);  // Bob, the highest confidence
  out.clear();
  ASSERT_TRUE(upi->OpenTopK("MIT", 10)->Drain(&out).ok());
  EXPECT_EQ(out.size(), 2u);  // only two MIT tuples exist
}

TEST(UpiTest, SecondaryIndexPaperTable5) {
  // Secondary on Country; Carol's Japan entry has confidence 40%*80%=32%
  // and carries pointers to both Brown and U.Tokyo copies.
  storage::DbEnv env;
  auto upi = Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2},
                        PaperTuples())
                 .ValueOrDie();
  SecondaryIndex* sec = upi->secondary(2);
  ASSERT_NE(sec, nullptr);
  std::vector<SecondaryEntry> entries;
  ASSERT_TRUE(sec->Collect("Japan", 0.0, &entries).ok());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key.id, 3u);
  EXPECT_NEAR(entries[0].key.prob, 0.32, 1e-8);
  ASSERT_EQ(entries[0].pointers.size(), 2u);
  EXPECT_EQ(entries[0].pointers[0].attr, "Brown");
  EXPECT_EQ(entries[0].pointers[1].attr, "U.Tokyo");
  // Bob's US entry: MIT pointer plus <cutoff> flag (UCB was cut off).
  entries.clear();
  ASSERT_TRUE(sec->Collect("US", 0.91, &entries).ok());
  ASSERT_EQ(entries.size(), 1u);  // only Bob has US above 91%
  EXPECT_EQ(entries[0].key.id, 2u);
  ASSERT_EQ(entries[0].pointers.size(), 1u);
  EXPECT_EQ(entries[0].pointers[0].attr, "MIT");
  EXPECT_TRUE(entries[0].has_cutoff);
}

TEST(UpiTest, SecondaryQueryPaperExample) {
  // SELECT * WHERE Country=US, QT=80% -> Bob (100%) and Alice (90%).
  storage::DbEnv env;
  auto upi = Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2},
                        PaperTuples())
                 .ValueOrDie();
  for (SecondaryAccessMode mode :
       {SecondaryAccessMode::kTailored, SecondaryAccessMode::kFirstPointer}) {
    std::vector<PtqMatch> out;
    ASSERT_TRUE(upi->OpenSecondary(2, "US", 0.8, mode)->Drain(&out).ok());
    std::set<TupleId> ids;
    for (const auto& m : out) ids.insert(m.id);
    EXPECT_EQ(ids, (std::set<TupleId>{1, 2}));
    for (const auto& m : out) {
      if (m.id == 1) {
        EXPECT_NEAR(m.confidence, 0.9, 1e-8);
      }
      if (m.id == 2) {
        EXPECT_NEAR(m.confidence, 1.0, 1e-8);
      }
    }
  }
}

TEST(UpiTest, TailoredAccessPrefersSharedRegions) {
  // Alice's tailored fetch should come from the MIT region because Bob (a
  // single-pointer entry) pins MIT — the Section 3.2 walkthrough.
  storage::DbEnv env;
  UpiOptions opt = PaperOptions();
  opt.max_secondary_pointers = 10;
  auto upi =
      Upi::Build(&env, "a", PaperSchema(), opt, {2}, PaperTuples()).ValueOrDie();

  // Count distinct clustered-attribute regions fetched under each mode by
  // instrumenting through the returned tuples' institutions is not possible
  // (tuples are identical); instead verify via seek accounting on a cold
  // cache: tailored access must not do more I/O than first-pointer access.
  env.ColdCache();
  sim::StatsWindow w1(env.disk());
  std::vector<PtqMatch> out1;
  ASSERT_TRUE(upi->OpenSecondary(2, "US", 0.8, SecondaryAccessMode::kTailored)
                  ->Drain(&out1)
                  .ok());
  double tailored_ms = w1.ElapsedMs();

  env.ColdCache();
  sim::StatsWindow w2(env.disk());
  std::vector<PtqMatch> out2;
  ASSERT_TRUE(
      upi->OpenSecondary(2, "US", 0.8, SecondaryAccessMode::kFirstPointer)
          ->Drain(&out2)
          .ok());
  double first_ms = w2.ElapsedMs();
  EXPECT_EQ(out1.size(), out2.size());
  EXPECT_LE(tailored_ms, first_ms + 1e-9);
}

// The device traffic of a cold first-pointer Query 3 on `profile`, or with
// `get_loop`, of the same index walk followed by one BTree::Get per heap key
// in heap order. Each run builds its own table, so both start from the same
// device totals and their deltas compare bit for bit.
sim::DiskStats ColdSortedFetch(sim::DeviceProfile profile, bool get_loop) {
  storage::DbEnv env(64ull << 20, profile);
  datagen::DblpConfig cfg;
  cfg.num_authors = 3000;
  cfg.num_publications = 12000;
  datagen::DblpGenerator gen(cfg);
  UpiOptions opt;
  opt.cluster_column = datagen::PublicationCols::kInstitution;
  const int col = datagen::PublicationCols::kCountry;
  auto upi = Upi::Build(&env, "p", datagen::DblpGenerator::PublicationSchema(),
                        opt, {col},
                        gen.GeneratePublications(gen.GenerateAuthors()))
                 .ValueOrDie();
  const std::string country = gen.MidCountry();
  const double qt = 0.1;
  env.ColdCache();
  sim::StatsWindow window(env.disk());
  if (!get_loop) {
    std::vector<PtqMatch> rows;
    UPI_CHECK(upi->OpenSecondary(col, country, qt,
                                 SecondaryAccessMode::kFirstPointer)
                      ->Drain(&rows)
                      .ok() &&
                  rows.size() > 100,
              "a secondary sweep worth measuring");
    return window.Delta();
  }
  std::vector<SecondaryEntry> entries;
  UPI_CHECK(upi->secondary(col)->Collect(country, qt, &entries).ok(),
            "secondary collect");
  std::vector<std::string> keys;
  for (const SecondaryEntry& e : entries) {
    keys.push_back(
        EncodeUpiKey(e.pointers[0].attr, e.pointers[0].prob, e.key.id));
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& k : keys) {
    UPI_CHECK(upi->heap_tree()->Get(k).ok(), "heap get");
  }
  return window.Delta();
}

TEST(UpiTest, SortedSecondaryFetchEqualsGetLoopOnTheSsd) {
  // The sorted fetch reads the same pages in the same order as one Get per
  // heap key. On the SSD profile a seek costs less than a page transfer, so
  // no gap is read through, and the device traffic is identical.
  const sim::DeviceProfile ssd = sim::DeviceProfile::Ssd();
  const sim::DiskStats sorted = ColdSortedFetch(ssd, /*get_loop=*/false);
  const sim::DiskStats loop = ColdSortedFetch(ssd, /*get_loop=*/true);
  EXPECT_EQ(sorted.reads, loop.reads);
  EXPECT_EQ(sorted.seeks, loop.seeks);
  EXPECT_EQ(sorted.seek_ms, loop.seek_ms);
  EXPECT_EQ(sorted.bytes_read, loop.bytes_read);
  EXPECT_EQ(sorted.file_opens, loop.file_opens);
  EXPECT_EQ(sorted.writes, loop.writes);
  EXPECT_EQ(sorted.SimMs(ssd.cost), loop.SimMs(ssd.cost));

  // On the spinning disk the same sweep reads short forward gaps through:
  // the same device reads, fewer seeks, more bytes, less time.
  const sim::DeviceProfile hdd = sim::DeviceProfile::SpinningDisk();
  const sim::DiskStats hdd_sorted = ColdSortedFetch(hdd, /*get_loop=*/false);
  const sim::DiskStats hdd_loop = ColdSortedFetch(hdd, /*get_loop=*/true);
  EXPECT_EQ(hdd_sorted.reads, hdd_loop.reads);
  EXPECT_LT(hdd_sorted.seeks, hdd_loop.seeks);
  EXPECT_GT(hdd_sorted.bytes_read, hdd_loop.bytes_read);
  EXPECT_LT(hdd_sorted.SimMs(hdd.cost), hdd_loop.SimMs(hdd.cost));
}

// --- Property test: UPI answers == possible-world brute force. -------------

class UpiOracleTest : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(UpiOracleTest, MatchesBruteForce) {
  auto [cutoff, seed] = GetParam();
  datagen::DblpConfig cfg;
  cfg.num_authors = 400;
  cfg.num_institutions = 60;
  cfg.seed = seed;
  datagen::DblpGenerator gen(cfg);
  auto tuples = gen.GenerateAuthors();

  storage::DbEnv env;
  UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  opt.cutoff = cutoff;
  opt.charge_open_per_query = false;
  auto upi = Upi::Build(&env, "a", datagen::DblpGenerator::AuthorSchema(), opt,
                        {datagen::AuthorCols::kCountry}, tuples)
                 .ValueOrDie();

  Rng rng(seed * 7 + 1);
  for (int trial = 0; trial < 30; ++trial) {
    std::string value = gen.InstitutionName(rng.Uniform(cfg.num_institutions));
    double qt = rng.NextDouble() * 0.6 + 0.01;

    std::map<TupleId, double> oracle;
    for (const Tuple& t : tuples) {
      double conf = t.ConfidenceOf(datagen::AuthorCols::kInstitution, value);
      if (conf >= qt && conf > 0) oracle[t.id()] = conf;
    }
    std::vector<PtqMatch> out;
    ASSERT_TRUE(upi->OpenPtq(value, qt)->Drain(&out).ok());
    std::map<TupleId, double> got;
    for (const auto& m : out) got[m.id] = m.confidence;
    ASSERT_EQ(got.size(), oracle.size())
        << "value=" << value << " qt=" << qt << " C=" << cutoff;
    for (const auto& [id, conf] : oracle) {
      ASSERT_TRUE(got.contains(id));
      EXPECT_NEAR(got[id], conf, 1e-6);
    }
  }

  // Secondary queries against the country oracle.
  for (int trial = 0; trial < 15; ++trial) {
    std::string value = gen.CountryName(rng.Uniform(cfg.num_countries));
    double qt = rng.NextDouble() * 0.6 + 0.01;
    std::map<TupleId, double> oracle;
    for (const Tuple& t : tuples) {
      double conf = t.ConfidenceOf(datagen::AuthorCols::kCountry, value);
      if (conf >= qt && conf > 0) oracle[t.id()] = conf;
    }
    std::vector<PtqMatch> out;
    ASSERT_TRUE(upi->OpenSecondary(datagen::AuthorCols::kCountry, value, qt,
                                   SecondaryAccessMode::kTailored)
                    ->Drain(&out)
                    .ok());
    std::map<TupleId, double> got;
    for (const auto& m : out) got[m.id] = m.confidence;
    ASSERT_EQ(got.size(), oracle.size()) << "country=" << value << " qt=" << qt;
    for (const auto& [id, conf] : oracle) {
      ASSERT_TRUE(got.contains(id));
      EXPECT_NEAR(got[id], conf, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CutoffsAndSeeds, UpiOracleTest,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.3),
                       ::testing::Values(uint64_t{1}, uint64_t{2})));

TEST(SecondaryIndexTest, PointerCodecRoundTrip) {
  std::vector<SecondaryPointer> ptrs = {{"Brown", 0.72}, {"MIT", 0.18}};
  std::string buf;
  SecondaryIndex::EncodePointers(ptrs, true, &buf);
  std::vector<SecondaryPointer> out;
  bool has_cutoff;
  ASSERT_TRUE(SecondaryIndex::DecodePointers(buf, &out, &has_cutoff).ok());
  EXPECT_TRUE(has_cutoff);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].attr, "Brown");
  EXPECT_NEAR(out[0].prob, 0.72, 1e-8);
  EXPECT_EQ(out[1].attr, "MIT");
}

TEST(SecondaryIndexTest, PointerLimitTruncatesAndFlags) {
  storage::DbEnv env;
  auto sec = SecondaryIndex::Builder(
                 env.MakePager(env.CreateFile("s", 8192).ValueOrDie()),
                 /*max_pointers=*/2)
                 .Finish()
                 .ValueOrDie();
  std::vector<SecondaryPointer> ptrs = {
      {"A", 0.5}, {"B", 0.3}, {"C", 0.1}, {"D", 0.05}};
  ASSERT_TRUE(sec->Put("US", 0.9, 1, ptrs, false).ok());
  std::vector<SecondaryEntry> entries;
  ASSERT_TRUE(sec->Collect("US", 0.0, &entries).ok());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].pointers.size(), 2u);
  EXPECT_EQ(entries[0].pointers[0].attr, "A");
  EXPECT_TRUE(entries[0].has_cutoff);  // truncation is flagged
}


TEST(UpiTest, TopKSpansIntoCutoffIndex) {
  // k larger than the heap-resident entries for the value: the tail must be
  // served through the cutoff index, in descending-confidence order.
  storage::DbEnv env;
  UpiOptions opt = PaperOptions();
  opt.cutoff = 0.4;
  std::vector<Tuple> tuples;
  for (TupleId id = 1; id <= 6; ++id) {
    double strong = 0.55 + 0.05 * static_cast<double>(id);
    std::string name = "t";
    name += std::to_string(id);
    tuples.push_back(
        Tuple(id, 1.0,
              {Value::String(std::move(name)),
               Value::Discrete(Dist({{"X", strong}, {"Y", 1.0 - strong}})),
               Value::Discrete(Dist({{"US", 1.0}}))}));
  }
  auto upi =
      Upi::Build(&env, "a", PaperSchema(), opt, {}, tuples).ValueOrDie();
  // Y-alternatives (prob 0.15..0.4) are all below C=0.4 -> cutoff.
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi->OpenTopK("Y", 4)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].confidence, out[i].confidence);
  }
  EXPECT_EQ(out[0].id, 1u);  // weakest strong alt => strongest Y alt
}

TEST(UpiTest, DeleteThenPtqAndSecondaryQueries) {
  // The engine plans and runs a UPI table on these paths; a deleted tuple must
  // vanish from the heap scan, the cutoff index, AND both secondary access
  // modes in the same breath.
  storage::DbEnv env;
  auto built =
      Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2}, {}).ValueOrDie();
  Upi& upi = *built;
  auto tuples = PaperTuples();
  for (const Tuple& t : tuples) ASSERT_TRUE(upi.Insert(t).ok());

  ASSERT_TRUE(upi.Delete(tuples[0]).ok());  // Alice (US 90%)
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi.OpenPtq("Brown", 0.01)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 1u);  // only Carol's Brown alternative remains
  EXPECT_EQ(out[0].id, 3u);

  for (auto mode : {SecondaryAccessMode::kFirstPointer,
                    SecondaryAccessMode::kTailored}) {
    out.clear();
    ASSERT_TRUE(upi.OpenSecondary(2, "US", 0.1, mode)->Drain(&out).ok());
    ASSERT_EQ(out.size(), 2u) << "mode " << static_cast<int>(mode);
    for (const auto& m : out) EXPECT_NE(m.id, 1u);
  }
  // The secondary histogram shrinks with the index, so planner estimates
  // stay honest after churn.
  EXPECT_NEAR(upi.EstimateSecondaryMatches(2, "US", 0.1), 2.0, 0.5);

  // Delete Bob too: his below-cutoff UCB pointer and US entry must go.
  ASSERT_TRUE(upi.Delete(tuples[1]).ok());
  out.clear();
  ASSERT_TRUE(upi.OpenPtq("UCB", 0.01)->Drain(&out).ok());
  EXPECT_TRUE(out.empty());
  out.clear();
  ASSERT_TRUE(upi.OpenSecondary(2, "US", 0.1, SecondaryAccessMode::kTailored)
                  ->Drain(&out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 3u);
}

TEST(UpiTest, TopKFallsBackToCutoffWhenHeapHasFewerThanK) {
  // After deletes shrink the heap-resident entries below k, OpenTopK must
  // serve the tail through the cutoff index (Section 3.1's fallback).
  storage::DbEnv env;
  UpiOptions opt = PaperOptions();
  opt.cutoff = 0.45;  // every non-first Y alternative (0.15..0.40) -> cutoff
  std::vector<Tuple> tuples;
  for (TupleId id = 1; id <= 6; ++id) {
    double strong = 0.55 + 0.05 * static_cast<double>(id);
    std::string name = "t";
    name += std::to_string(id);
    tuples.push_back(
        Tuple(id, 1.0,
              {Value::String(std::move(name)),
               Value::Discrete(Dist({{"X", strong}, {"Y", 1.0 - strong}})),
               Value::Discrete(Dist({{"US", 1.0}}))}));
  }
  // One tuple whose FIRST alternative is Y: a heap-resident Y entry that
  // deletion will remove.
  tuples.push_back(Tuple(7, 1.0,
                         {Value::String("t7"),
                          Value::Discrete(Dist({{"Y", 0.9}, {"X", 0.1}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  auto upi =
      Upi::Build(&env, "a", PaperSchema(), opt, {}, tuples).ValueOrDie();

  // With t7 present the heap holds one qualifying Y entry; ask for more.
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi->OpenTopK("Y", 3)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 7u);  // the heap entry leads
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].confidence, out[i].confidence);
  }

  // Delete t7: the heap now has ZERO qualifying Y entries, so top-k must be
  // served entirely from the cutoff index.
  ASSERT_TRUE(upi->Delete(tuples.back()).ok());
  out.clear();
  ASSERT_TRUE(upi->OpenTopK("Y", 3)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 3u);
  for (const auto& m : out) EXPECT_NE(m.id, 7u);
  // Cutoff Y alternatives are 1 - strong: strongest first => id 1.
  EXPECT_EQ(out[0].id, 1u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].confidence, out[i].confidence);
  }
}

TEST(UpiTest, TopKMergesHeapEntriesBelowTheCutoffWithItsPointers) {
  // Algorithm 1 keeps a first alternative in the heap even below C, so the
  // heap's tail can rank below a cutoff pointer: top-k must merge the two,
  // not drain the heap first.
  storage::DbEnv env;
  UpiOptions opt = PaperOptions();
  opt.cutoff = 0.3;
  std::vector<Tuple> tuples;
  tuples.push_back(Tuple(1, 1.0,  // heap: Y first, 0.20 < C
                         {Value::String("t1"),
                          Value::Discrete(Dist({{"Y", 0.2}, {"Z", 0.15}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  tuples.push_back(Tuple(2, 1.0,  // cutoff index: Y second, 0.25 < C
                         {Value::String("t2"),
                          Value::Discrete(Dist({{"X", 0.75}, {"Y", 0.25}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  tuples.push_back(Tuple(3, 1.0,  // heap: Y first, 0.6 >= C
                         {Value::String("t3"),
                          Value::Discrete(Dist({{"Y", 0.6}, {"X", 0.4}})),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  auto upi =
      Upi::Build(&env, "a", PaperSchema(), opt, {}, tuples).ValueOrDie();
  std::vector<PtqMatch> out;
  ASSERT_TRUE(upi->OpenTopK("Y", 2)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 3u);
  EXPECT_EQ(out[1].id, 2u);  // 0.25 from the cutoff index beats 0.20
  out.clear();
  ASSERT_TRUE(upi->OpenTopK("Y", 5)->Drain(&out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].id, 1u);
}

TEST(UpiTest, BuildValidatesInputBeforeCreatingFiles) {
  // Bad secondary columns and a tuple without clustered alternatives are
  // rejected before any file exists, so the same name builds afterwards.
  storage::DbEnv env;
  const std::vector<std::vector<int>> bad_columns = {
      {-1}, {99}, {0} /* Name is a plain string */, {2, 2}};
  for (const std::vector<int>& cols : bad_columns) {
    EXPECT_EQ(Upi::Build(&env, "a", PaperSchema(), PaperOptions(), cols,
                         PaperTuples())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  std::vector<Tuple> tuples = PaperTuples();
  tuples.push_back(Tuple(4, 1.0,
                         {Value::String("Dan"), Value::String("MIT"),
                          Value::Discrete(Dist({{"US", 1.0}}))}));
  EXPECT_EQ(Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2}, tuples)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(env.TotalFileBytes(), 0u);

  auto upi = Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2},
                        PaperTuples())
                 .ValueOrDie();
  EXPECT_EQ(upi->secondary(1), nullptr);
  EXPECT_NE(upi->secondary(2), nullptr);
  EXPECT_EQ(env.TotalFileBytes(), upi->size_bytes());
}

TEST(UpiTest, FailedBuildOrMergeLeavesNoFileBehind) {
  // A tuple too large for a heap page, and two tuples with one id and one
  // first alternative (one heap key), are rejected before any file exists.
  // Two UPIs holding the same tuples repeat every heap key, so their merge
  // fails mid-stream and drops the files it created. Each retry under the
  // same name succeeds.
  storage::DbEnv env;
  const std::vector<Tuple> too_large = {
      Tuple(1, 1.0,
            {Value::String(std::string(10000, 'x')),
             Value::Discrete(Dist({{"MIT", 1.0}})),
             Value::Discrete(Dist({{"US", 1.0}}))})};
  std::vector<Tuple> twins = PaperTuples();
  twins.push_back(twins[1]);
  for (const std::vector<Tuple>& bad : {too_large, twins}) {
    EXPECT_EQ(Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2}, bad)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(env.TotalFileBytes(), 0u);
  }
  auto a = Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2},
                      PaperTuples())
               .ValueOrDie();
  auto b = Upi::Build(&env, "b", PaperSchema(), PaperOptions(), {2},
                      PaperTuples())
               .ValueOrDie();
  const uint64_t bytes = env.TotalFileBytes();
  std::set<TupleId> filtered;
  FractureSummary::Builder summary;
  EXPECT_EQ(Upi::Merge({a.get(), b.get()}, "m", PaperOptions(), {}, &filtered,
                       &summary)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(env.TotalFileBytes(), bytes);
  FractureSummary::Builder retry_summary;
  auto merged = Upi::Merge({a.get()}, "m", PaperOptions(), {}, &filtered,
                           &retry_summary)
                    .ValueOrDie();
  EXPECT_EQ(env.TotalFileBytes(), bytes + merged->size_bytes());
  std::vector<PtqMatch> rows;
  ASSERT_TRUE(merged->OpenPtq("MIT", 0.1)->Drain(&rows).ok());
  EXPECT_EQ(rows.size(), 2u);
}

TEST(UpiTest, BuildRejectsARepeatedTupleId) {
  // Two tuples with id 1 whose first alternatives (and countries) differ
  // have distinct heap and secondary keys, so only the id check catches
  // them; stored, a PTQ would return id 1 twice. The check runs before the
  // first file, so a retry succeeds.
  storage::DbEnv env;
  const std::vector<Tuple> repeated = {
      Tuple(1, 1.0,
            {Value::String("a"), Value::Discrete(Dist({{"MIT", 0.7}})),
             Value::Discrete(Dist({{"US", 1.0}}))}),
      Tuple(1, 1.0,
            {Value::String("b"),
             Value::Discrete(Dist({{"Brown", 0.6}, {"MIT", 0.4}})),
             Value::Discrete(Dist({{"Japan", 1.0}}))})};
  EXPECT_EQ(Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2}, repeated)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(env.TotalFileBytes(), 0u);
  auto upi = Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2},
                        {repeated[0]})
                 .ValueOrDie();
  std::vector<PtqMatch> rows;
  ASSERT_TRUE(upi->OpenPtq("MIT", 0.3)->Drain(&rows).ok());
  EXPECT_EQ(rows.size(), 1u);
}

TEST(UpiTest, InsertRejectsBadClusterColumn) {
  storage::DbEnv env;
  UpiOptions opt = PaperOptions();
  opt.cluster_column = 0;  // Name: not discrete
  auto upi = Upi::Build(&env, "a", PaperSchema(), opt, {}, {}).ValueOrDie();
  EXPECT_FALSE(upi->Insert(PaperTuples()[0]).ok());
  EXPECT_FALSE(upi->Delete(PaperTuples()[0]).ok());
}

TEST(UpiTest, EstimatePtqTracksTruthAfterInserts) {
  storage::DbEnv env;
  auto upi =
      Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {}, {}).ValueOrDie();
  for (const Tuple& t : PaperTuples()) ASSERT_TRUE(upi->Insert(t).ok());
  auto est = upi->EstimatePtq("MIT", 0.1);
  EXPECT_NEAR(est.heap_entries, 2.0, 0.75);  // Bob 0.95, Alice 0.18
  EXPECT_GT(est.selectivity, 0.0);
  // Deleting Bob shifts the estimate down.
  ASSERT_TRUE(upi->Delete(PaperTuples()[1]).ok());
  auto est2 = upi->EstimatePtq("MIT", 0.1);
  EXPECT_LT(est2.heap_entries, est.heap_entries);
}

TEST(UpiTest, SizeBytesCoversAllFiles) {
  storage::DbEnv env;
  auto upi = Upi::Build(&env, "a", PaperSchema(), PaperOptions(), {2},
                        PaperTuples())
                 .ValueOrDie();
  EXPECT_GE(upi->size_bytes(), upi->heap_tree()->size_bytes() +
                                   upi->cutoff_index()->size_bytes() +
                                   upi->secondary(2)->size_bytes());
}

// The entries a bulk-built UPI must hold, computed from its tuples with the
// building blocks alone: Algorithm 1's split, the key encoding, the tuple
// serialization and the pointer-list encoding under the limit. Each map
// iterates in key order.
struct ComputedEntries {
  std::map<std::string, std::string> heap, cutoff, secondary;
};

ComputedEntries ComputeEntries(const std::vector<Tuple>& tuples,
                               const UpiOptions& opt, int secondary_column) {
  ComputedEntries out;
  for (const Tuple& t : tuples) {
    const Upi::AltPartition part = Upi::PartitionAlternatives(t, opt);
    std::string bytes;
    t.Serialize(&bytes);
    const std::string first_key = EncodeUpiKey(
        part.heap_alts[0].attr, part.heap_alts[0].prob, t.id());
    for (const SecondaryPointer& alt : part.heap_alts) {
      out.heap[EncodeUpiKey(alt.attr, alt.prob, t.id())] = bytes;
    }
    for (const SecondaryPointer& alt : part.cutoff_alts) {
      out.cutoff[EncodeUpiKey(alt.attr, alt.prob, t.id())] = first_key;
    }
    // The limit keeps the first pointers and flags the list as partial.
    std::vector<SecondaryPointer> listed = part.heap_alts;
    bool has_cutoff = !part.cutoff_alts.empty();
    const int limit = opt.max_secondary_pointers;
    if (limit >= 0 && listed.size() > static_cast<size_t>(limit)) {
      listed.resize(static_cast<size_t>(limit));
      has_cutoff = true;
    }
    std::string pointers;
    SecondaryIndex::EncodePointers(listed, has_cutoff, &pointers);
    for (const Alternative& alt :
         t.Get(secondary_column).discrete().alternatives()) {
      out.secondary[EncodeUpiKey(alt.value, t.existence() * alt.prob,
                                 t.id())] = pointers;
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> TreeEntries(
    const btree::BTree& tree) {
  std::vector<std::pair<std::string, std::string>> out;
  for (btree::Cursor c = tree.SeekToFirst(); c.Valid(); c.Next()) {
    out.emplace_back(std::string(c.key()), std::string(c.value()));
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> InOrder(
    const std::map<std::string, std::string>& entries) {
  return {entries.begin(), entries.end()};
}

void ExpectSameEntries(const Upi& a, const Upi& b, int secondary_column) {
  EXPECT_TRUE(TreeEntries(*a.heap_tree()) == TreeEntries(*b.heap_tree()));
  EXPECT_TRUE(TreeEntries(*a.cutoff_index()->tree()) ==
              TreeEntries(*b.cutoff_index()->tree()));
  EXPECT_TRUE(TreeEntries(*a.secondary(secondary_column)->tree()) ==
              TreeEntries(*b.secondary(secondary_column)->tree()));
}

TEST(UpiBulkPropertyTest, BuildAndMergeHoldExactlyTheComputedEntries) {
  // Generated publication sets with a Country secondary index, over pointer
  // limits and cutoffs. Build writes exactly the entries computed from the
  // tuples, in key order. A merge of two or three fractures with a delete
  // set, at a cutoff at or above theirs (and a pointer limit at or below
  // theirs), writes exactly what Build writes over the live tuples at that
  // cutoff and limit, with the same tuple and heap leaf counts.
  const int kSec = datagen::PublicationCols::kCountry;
  const Schema schema = datagen::DblpGenerator::PublicationSchema();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    datagen::DblpConfig cfg = datagen::DblpConfig{}.Scaled(0.004);
    cfg.seed = seed;
    datagen::DblpGenerator gen(cfg);
    const std::vector<Tuple> pubs =
        gen.GeneratePublications(gen.GenerateAuthors());
    Rng rng(seed);
    UpiOptions opt;
    opt.cluster_column = datagen::PublicationCols::kInstitution;
    opt.max_secondary_pointers = std::vector<int>{-1, 1, 2, 10}[seed % 4];
    opt.cutoff = 0.05 + 0.25 * rng.NextDouble();

    storage::DbEnv env;
    auto built =
        Upi::Build(&env, "built", schema, opt, {kSec}, pubs).ValueOrDie();
    const ComputedEntries want = ComputeEntries(pubs, opt, kSec);
    EXPECT_TRUE(TreeEntries(*built->heap_tree()) == InOrder(want.heap));
    EXPECT_TRUE(TreeEntries(*built->cutoff_index()->tree()) ==
                InOrder(want.cutoff));
    EXPECT_TRUE(TreeEntries(*built->secondary(kSec)->tree()) ==
                InOrder(want.secondary));
    EXPECT_EQ(built->num_tuples(), pubs.size());

    // Fractures at cutoffs at or below the merge's, and a delete set.
    const size_t num_fractures = 2 + seed % 2;
    const double merged_cutoff =
        seed % 3 == 0 ? opt.cutoff : std::min(0.35, opt.cutoff + 0.1);
    std::vector<std::vector<Tuple>> parts(num_fractures);
    std::set<TupleId> deleted;
    std::vector<Tuple> live;
    for (const Tuple& t : pubs) {
      parts[rng.Uniform(num_fractures)].push_back(t);
      if (rng.Uniform(10) == 0) {
        deleted.insert(t.id());
      } else {
        live.push_back(t);
      }
    }
    std::vector<std::unique_ptr<Upi>> fractures;
    std::vector<const Upi*> sources;
    for (size_t f = 0; f < num_fractures; ++f) {
      UpiOptions fopt = opt;
      if (f > 0) fopt.cutoff = rng.UniformDouble(0.05, opt.cutoff);
      FractureSummary::Builder summary;
      fractures.push_back(Upi::Build(&env, "f" + std::to_string(f), schema,
                                     fopt, {kSec}, parts[f], &summary)
                              .ValueOrDie());
      sources.push_back(fractures.back().get());
    }
    UpiOptions mopt = opt;
    mopt.cutoff = merged_cutoff;
    // A merge may also lower the pointer limit, as a rebuild would.
    if (seed > 4) mopt.max_secondary_pointers = 1;
    std::set<TupleId> filtered;
    FractureSummary::Builder summary;
    auto merged = Upi::Merge(sources, "merged", mopt, deleted, &filtered,
                             &summary)
                      .ValueOrDie();
    storage::DbEnv ref_env;
    auto rebuilt =
        Upi::Build(&ref_env, "rebuilt", schema, mopt, {kSec}, live)
            .ValueOrDie();
    ExpectSameEntries(*merged, *rebuilt, kSec);
    EXPECT_EQ(merged->options().cutoff, merged_cutoff);
    EXPECT_EQ(merged->num_tuples(), rebuilt->num_tuples());
    EXPECT_EQ(merged->heap_tree()->num_leaf_pages(),
              rebuilt->heap_tree()->num_leaf_pages());
    EXPECT_EQ(filtered, deleted);
  }
}

}  // namespace
}  // namespace upi::core
