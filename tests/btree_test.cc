#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "common/check.h"
#include "common/coding.h"
#include "common/random.h"
#include "storage/db_env.h"

namespace upi::btree {
namespace {

struct Fixture {
  sim::SimDisk disk;
  storage::PageFile file{&disk, "btree", 4096};
  storage::BufferPool pool{64 << 20};
  storage::Pager pager{&pool, &file};
};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

TEST(BTreeTest, EmptyTree) {
  Fixture fx;
  BTree t(fx.pager);
  EXPECT_EQ(t.num_entries(), 0u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_TRUE(t.Get("nope").status().IsNotFound());
  EXPECT_FALSE(t.SeekToFirst().Valid());
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BTreeTest, PutGetSingle) {
  Fixture fx;
  BTree t(fx.pager);
  EXPECT_TRUE(t.Put("hello", "world").ValueOrDie());
  EXPECT_EQ(t.Get("hello").ValueOrDie(), "world");
  EXPECT_EQ(t.num_entries(), 1u);
}

TEST(BTreeTest, PutIsUpsert) {
  Fixture fx;
  BTree t(fx.pager);
  EXPECT_TRUE(t.Put("k", "v1").ValueOrDie());
  EXPECT_FALSE(t.Put("k", "v2").ValueOrDie());  // replaced, not added
  EXPECT_EQ(t.Get("k").ValueOrDie(), "v2");
  EXPECT_EQ(t.num_entries(), 1u);
}

TEST(BTreeTest, ManySequentialInsertsSplit) {
  Fixture fx;
  BTree t(fx.pager);
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(t.Put(Key(i), "value" + std::to_string(i)).ok());
  }
  EXPECT_EQ(t.num_entries(), static_cast<uint64_t>(kN));
  EXPECT_GT(t.height(), 1u);
  ASSERT_TRUE(t.ValidateInvariants().ok());
  for (int i = 0; i < kN; i += 37) {
    EXPECT_EQ(t.Get(Key(i)).ValueOrDie(), "value" + std::to_string(i));
  }
}

TEST(BTreeTest, ReverseOrderInserts) {
  Fixture fx;
  BTree t(fx.pager);
  for (int i = 1999; i >= 0; --i) ASSERT_TRUE(t.Put(Key(i), "v").ok());
  ASSERT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  Cursor c = t.SeekToFirst();
  int i = 0;
  for (; c.Valid(); c.Next()) {
    EXPECT_EQ(c.key(), Key(i++));
  }
  EXPECT_EQ(i, 2000);
}

TEST(BTreeTest, SeekLowerBound) {
  Fixture fx;
  BTree t(fx.pager);
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(t.Put(Key(i), "v").ok());
  Cursor c = t.Seek(Key(31));
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), Key(32));
  c = t.Seek(Key(98));
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), Key(98));
  c = t.Seek(Key(99));
  EXPECT_FALSE(c.Valid());
}

TEST(BTreeTest, CursorIteratesRange) {
  Fixture fx;
  BTree t(fx.pager);
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(t.Put(Key(i), std::to_string(i)).ok());
  Cursor c = t.Seek(Key(100));
  int i = 100;
  while (c.Valid() && c.key() < Key(200)) {
    EXPECT_EQ(c.value(), std::to_string(i));
    ++i;
    c.Next();
  }
  EXPECT_EQ(i, 200);
}

TEST(BTreeTest, DeleteSimple) {
  Fixture fx;
  BTree t(fx.pager);
  ASSERT_TRUE(t.Put("a", "1").ok());
  ASSERT_TRUE(t.Put("b", "2").ok());
  ASSERT_TRUE(t.Delete("a").ok());
  EXPECT_TRUE(t.Get("a").status().IsNotFound());
  EXPECT_EQ(t.Get("b").ValueOrDie(), "2");
  EXPECT_EQ(t.num_entries(), 1u);
  EXPECT_TRUE(t.Delete("a").IsNotFound());
}

TEST(BTreeTest, DeleteEverythingThenReuse) {
  Fixture fx;
  BTree t(fx.pager);
  const int kN = 1200;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Put(Key(i), "v").ok());
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Delete(Key(i)).ok()) << i;
  EXPECT_EQ(t.num_entries(), 0u);
  ASSERT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  EXPECT_FALSE(t.SeekToFirst().Valid());
  // Tree shrinks back to (near) a single leaf.
  EXPECT_LE(t.height(), 2u);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.Put(Key(i), "again").ok());
  EXPECT_EQ(t.Get(Key(50)).ValueOrDie(), "again");
}

TEST(BTreeTest, MergeFreesPagesForReuse) {
  Fixture fx;
  BTree t(fx.pager);
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Put(Key(i), std::string(40, 'x')).ok());
  uint64_t size_full = t.size_bytes();
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Delete(Key(i)).ok());
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(t.Put(Key(i), std::string(40, 'y')).ok());
  // Reinserting the same data reuses freed pages: footprint must not double.
  EXPECT_LT(t.size_bytes(), size_full * 3 / 2);
  ASSERT_TRUE(t.ValidateInvariants().ok());
}

TEST(BTreeTest, LargeValuesNearPageSize) {
  Fixture fx;
  BTree t(fx.pager);
  std::string big(900, 'z');
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(t.Put(Key(i), big).ok());
  ASSERT_TRUE(t.ValidateInvariants().ok());
  EXPECT_EQ(t.Get(Key(25)).ValueOrDie(), big);
}

TEST(BTreeTest, RejectsEntryLargerThanPage) {
  Fixture fx;
  BTree t(fx.pager);
  std::string huge(5000, 'z');
  EXPECT_FALSE(t.Put("k", huge).ok());
}

TEST(BTreeTest, BinaryKeysWithEmbeddedZeros) {
  Fixture fx;
  BTree t(fx.pager);
  std::string k1("a\0b", 3), k2("a\0c", 3), k3("a\x01", 2);
  ASSERT_TRUE(t.Put(k1, "1").ok());
  ASSERT_TRUE(t.Put(k2, "2").ok());
  ASSERT_TRUE(t.Put(k3, "3").ok());
  EXPECT_EQ(t.Get(k1).ValueOrDie(), "1");
  Cursor c = t.SeekToFirst();
  EXPECT_EQ(c.key(), std::string_view(k1));
}

// --- Property test: random interleaved puts/deletes vs std::map oracle. ---

/// A full SeekToFirst scan must equal the oracle exactly, in order.
void ExpectScanMatches(const BTree& t,
                       const std::map<std::string, std::string>& oracle) {
  auto it = oracle.begin();
  for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next(), ++it) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(c.key(), it->first);
    EXPECT_EQ(c.value(), it->second);
  }
  EXPECT_EQ(it, oracle.end());
}

class BTreeRandomOpsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeRandomOpsTest, MatchesMapOracle) {
  Fixture fx;
  BTree t(fx.pager);
  std::map<std::string, std::string> oracle;
  Rng rng(GetParam());
  const int kOps = 6000;
  for (int op = 0; op < kOps; ++op) {
    int key_i = static_cast<int>(rng.Uniform(800));
    std::string key = Key(key_i);
    double dice = rng.NextDouble();
    if (dice < 0.55) {
      std::string value = "v";
      value += std::to_string(rng.Uniform(100000));
      bool added = t.Put(key, value).ValueOrDie();
      EXPECT_EQ(added, oracle.find(key) == oracle.end());
      oracle[key] = value;
    } else if (dice < 0.85) {
      Status st = t.Delete(key);
      EXPECT_EQ(st.ok(), oracle.erase(key) > 0) << st.ToString();
    } else {
      auto r = t.Get(key);
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_TRUE(r.status().IsNotFound());
      } else {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value(), it->second);
      }
      // Seek at a random bound, often between stored keys, lands on the
      // oracle's lower bound and walks on in order (across leaves).
      std::string bound = rng.Bernoulli(0.5) ? key : key + "~";
      auto oit = oracle.lower_bound(bound);
      Cursor c = t.Seek(bound);
      for (int step = 0; step < 40 && oit != oracle.end(); ++step, ++oit) {
        ASSERT_TRUE(c.Valid()) << "seek " << bound << " step " << step;
        EXPECT_EQ(c.key(), oit->first);
        EXPECT_EQ(c.value(), oit->second);
        c.Next();
      }
      if (oit == oracle.end()) {
        EXPECT_FALSE(c.Valid()) << "seek " << bound;
      }
    }
    if (op % 1000 == 999) ExpectScanMatches(t, oracle);
  }
  EXPECT_EQ(t.num_entries(), oracle.size());
  ASSERT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  ExpectScanMatches(t, oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomOpsTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Bulk load ---

TEST(BTreeBuilderTest, EmptyBuild) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  BTree t = b.Finish().ValueOrDie();
  EXPECT_EQ(t.num_entries(), 0u);
  EXPECT_FALSE(t.SeekToFirst().Valid());
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BTreeBuilderTest, SingleLeaf) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  ASSERT_TRUE(b.Add("a", "1").ok());
  ASSERT_TRUE(b.Add("b", "2").ok());
  BTree t = b.Finish().ValueOrDie();
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.Get("a").ValueOrDie(), "1");
  EXPECT_TRUE(t.ValidateInvariants().ok());
}

TEST(BTreeBuilderTest, RejectsOutOfOrderKeys) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  ASSERT_TRUE(b.Add("b", "1").ok());
  EXPECT_FALSE(b.Add("a", "2").ok());
  EXPECT_FALSE(b.Add("b", "2").ok());  // duplicates rejected too
}

class BTreeBuilderSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeBuilderSizeTest, BuildsValidTreeMatchingInserts) {
  const int kN = GetParam();
  Fixture fx;
  BTreeBuilder b(fx.pager);
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(b.Add(Key(i), "val" + std::to_string(i)).ok());
  }
  BTree t = b.Finish().ValueOrDie();
  EXPECT_EQ(t.num_entries(), static_cast<uint64_t>(kN));
  ASSERT_TRUE(t.ValidateInvariants().ok()) << t.ValidateInvariants().ToString();
  int i = 0;
  for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next()) {
    ASSERT_EQ(c.key(), Key(i));
    EXPECT_EQ(c.value(), "val" + std::to_string(i));
    ++i;
  }
  EXPECT_EQ(i, kN);
  // The built tree accepts further inserts.
  ASSERT_TRUE(t.Put(Key(kN), "extra").ok());
  EXPECT_EQ(t.Get(Key(kN)).ValueOrDie(), "extra");
  ASSERT_TRUE(t.ValidateInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreeBuilderSizeTest,
                         ::testing::Values(1, 2, 50, 120, 121, 1000, 20000));

TEST(BTreeBuilderTest, LeavesArePhysicallySequential) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(b.Add(Key(i), std::string(30, 'v')).ok());
  BTree t = b.Finish().ValueOrDie();
  fx.pool.DropAll();
  fx.disk.ResetHead();
  // A full scan of a bulk-loaded tree should be nearly all sequential:
  // seeks only for the initial descent and occasional internal-node hops.
  sim::StatsWindow w(&fx.disk);
  uint64_t n = 0;
  for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next()) ++n;
  EXPECT_EQ(n, 5000u);
  sim::DiskStats d = w.Delta();
  uint64_t leaf_pages = t.num_leaf_pages();
  EXPECT_LT(d.seeks, leaf_pages / 10 + 10)
      << "bulk-loaded scan should be sequential; " << d.seeks << " seeks over "
      << leaf_pages << " leaves";
}

TEST(BTreeFragmentationTest, RandomInsertsScatterLeafChain) {
  // The Section 4.1 effect: after heavy random insertion, a range scan pays
  // far more seeks than on a freshly bulk-loaded tree of the same content.
  Fixture fx;
  BTreeBuilder b(fx.pager);
  for (int i = 0; i < 8000; i += 2) ASSERT_TRUE(b.Add(Key(i), std::string(60, 'v')).ok());
  BTree t = b.Finish().ValueOrDie();

  auto scan_seeks = [&]() {
    fx.pool.FlushAll();
    fx.pool.DropAll();
    fx.disk.ResetHead();
    sim::StatsWindow w(&fx.disk);
    for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next()) {
    }
    return w.Delta().seeks;
  };

  uint64_t seeks_fresh = scan_seeks();
  // Insert the odd keys in random order — splits scatter pages.
  std::vector<int> odds;
  for (int i = 1; i < 8000; i += 2) odds.push_back(i);
  Rng rng(99);
  std::shuffle(odds.begin(), odds.end(), rng.engine());
  for (int i : odds) ASSERT_TRUE(t.Put(Key(i), std::string(60, 'v')).ok());
  ASSERT_TRUE(t.ValidateInvariants().ok());

  uint64_t seeks_after = scan_seeks();
  EXPECT_GT(seeks_after, seeks_fresh * 5) << "fresh=" << seeks_fresh
                                          << " after=" << seeks_after;
}


TEST(BTreeCursorTest, ReadaheadPreservesIterationAndCutsSeeks) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  const int kN = 5000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(b.Add(Key(i), "v").ok());
  BTree t = b.Finish().ValueOrDie();

  // Interleave two cursors over the same tree to force head ping-pong.
  auto interleaved_seeks = [&](uint32_t readahead) {
    fx.pool.DropAll();
    fx.disk.ResetHead();
    sim::StatsWindow w(&fx.disk);
    Cursor a = t.SeekToFirst();
    Cursor c = t.Seek(Key(kN / 2));
    a.SetReadahead(readahead);
    c.SetReadahead(readahead);
    int n = 0;
    while (a.Valid() && c.Valid()) {
      EXPECT_EQ(a.key(), Key(n));
      a.Next();
      c.Next();
      ++n;
    }
    return w.Delta().seeks;
  };

  uint64_t without = interleaved_seeks(0);
  uint64_t with = interleaved_seeks(32);
  EXPECT_LT(with * 4, without) << "with=" << with << " without=" << without;
}

TEST(BTreeBuilderTest, OutputWritesAreBatchedSequential) {
  // The bulk loader must not pay a head movement per page.
  Fixture fx;
  fx.disk.ResetHead();
  sim::StatsWindow w(&fx.disk);
  BTreeBuilder b(fx.pager);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(b.Add(Key(i), std::string(50, 'v')).ok());
  BTree t = b.Finish().ValueOrDie();
  sim::DiskStats d = w.Delta();
  uint64_t pages = t.num_leaf_pages();
  EXPECT_GT(pages, 100u);
  EXPECT_LT(d.seeks, pages / 10)
      << "builder output should be written in large sequential batches";
}

TEST(BTreeTest, EmptyKeyAndValueSupported) {
  Fixture fx;
  BTree t(fx.pager);
  ASSERT_TRUE(t.Put("", "").ok());
  ASSERT_TRUE(t.Put("k", "").ok());
  EXPECT_EQ(t.Get("").ValueOrDie(), "");
  EXPECT_EQ(t.Get("k").ValueOrDie(), "");
  Cursor c = t.SeekToFirst();
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.key(), "");
}

TEST(BTreeTest, SeekOnEmptyTreeAndPastEnd) {
  Fixture fx;
  BTree t(fx.pager);
  EXPECT_FALSE(t.Seek("anything").Valid());
  ASSERT_TRUE(t.Put("m", "1").ok());
  EXPECT_FALSE(t.Seek("z").Valid());
  EXPECT_TRUE(t.Seek("a").Valid());
}

// Reads go through NodeView, but the pool sees the fetches one decode per
// page made: Get fetches each level once, and Seek fetches its leaf once more
// (that hit promotes the leaf in the midpoint LRU, so keeping it keeps every
// eviction, and so every simulated I/O, unchanged).
TEST(BTreeTest, ReadFetchCountsArePinned) {
  Fixture fx;
  BTreeBuilder b(fx.pager);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(b.Add(Key(i), std::string(100, 'v')).ok());
  BTree t = b.Finish().ValueOrDie();
  const uint64_t h = t.height();
  ASSERT_GE(h, 3u);
  auto fetches = [&] {
    storage::BufferPool::PoolCounters c = fx.pool.counters();
    return c.hits + c.misses;
  };
  for (bool cold : {true, false}) {
    for (int i : {0, 777, kN - 1, kN}) {  // kN is absent, past the end
      if (cold) fx.pool.DropAll();
      uint64_t before = fetches();
      (void)t.Get(Key(i));
      EXPECT_EQ(fetches() - before, h) << "Get " << i;
      before = fetches();
      Cursor c = t.Seek(Key(i));
      EXPECT_EQ(fetches() - before, h + 1) << "Seek " << i;
      EXPECT_EQ(c.Valid(), i < kN);
    }
  }
  uint64_t before = fetches();
  uint64_t n = 0;
  for (Cursor c = t.SeekToFirst(); c.Valid(); c.Next()) ++n;
  EXPECT_EQ(n, static_cast<uint64_t>(kN));
  // The descent, the first leaf's second fetch, then one fetch per leaf.
  EXPECT_EQ(fetches() - before, h + t.num_leaf_pages());
}

// The cursor shares its leaf's image: a moved or copied cursor keeps its
// entry after the source is overwritten or destroyed, also for a short leaf.
TEST(BTreeCursorTest, SurvivesMoveAndCopy) {
  Fixture fx, other;
  BTree t(fx.pager), t2(other.pager);
  ASSERT_TRUE(t.Put("a", "").ok());  // a 15-byte leaf page
  ASSERT_TRUE(t2.Put("b", "").ok());
  Cursor a = t.SeekToFirst();
  ASSERT_TRUE(a.Valid());
  Cursor moved = std::move(a);
  a = t2.SeekToFirst();  // overwrites the moved-from cursor
  ASSERT_TRUE(moved.Valid());
  EXPECT_EQ(moved.key(), "a");
  EXPECT_EQ(a.key(), "b");

  ASSERT_TRUE(t.Put("k", std::string(40, 'v')).ok());
  Cursor copy;
  {
    Cursor b = t.Seek("k");
    copy = b;
  }  // b is gone
  ASSERT_TRUE(copy.Valid());
  EXPECT_EQ(copy.key(), "k");
  EXPECT_EQ(copy.value(), std::string(40, 'v'));
  copy.Next();
  EXPECT_FALSE(copy.Valid());
}

// The cursor keeps its leaf's page image, which outlives the file: a
// dropped file's pool frames and its references to the images are gone, and
// the cursor reads on (ASan would flag a read of freed bytes).
TEST(BTreeCursorTest, KeepsReadingItsLeafAfterTheFileIsDropped) {
  storage::DbEnv env(1 << 20);
  storage::PageFile* file = env.CreateFile("t", 4096).ValueOrDie();
  BTreeBuilder b(env.MakePager(file));
  const int kN = 20;  // one leaf
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(b.Add(Key(i), Key(i + 1)).ok());
  BTree t = b.Finish().ValueOrDie();
  ASSERT_EQ(t.num_leaf_pages(), 1u);
  Cursor c = t.SeekToFirst();
  ASSERT_TRUE(c.Valid());
  env.DropFile(file);
  EXPECT_EQ(env.pool()->cached_bytes(), 0u);
  int n = 0;
  for (; c.Valid(); c.Next(), ++n) {
    EXPECT_EQ(c.key(), Key(n));
    EXPECT_EQ(c.value(), Key(n + 1));
  }
  EXPECT_EQ(n, kN);
}

// --- SortedLookup ---

// Long keys keep internal fanout low, so small trees reach height 3.
std::string WideKey(int i) { return Key(i) + std::string(100, 'w'); }

// Random ascending key lists, answered by one SortedLookup each, must match
// BTree::Get key by key: stored keys, absent keys between and beyond them
// (below the first key and past the last), repeated keys, and the first and
// last leaf's keys in every list.
void ExpectSortedLookupMatchesGet(const BTree& t, int key_space, Rng* rng) {
  for (int round = 0; round < 12; ++round) {
    const double density = round % 3 == 0 ? 0.9 : 0.05 * (round % 3);
    std::vector<std::string> keys = {"", WideKey(0), WideKey(key_space - 1),
                                     WideKey(key_space)};
    for (int i = 0; i < key_space; ++i) {
      if (rng->Bernoulli(density)) keys.push_back(WideKey(i));
      if (rng->Bernoulli(density / 4)) keys.push_back(WideKey(i) + "~");
    }
    std::sort(keys.begin(), keys.end());
    SortedLookup lookup(&t);
    for (const std::string& key : keys) {
      std::string_view value;
      Status st = lookup.Get(key, &value);
      Result<std::string> want = t.Get(key);
      ASSERT_EQ(st.ok(), want.ok()) << "key " << key;
      if (want.ok()) {
        EXPECT_EQ(value, want.value()) << "key " << key;
      } else {
        EXPECT_TRUE(st.IsNotFound()) << st.ToString();
      }
    }
  }
}

class SortedLookupPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SortedLookupPropertyTest, MatchesGetOnBulkBuiltTrees) {
  Rng rng(GetParam());
  Fixture fx;
  BTreeBuilder b(fx.pager);
  const int kSpace = 4000;
  for (int i = 0; i < kSpace; ++i) {
    if (rng.Bernoulli(0.7)) {
      ASSERT_TRUE(b.Add(WideKey(i), std::string(rng.Uniform(120), 'v')).ok());
    }
  }
  BTree t = b.Finish().ValueOrDie();
  ASSERT_GE(t.height(), 3u);
  ExpectSortedLookupMatchesGet(t, kSpace, &rng);
}

TEST_P(SortedLookupPropertyTest, MatchesGetAfterChurn) {
  // Random Puts and Deletes split and merge nodes and recycle freed pages,
  // so separators no longer equal any stored key.
  Rng rng(GetParam());
  Fixture fx;
  BTree t(fx.pager);
  const int kSpace = 3000;
  for (int op = 0; op < 12000; ++op) {
    std::string key = WideKey(static_cast<int>(rng.Uniform(kSpace)));
    if (rng.NextDouble() < 0.6) {
      ASSERT_TRUE(t.Put(key, std::string(rng.Uniform(200), 'p')).ok());
    } else {
      (void)t.Delete(key);
    }
  }
  ASSERT_TRUE(t.ValidateInvariants().ok());
  ASSERT_GE(t.height(), 3u);
  ExpectSortedLookupMatchesGet(t, kSpace, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortedLookupPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(SortedLookupTest, FetchesEachLeafOnce) {
  // One descent per leaf change: every key of the tree, with an absent key
  // after each, costs height() fetches per leaf, where Get pays them per key.
  Fixture fx;
  BTreeBuilder b(fx.pager);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) ASSERT_TRUE(b.Add(Key(i), std::string(100, 'v')).ok());
  BTree t = b.Finish().ValueOrDie();
  const uint64_t h = t.height();
  ASSERT_GE(h, 3u);
  auto fetches = [&] {
    storage::BufferPool::PoolCounters c = fx.pool.counters();
    return c.hits + c.misses;
  };
  fx.pool.DropAll();
  const uint64_t before = fetches();
  SortedLookup lookup(&t);
  std::string_view value;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(lookup.Get(Key(i), &value).ok()) << i;
    ASSERT_EQ(value, std::string(100, 'v'));
    ASSERT_TRUE(lookup.Get(Key(i) + "~", &value).IsNotFound()) << i;
  }
  ASSERT_TRUE(lookup.Get(Key(kN), &value).IsNotFound());  // past the end
  EXPECT_EQ(fetches() - before, h * t.num_leaf_pages());
}

TEST(SortedLookupTest, SurvivesMove) {
  // A moved lookup keeps the short leaf's image it took.
  Fixture fx;
  BTree t(fx.pager);
  ASSERT_TRUE(t.Put("a", "1").ok());
  ASSERT_TRUE(t.Put("b", "2").ok());
  SortedLookup lookup(&t);
  std::string_view value;
  ASSERT_TRUE(lookup.Get("a", &value).ok());
  SortedLookup moved = std::move(lookup);
  ASSERT_TRUE(moved.Get("b", &value).ok());
  EXPECT_EQ(value, "2");
}

TEST(SortedLookupDeathTest, KeysMustAscend) {
  Fixture fx;
  BTree t(fx.pager);
  ASSERT_TRUE(t.Put("b", "").ok());
  SortedLookup lookup(&t);
  std::string_view value;
  ASSERT_TRUE(lookup.Get("b", &value).ok());
  ASSERT_TRUE(lookup.Get("b", &value).ok());  // a repeat is fine
  EXPECT_DEATH((void)lookup.Get("a", &value), "ascending order");
}

// A bulk-built tree of 8 KiB pages whose leaves hold exactly seven
// 1,000-byte entries each: leaf i holds keys 7i..7i+6, leaves sit at
// consecutive device addresses, and the root comes after the last leaf.
struct GapFixture {
  static constexpr uint32_t kPage = 8192;
  static constexpr int kPerLeaf = 7;
  static constexpr int kLeaves = 40;
  sim::SimDisk disk;
  storage::PageFile file{&disk, "gaps", kPage};
  storage::BufferPool pool{64 << 20};
  storage::Pager pager{&pool, &file};
  BTree tree = Build(pager);

  static BTree Build(storage::Pager pager) {
    BTreeBuilder b(pager);
    for (int i = 0; i < kPerLeaf * kLeaves; ++i) {
      UPI_CHECK(b.Add(Key(i), std::string(1000, 'v')).ok(), "gap tree");
    }
    return b.Finish().ValueOrDie();
  }
  /// Cold pool, head position unknown.
  void Cold() {
    pool.DropAll();
    disk.ResetHead();
  }
  /// Looks up the first key of leaf `leaf` and returns the device traffic.
  sim::DiskStats GetLeaf(SortedLookup* lookup, int leaf) {
    const sim::DiskStats before = disk.stats();
    std::string_view value;
    UPI_CHECK(lookup->Get(Key(leaf * kPerLeaf), &value).ok(), "gap lookup");
    UPI_CHECK(value == std::string(1000, 'v'), "gap value");
    return disk.stats() - before;
  }
};

TEST(SortedLookupTest, ShortForwardGapIsReadThroughOnTheSpinningDisk) {
  GapFixture fx;
  ASSERT_EQ(fx.tree.height(), 2u);
  ASSERT_EQ(fx.tree.num_leaf_pages(), static_cast<uint64_t>(GapFixture::kLeaves));
  // Up to 6 pages of 8 KiB read faster than the shortest seek.
  EXPECT_TRUE(storage::ReadsThroughGap(fx.disk, 6 * GapFixture::kPage));
  EXPECT_FALSE(storage::ReadsThroughGap(fx.disk, 7 * GapFixture::kPage));
  // On flash even one page costs more to read than to skip.
  EXPECT_FALSE(storage::ReadsThroughGap(sim::SimDisk(sim::DeviceProfile::Ssd()),
                                        GapFixture::kPage));

  fx.Cold();
  SortedLookup lookup(&fx.tree);
  (void)fx.GetLeaf(&lookup, 0);  // root and leaf 0, each with a seek

  // Leaves 1-3 lie between leaf 0 and leaf 4: one read from the end of
  // leaf 0 transfers them with leaf 4, and the head is already there.
  sim::DiskStats d = fx.GetLeaf(&lookup, 4);
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.seeks, 0u);
  EXPECT_EQ(d.bytes_read, 4u * GapFixture::kPage);

  // Seven pages (leaves 5-11) cost more to read than to seek over.
  d = fx.GetLeaf(&lookup, 12);
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.seeks, 1u);
  EXPECT_EQ(d.bytes_read, uint64_t{GapFixture::kPage});

  // Per-key Get never reads forward: each leaf is its own seek.
  fx.Cold();
  (void)fx.tree.Get(Key(0));
  const sim::DiskStats before = fx.disk.stats();
  (void)fx.tree.Get(Key(4 * GapFixture::kPerLeaf));
  d = fx.disk.stats() - before;
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.seeks, 1u);
  EXPECT_EQ(d.bytes_read, uint64_t{GapFixture::kPage});
}

TEST(SortedLookupTest, NoReadThroughAfterAPoolHit) {
  // Leaf 2 is in the pool. The lookup reads leaf 0, finds leaf 2 in the
  // pool, and then must seek to leaf 4 rather than read forward from leaf 0
  // or leaf 2.
  GapFixture fx;
  fx.Cold();
  (void)fx.tree.Get(Key(2 * GapFixture::kPerLeaf));
  SortedLookup lookup(&fx.tree);
  sim::DiskStats d = fx.GetLeaf(&lookup, 0);
  EXPECT_EQ(d.reads, 1u);
  d = fx.GetLeaf(&lookup, 2);
  EXPECT_EQ(d.reads, 0u);
  d = fx.GetLeaf(&lookup, 4);
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.seeks, 1u);
  EXPECT_EQ(d.bytes_read, uint64_t{GapFixture::kPage});
  // The run starts again from leaf 4.
  d = fx.GetLeaf(&lookup, 6);
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.seeks, 0u);
  EXPECT_EQ(d.bytes_read, 2u * GapFixture::kPage);
}

}  // namespace
}  // namespace upi::btree
