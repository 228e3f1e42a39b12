#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/bulk_load.h"
#include "common/coding.h"
#include "common/random.h"

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
      std::string value = "v" + std::to_string(rng.Uniform(100000));
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

// The cursor owns its leaf bytes: a moved or copied cursor keeps its entry
// after the source is overwritten or destroyed, even when the leaf is short
// enough to be stored inline in the string (views into it would dangle).
TEST(BTreeCursorTest, SurvivesMoveAndCopy) {
  Fixture fx, other;
  BTree t(fx.pager), t2(other.pager);
  ASSERT_TRUE(t.Put("a", "").ok());  // a 15-byte leaf page
  ASSERT_TRUE(t2.Put("b", "").ok());
  Cursor a = t.SeekToFirst();
  ASSERT_TRUE(a.Valid());
  Cursor moved = std::move(a);
  a = t2.SeekToFirst();  // reuses a's inline buffer for "b"
  ASSERT_TRUE(moved.Valid());
  EXPECT_EQ(moved.key(), "a");
  EXPECT_EQ(a.key(), "b");

  ASSERT_TRUE(t.Put("k", std::string(40, 'v')).ok());
  Cursor copy;
  {
    Cursor b = t.Seek("k");
    copy = b;
  }  // b and its leaf copy are gone
  ASSERT_TRUE(copy.Valid());
  EXPECT_EQ(copy.key(), "k");
  EXPECT_EQ(copy.value(), std::string(40, 'v'));
  copy.Next();
  EXPECT_FALSE(copy.Valid());
}

}  // namespace
}  // namespace upi::btree
