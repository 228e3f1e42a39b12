#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"
#include "storage/page_file.h"
#include "storage/pager.h"

namespace upi::storage {
namespace {

TEST(PageFileTest, AllocateSequentialAddresses) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  PageId b = f.Allocate();
  EXPECT_EQ(f.AddressOf(b), f.AddressOf(a) + 4096);
  EXPECT_EQ(f.num_active_pages(), 2u);
  EXPECT_EQ(f.size_bytes(), 8192u);
}

TEST(PageFileTest, OpenIfClosedChargesOncePerColdEpoch) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageFile g(&disk, "u", 4096);
  f.OpenIfClosed();  // never opened: pays
  f.OpenIfClosed();
  EXPECT_EQ(disk.stats().file_opens, 1u);
  disk.CloseFiles();  // a new cold epoch closes every handle
  f.OpenIfClosed();
  g.OpenIfClosed();
  f.OpenIfClosed();
  EXPECT_EQ(disk.stats().file_opens, 3u);
  f.ChargeOpen();  // the per-query charge ignores the handle
  EXPECT_EQ(disk.stats().file_opens, 4u);
}

TEST(PageFileTest, ReadWriteRoundTrip) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  f.Write(a, "hello page");
  EXPECT_EQ(*f.Read(a), "hello page");
}

TEST(PageFileTest, FreeListReuse) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  f.Allocate();
  uint64_t addr_a = f.AddressOf(a);
  f.Free(a);
  PageId c = f.Allocate();
  EXPECT_EQ(c, a);  // reuses the freed slot...
  EXPECT_EQ(f.AddressOf(c), addr_a);  // ...at the same physical address
  EXPECT_EQ(f.size_bytes(), 8192u);   // footprint unchanged
}

TEST(PageFileTest, InterleavedFilesShareDiskAddressSpace) {
  sim::SimDisk disk;
  PageFile f1(&disk, "a", 4096);
  PageFile f2(&disk, "b", 4096);
  PageId p1 = f1.Allocate();
  PageId p2 = f2.Allocate();
  PageId p3 = f1.Allocate();
  // f1's two pages are NOT contiguous because f2 allocated in between.
  EXPECT_EQ(f2.AddressOf(p2), f1.AddressOf(p1) + 4096);
  EXPECT_EQ(f1.AddressOf(p3), f1.AddressOf(p1) + 8192);
}

TEST(BufferPoolTest, HitAvoidsDiskRead) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "x");
  uint64_t reads_before = disk.stats().reads;
  pool.Fetch(&f, a);
  pool.Unpin(&f, a);
  pool.Fetch(&f, a);  // hit
  pool.Unpin(&f, a);
  EXPECT_EQ(disk.stats().reads - reads_before, 1u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, CreateSkipsRead) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  uint64_t reads_before = disk.stats().reads;
  pool.Fetch(&f, a, /*create=*/true);
  *pool.MutableData(&f, a) = "fresh";
  pool.Unpin(&f, a);
  EXPECT_EQ(disk.stats().reads, reads_before);
  pool.FlushAll();
  EXPECT_EQ(*f.Read(a), "fresh");
}

TEST(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(2 * 4096);  // room for ~2 pages
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    PageId id = f.Allocate();
    pool.Fetch(&f, id, true);
    *pool.MutableData(&f, id) = "page" + std::to_string(i);
    pool.Unpin(&f, id);
    ids.push_back(id);
  }
  pool.FlushAll();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(*f.Read(ids[i]), "page" + std::to_string(i));
  }
}

TEST(BufferPoolTest, DropAllGivesColdCache) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "z");
  pool.Fetch(&f, a);
  pool.Unpin(&f, a);
  pool.DropAll();
  uint64_t reads_before = disk.stats().reads;
  pool.Fetch(&f, a);  // must hit the disk again
  pool.Unpin(&f, a);
  EXPECT_EQ(disk.stats().reads - reads_before, 1u);
}

TEST(BufferPoolTest, DiscardDropsDirtyData) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "original");
  pool.Fetch(&f, a);
  *pool.MutableData(&f, a) = "mutated";
  pool.Unpin(&f, a);
  pool.Discard(&f, a);
  EXPECT_EQ(*f.Read(a), "original");
}

TEST(BufferPoolTest, FlushLeavesAPinnedFrameDirty) {
  // The pin holder may be writing the page in place without the shard
  // latch, so a flush that copied the frame could write a torn page.
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "original");
  pool.Fetch(&f, a);
  *pool.MutableData(&f, a) = "mid-write";
  pool.FlushAll();
  pool.FlushFile(&f);
  EXPECT_EQ(*f.Read(a), "original") << "a pinned frame was copied";
  EXPECT_EQ(pool.counters().writebacks, 0u);
  pool.Unpin(&f, a);
  pool.FlushAll();
  EXPECT_EQ(*f.Read(a), "mid-write") << "the frame stays dirty until unpinned";
}

// --- Page images: each page held once ----------------------------------

TEST(BufferPoolTest, CleanPinsShareTheDeviceImage) {
  // A miss takes a reference to the device's image, not a copy: a pin before
  // the cold-cache drop and one after it return the same bytes, at the same
  // address.
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "image");
  const PageImage device = f.Read(a);
  const PageImage before = pool.Fetch(&f, a);
  pool.Unpin(&f, a);
  pool.DropAll();
  const PageImage after = pool.Fetch(&f, a);
  pool.Unpin(&f, a);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(before.get(), device.get());
  EXPECT_EQ(after.get(), device.get());
  EXPECT_EQ(pool.private_bytes(), 0u);
}

TEST(BufferPoolTest, WriteBackInstallsTheFramesBytesAsTheDeviceImage) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "v1");
  const PageImage v1 = pool.Fetch(&f, a);
  std::string* bytes = pool.MutableData(&f, a);
  EXPECT_NE(bytes, v1.get()) << "a clean frame's first write copies";
  *bytes = "v2";
  EXPECT_EQ(*v1, "v1") << "an image a reader holds never changes";
  EXPECT_EQ(pool.private_bytes(), 4096u);
  pool.Unpin(&f, a);
  pool.FlushAll();
  EXPECT_EQ(pool.private_bytes(), 0u);

  // The device took the frame's bytes, and the frame shares them.
  const PageImage v2 = f.Read(a);
  EXPECT_EQ(*v2, "v2");
  EXPECT_EQ(v2.get(), bytes);
  EXPECT_EQ(pool.Fetch(&f, a).get(), v2.get());
  std::string* again = pool.MutableData(&f, a);
  EXPECT_NE(again, v2.get()) << "a write pin copies the shared image";
  *again = "v3";
  EXPECT_EQ(f.Read(a).get(), v2.get())
      << "the device keeps the written-back bytes until the next write-back";
  EXPECT_EQ(*v2, "v2");
  pool.Unpin(&f, a);
  pool.FlushAll();
  EXPECT_EQ(*f.Read(a), "v3");
}

TEST(BufferPoolTest, ADirtyFrameIsWrittenInPlaceUnlessAReaderHoldsIt) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  pool.Fetch(&f, a, /*create=*/true, "v1");
  std::string* bytes = pool.MutableData(&f, a);
  EXPECT_EQ(pool.MutableData(&f, a), bytes) << "no reader: no copy";
  const PageImage reader = pool.Fetch(&f, a);  // a second pin
  pool.Unpin(&f, a);
  std::string* copy = pool.MutableData(&f, a);
  EXPECT_NE(copy, bytes);
  *copy = "v2";
  EXPECT_EQ(*reader, "v1");
  EXPECT_EQ(pool.private_bytes(), 4096u);  // one frame, one private copy
  pool.Unpin(&f, a);
  pool.FlushAll();
  EXPECT_EQ(*f.Read(a), "v2");
}

TEST(PagerTest, PageRefUnpinsOnDestruction) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  Pager pager(&pool, &f);
  PageId id;
  {
    PageRef ref = pager.New(&id);
    *ref.mutable_data() = "abc";
  }
  pool.DropAll();  // asserts nothing pinned
  {
    PageRef ref = pager.Get(id);
    EXPECT_EQ(*ref.data(), "abc");
  }
}

TEST(HeapFileTest, InsertReadRoundTrip) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 8192);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  Rid rid = heap.Insert("tuple-data").ValueOrDie();
  std::string out;
  ASSERT_TRUE(heap.Read(rid, &out).ok());
  EXPECT_EQ(out, "tuple-data");
  EXPECT_EQ(heap.live_records(), 1u);
}

TEST(HeapFileTest, DeleteLeavesHole) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 8192);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  Rid a = heap.Insert("a").ValueOrDie();
  Rid b = heap.Insert("b").ValueOrDie();
  ASSERT_TRUE(heap.Delete(a).ok());
  std::string out;
  EXPECT_TRUE(heap.Read(a, &out).IsNotFound());
  ASSERT_TRUE(heap.Read(b, &out).ok());
  EXPECT_EQ(out, "b");
  EXPECT_EQ(heap.live_records(), 1u);
  // Double delete reports NotFound.
  EXPECT_TRUE(heap.Delete(a).IsNotFound());
}

TEST(HeapFileTest, SpillsToNewPages) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 4096);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  std::string record(1000, 'x');
  for (int i = 0; i < 20; ++i) heap.Insert(record).ValueOrDie();
  EXPECT_GT(heap.num_pages(), 4u);
  EXPECT_EQ(heap.live_records(), 20u);
}

TEST(HeapFileTest, ScanVisitsLiveRecordsInOrder) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 4096);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  std::vector<Rid> rids;
  for (int i = 0; i < 50; ++i) {
    rids.push_back(heap.Insert("rec" + std::to_string(i)).ValueOrDie());
  }
  ASSERT_TRUE(heap.Delete(rids[10]).ok());
  ASSERT_TRUE(heap.Delete(rids[20]).ok());
  std::set<std::string> seen;
  heap.Scan([&](Rid, std::string_view rec) {
    seen.insert(std::string(rec));
    return true;
  });
  EXPECT_EQ(seen.size(), 48u);
  EXPECT_FALSE(seen.contains("rec10"));
  EXPECT_TRUE(seen.contains("rec11"));
}

TEST(HeapFileTest, ScanEarlyStop) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 4096);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  for (int i = 0; i < 10; ++i) heap.Insert("r").ValueOrDie();
  int count = 0;
  heap.Scan([&](Rid, std::string_view) { return ++count < 3; });
  EXPECT_EQ(count, 3);
}

TEST(HeapFileTest, RejectsOversizedRecord) {
  sim::SimDisk disk;
  PageFile f(&disk, "heap", 4096);
  BufferPool pool(1 << 20);
  HeapFile heap(Pager(&pool, &f));
  std::string record(5000, 'x');
  EXPECT_FALSE(heap.Insert(record).ok());
}

// --- Pin-protocol invariants: hard checks that fire in every build type ----
// (These used to be plain asserts, compiled out under RelWithDebInfo, so
// Unpin of an unmapped frame dereferenced frames_.end() in release builds.)

TEST(BufferPoolDeathTest, UnpinOfUnmappedFrameAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  EXPECT_DEATH(pool.Unpin(&f, a), "no mapped frame");
}

TEST(BufferPoolDeathTest, DoubleUnpinAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "x");
  pool.Fetch(&f, a);
  pool.Unpin(&f, a);
  EXPECT_DEATH(pool.Unpin(&f, a), "unpinned frame");
}

TEST(BufferPoolDeathTest, MutableDataOfUnmappedFrameAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  EXPECT_DEATH(pool.MutableData(&f, a), "no mapped frame");
}

TEST(BufferPoolDeathTest, DiscardOfPinnedPageAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  f.Write(a, "x");
  pool.Fetch(&f, a);  // stays pinned
  EXPECT_DEATH(pool.Discard(&f, a), "pinned");
}

TEST(PageFileDeathTest, ReadOfFreedPageAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  f.Free(a);
  EXPECT_DEATH(f.Read(a), "freed page");
}

TEST(PageFileDeathTest, DoubleFreeAborts) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  PageId a = f.Allocate();
  f.Free(a);
  EXPECT_DEATH(f.Free(a), "already-freed");
}

// --- Recycled PageId regression ------------------------------------------
// A page freed without going through this pool's Discard (e.g. freed via a
// different Pager layered on the same file) can leave a stale resident
// frame; Fetch(create=true) must hand back a fresh page, not the old bytes.

TEST(BufferPoolTest, RecycledPageIdGetsFreshFrame) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  PageId a = f.Allocate();
  pool.Fetch(&f, a, /*create=*/true);
  *pool.MutableData(&f, a) = "stale bytes";
  pool.Unpin(&f, a);
  f.Free(a);                  // bypasses pool.Discard on purpose
  PageId b = f.Allocate();
  ASSERT_EQ(b, a);            // recycled
  EXPECT_TRUE(pool.Fetch(&f, b, /*create=*/true)->empty())
      << "stale frame returned for a fresh page";
  *pool.MutableData(&f, b) = "fresh";
  pool.Unpin(&f, b);
  pool.FlushAll();            // create-path frames must reach the device
  EXPECT_EQ(*f.Read(b), "fresh");
}

// --- Capacity accounting ---------------------------------------------------

TEST(BufferPoolTest, NeverExceedsCapacityWithUnpinnedFramesAvailable) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  const uint64_t capacity = 4 * 4096;
  BufferPool pool(capacity, /*num_shards=*/1);
  for (int i = 0; i < 16; ++i) {
    PageId id = f.Allocate();
    pool.Fetch(&f, id, /*create=*/true);
    std::string* data = pool.MutableData(&f, id);
    *data = "p";
    *data += std::to_string(i);
    pool.Unpin(&f, id);
    EXPECT_LE(pool.cached_bytes(), capacity) << "after page " << i;
  }
  EXPECT_EQ(pool.cached_bytes(), capacity);  // exactly full, no overshoot
}

// --- Sharding --------------------------------------------------------------

TEST(BufferPoolTest, PagesSpreadAcrossShards) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(64 << 20);
  ASSERT_EQ(pool.num_shards(), BufferPool::kDefaultShards);
  std::set<size_t> used;
  for (PageId id = 0; id < 256; ++id) {
    size_t shard = pool.ShardIndexOf(&f, id);
    ASSERT_LT(shard, pool.num_shards());
    used.insert(shard);
  }
  // 256 consecutive ids over 16 shards: a lopsided hash would funnel them
  // into a few shards and serialize clients again.
  EXPECT_GE(used.size(), pool.num_shards() - 2);
}

TEST(BufferPoolTest, ShardPlacementIsStableAcrossEnvironments) {
  // Two environments that create the same files in the same order place
  // every page in the same shard: placement follows creation order, not
  // where the allocator happened to put each PageFile.
  DbEnv a, b;
  std::vector<PageFile*> files_a, files_b;
  for (int i = 0; i < 4; ++i) {
    std::string name = "f" + std::to_string(i);
    files_a.push_back(a.CreateFile(name, 4096).ValueOrDie());
    files_b.push_back(b.CreateFile(name, 4096).ValueOrDie());
  }
  for (size_t f = 0; f < files_a.size(); ++f) {
    for (PageId id = 0; id < 64; ++id) {
      ASSERT_EQ(a.pool()->ShardIndexOf(files_a[f], id),
                b.pool()->ShardIndexOf(files_b[f], id))
          << "file " << f << " page " << id;
    }
  }
}

// --- Scan resistance (midpoint insertion) ---------------------------------

TEST(BufferPoolTest, FullScanDoesNotEvictHotPages) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(8 * 4096, /*num_shards=*/1);
  // Resident set: 8 one-touch pages...
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    PageId id = f.Allocate();
    std::string record = "r";
    record += std::to_string(i);
    f.Write(id, record);
    pool.Fetch(&f, id);
    pool.Unpin(&f, id);
    ids.push_back(id);
  }
  // ...of which two become hot via re-reference.
  for (int i = 0; i < 2; ++i) {
    pool.Fetch(&f, ids[i]);
    pool.Unpin(&f, ids[i]);
  }
  // A 50-page one-touch scan churns through the pool.
  for (int i = 0; i < 50; ++i) {
    PageId id = f.Allocate();
    f.Write(id, "scan");
    pool.Fetch(&f, id);
    pool.Unpin(&f, id);
  }
  // The hot pages survived the scan: re-fetching them costs no disk read.
  uint64_t reads_before = disk.stats().reads;
  for (int i = 0; i < 2; ++i) {
    pool.Fetch(&f, ids[i]);
    pool.Unpin(&f, ids[i]);
  }
  EXPECT_EQ(disk.stats().reads, reads_before);
}

// --- Loading-frame wait path -----------------------------------------------

TEST(BufferPoolTest, ConcurrentFetchersOfOnePageShareOneRead) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  BufferPool pool(1 << 20);
  for (int iter = 0; iter < 8; ++iter) {
    PageId id = f.Allocate();
    std::string payload = "page-" + std::to_string(iter);
    f.Write(id, payload);
    uint64_t reads_before = disk.stats().reads;
    constexpr int kFetchers = 4;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kFetchers; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kFetchers) {}  // start the stampede together
        EXPECT_EQ(*pool.Fetch(&f, id), payload);
        pool.Unpin(&f, id);
      });
    }
    for (auto& t : threads) t.join();
    // One fetcher loaded; the rest waited on the loading frame's condvar.
    EXPECT_EQ(disk.stats().reads - reads_before, 1u);
  }
}

// --- Threaded stress (run under TSan in CI) --------------------------------

TEST(BufferPoolStressTest, MixedTrafficAcrossShards) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  // Small pool so the workload constantly evicts and writes back.
  BufferPool pool(24 * 4096);
  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 32;
  constexpr int kIters = 400;
  // Pre-allocate so Allocate/Fetch interleaving is not part of this test.
  std::vector<PageId> ids;
  for (int i = 0; i < kThreads * kPagesPerThread; ++i) ids.push_back(f.Allocate());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns a disjoint page range (the single-writer-per-page
      // contract); reads, writes, discards, and evictions still collide on
      // shards, frames, and the disk from all threads.
      std::mt19937 rng(t);
      std::vector<int> version(kPagesPerThread, -1);
      for (int i = 0; i < kIters; ++i) {
        int slot = static_cast<int>(rng() % kPagesPerThread);
        PageId id = ids[t * kPagesPerThread + slot];
        bool fresh = version[slot] < 0;
        {
          const PageImage page = pool.Fetch(&f, id, /*create=*/fresh);
          if (!fresh) {
            EXPECT_EQ(*page, std::to_string(version[slot])) << "page " << id;
          }
        }
        version[slot] = i;
        *pool.MutableData(&f, id) = std::to_string(i);
        pool.Unpin(&f, id);
        if (rng() % 64 == 0) {
          // Forget a page entirely; next touch recreates it.
          pool.Discard(&f, id);
          version[slot] = -1;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(pool.misses(), 0u);
  pool.FlushAll();
  // Victims come from the missing page's own shard, so a shard whose frames
  // are all pinned (or empty) may overshoot by its incoming page; the global
  // bound under sharding is capacity plus one page per shard. (The exact
  // bound is asserted by NeverExceedsCapacityWithUnpinnedFramesAvailable,
  // which runs single-sharded.)
  EXPECT_LE(pool.cached_bytes(), 24 * 4096u + pool.num_shards() * 4096u);
}

TEST(PageFileStressTest, ConcurrentAllocateWriteFree) {
  sim::SimDisk disk;
  PageFile f(&disk, "t", 4096);
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        PageId id = f.Allocate();
        std::string payload = std::to_string(t) + ":" + std::to_string(i);
        f.Write(id, payload);
        EXPECT_EQ(*f.Read(id), payload);
        f.Free(id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(f.num_active_pages(), 0u);
}

TEST(DbEnvTest, DuplicateFileNameIsRejected) {
  // Regression: CreateFile used to silently create a second file under an
  // existing name, shadowing live data.
  DbEnv env;
  ASSERT_TRUE(env.CreateFile("t.heap", 4096).ok());
  auto dup = env.CreateFile("t.heap", 4096);
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_NE(dup.status().message().find("t.heap"), std::string::npos);
  // Distinct names still work.
  EXPECT_TRUE(env.CreateFile("t.cutoff", 4096).ok());
}

/// Creates `pages` pages of `file` through the pool, each holding its name
/// and index, left dirty.
void FillDirty(DbEnv& env, PageFile* file, int pages) {
  Pager pager = env.MakePager(file);
  for (int i = 0; i < pages; ++i) {
    PageId id;
    PageRef ref = pager.New(&id);
    *ref.mutable_data() = file->name() + std::to_string(i);
  }
}

TEST(DbEnvTest, NewFilesDropsWhatAFailedBuildCreated) {
  // A build that does not call Keep leaves no file behind, also one it wrote
  // through the pool; a kept build's files stay. A name in use is a Status,
  // and the guard drops only the files it created.
  DbEnv env(1 << 20);
  ASSERT_TRUE(env.CreateFile("other", 4096).ok());
  {
    NewFiles files(&env);
    PageFile* direct = files.Create("t.direct", 4096).ValueOrDie();
    direct->Write(direct->Allocate(), "direct");
    FillDirty(env, files.Create("t.pooled", 4096).ValueOrDie(), 2);
    EXPECT_TRUE(files.Create("other", 4096).status().IsAlreadyExists());
    EXPECT_EQ(env.TotalFileBytes(), 3u * 4096);
  }
  EXPECT_EQ(env.TotalFileBytes(), 0u);
  EXPECT_EQ(env.pool()->cached_bytes(), 0u);
  {
    NewFiles files(&env);
    ASSERT_TRUE(files.Create("t.direct", 4096).ok());
    files.Keep();
  }
  EXPECT_TRUE(env.CreateFile("t.direct", 4096).status().IsAlreadyExists());
  EXPECT_TRUE(env.CreateFile("other", 4096).status().IsAlreadyExists());
}

TEST(DbEnvTest, DropFileReleasesItsFramesAndBytes) {
  DbEnv env(1 << 20);
  PageFile* keep = env.CreateFile("keep", 4096).ValueOrDie();
  PageFile* gone = env.CreateFile("gone", 4096).ValueOrDie();
  FillDirty(env, keep, 4);
  FillDirty(env, gone, 4);
  env.pool()->FlushAll();
  ASSERT_EQ(env.pool()->cached_bytes(), 8u * 4096);
  ASSERT_EQ(env.TotalFileBytes(), 8u * 4096);
  const BufferPool::PoolCounters before = env.pool()->counters();
  const uint64_t disk_writes = env.disk()->stats().writes;

  // Written back already: nothing is written on the way out.
  env.DropFile(gone);
  EXPECT_EQ(env.pool()->cached_bytes(), 4u * 4096);
  EXPECT_EQ(env.TotalFileBytes(), 4u * 4096);
  EXPECT_EQ(env.pool()->counters().writebacks, before.writebacks);
  EXPECT_EQ(env.pool()->counters().evictions, before.evictions);
  EXPECT_EQ(env.disk()->stats().writes, disk_writes);
  const obs::MetricsSnapshot snap = env.metrics()->Snapshot();
  const obs::Sample* file_bytes = snap.Find("upi_storage_file_bytes");
  ASSERT_NE(file_bytes, nullptr);
  EXPECT_EQ(file_bytes->value, 4.0 * 4096);

  // The surviving file still hits in the pool.
  {
    PageRef ref = env.MakePager(keep).Get(0);
    EXPECT_EQ(*ref.data(), "keep0");
  }
  EXPECT_EQ(env.pool()->hits(), before.hits + 1);

  // The name is free again, and the new file's first fetch misses: no frame
  // of the dropped file can answer for it, even at a recycled address.
  PageFile* again = env.CreateFile("gone", 4096).ValueOrDie();
  PageId id = again->Allocate();
  again->Write(id, "fresh");
  const uint64_t misses = env.pool()->misses();
  {
    PageRef ref = env.MakePager(again).Get(id);
    EXPECT_EQ(*ref.data(), "fresh");
  }
  EXPECT_EQ(env.pool()->misses(), misses + 1);
}

TEST(DbEnvTest, FlushSkipsTheKeysOfAFileDroppedMidFlush) {
  // A FlushAll snapshots its dirty keys, then writes them back one by one.
  // Another thread may drop a file whose keys it holds (a merge releasing a
  // fracture) before it reaches them. Those keys must then miss without
  // touching the destroyed PageFile (ASan catches a read of it), and must
  // not write back the dirty page of a new file at the same address.
  constexpr int kBallast = 1000;
  DbEnv env(64 << 20);
  // Flushed first: the flush writes back in file-name order.
  PageFile* ballast = env.CreateFile("a.ballast", 4096).ValueOrDie();
  PageFile* doomed = env.CreateFile("b.doomed", 4096).ValueOrDie();
  FillDirty(env, ballast, kBallast);
  FillDirty(env, doomed, 2);
  // Each write now sleeps, so the flush below is still in the ballast while
  // this thread drops `doomed` and creates its successor.
  env.disk()->SetRealtimeScale(1000.0);
  const uint64_t writes = env.disk()->stats().writes;
  std::thread flusher([&env] { env.pool()->FlushAll(); });
  // Its first write means its keys are collected, `doomed`'s among them.
  while (env.disk()->stats().writes == writes) std::this_thread::yield();
  env.pool()->FlushFile(doomed);
  env.DropFile(doomed);
  PageFile* successor = env.CreateFile("b.successor", 4096).ValueOrDie();
  FillDirty(env, successor, 1);
  flusher.join();
  env.disk()->SetRealtimeScale(0.0);

  // The ballast and `doomed` were written once each; the successor's page
  // was never collected, so it is still dirty.
  EXPECT_EQ(env.disk()->stats().writes, writes + kBallast + 2);
  env.pool()->FlushAll();
  EXPECT_EQ(env.disk()->stats().writes, writes + kBallast + 3);
  EXPECT_EQ(env.TotalFileBytes(), (kBallast + 1) * 4096u);
}

TEST(DbEnvDeathTest, DropFileWithADirtyPageAborts) {
  DbEnv env(1 << 20);
  PageFile* file = env.CreateFile("t", 4096).ValueOrDie();
  FillDirty(env, file, 3);
  EXPECT_DEATH(env.DropFile(file), "dirty");
}

TEST(DbEnvDeathTest, DropFileWithAPinnedPageAborts) {
  DbEnv env(1 << 20);
  PageFile* file = env.CreateFile("t", 4096).ValueOrDie();
  FillDirty(env, file, 1);
  env.pool()->Fetch(file, 0);  // stays pinned
  EXPECT_DEATH(env.DropFile(file), "pinned");
}

}  // namespace
}  // namespace upi::storage
