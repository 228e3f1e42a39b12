#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "sim/sim_disk.h"

namespace upi::sim {
namespace {

constexpr uint64_t kMB = 1024 * 1024;

TEST(CostParamsTest, PaperTable6Defaults) {
  CostParams p;
  EXPECT_DOUBLE_EQ(p.seek_ms, 10.0);
  EXPECT_DOUBLE_EQ(p.read_ms_per_mb, 20.0);
  EXPECT_DOUBLE_EQ(p.write_ms_per_mb, 50.0);
  EXPECT_DOUBLE_EQ(p.init_ms, 100.0);
  EXPECT_DOUBLE_EQ(p.ReadMs(kMB), 20.0);
  EXPECT_DOUBLE_EQ(p.WriteMs(2 * kMB), 100.0);
}

TEST(SimDiskTest, SequentialReadAfterSeek) {
  SimDisk disk;
  uint64_t a = disk.Allocate(4096);
  uint64_t b = disk.Allocate(4096);
  EXPECT_EQ(b, a + 4096);
  disk.Read(a, 4096);   // head unknown -> one seek
  disk.Read(b, 4096);   // contiguous -> no seek
  EXPECT_EQ(disk.stats().seeks, 1u);
  EXPECT_EQ(disk.stats().bytes_read, 8192u);
}

TEST(SimDiskTest, NonContiguousReadSeeks) {
  SimDisk disk;
  uint64_t a = disk.Allocate(4096);
  disk.Allocate(4096);
  uint64_t c = disk.Allocate(4096);
  disk.Read(a, 4096);
  disk.Read(c, 4096);  // skipped a page -> seek
  EXPECT_EQ(disk.stats().seeks, 2u);
}

TEST(SimDiskTest, BackwardReadSeeks) {
  SimDisk disk;
  uint64_t a = disk.Allocate(4096);
  uint64_t b = disk.Allocate(4096);
  disk.Read(b, 4096);
  disk.Read(a, 4096);
  EXPECT_EQ(disk.stats().seeks, 2u);
}

TEST(SimDiskTest, WriteThenContiguousWriteIsSequential) {
  SimDisk disk;
  uint64_t a = disk.Allocate(8192);
  disk.Write(a, 4096);
  disk.Write(a + 4096, 4096);
  EXPECT_EQ(disk.stats().seeks, 1u);
  EXPECT_EQ(disk.stats().bytes_written, 8192u);
}

TEST(SimDiskTest, ReadAfterWriteAtSamePositionIsSequential) {
  SimDisk disk;
  uint64_t a = disk.Allocate(8192);
  disk.Write(a, 4096);
  disk.Read(a + 4096, 4096);  // head is right there
  EXPECT_EQ(disk.stats().seeks, 1u);
}

TEST(SimDiskTest, ResetHeadForcesSeek) {
  SimDisk disk;
  uint64_t a = disk.Allocate(8192);
  disk.Read(a, 4096);
  disk.ResetHead();
  disk.Read(a + 4096, 4096);  // would have been sequential
  EXPECT_EQ(disk.stats().seeks, 2u);
}

TEST(SimDiskTest, SimTimeMatchesTable6Arithmetic) {
  SimDisk disk;
  uint64_t a = disk.Allocate(2 * kMB);
  disk.Read(a, kMB);        // 1 seek + 20ms
  disk.Write(a + kMB, kMB); // contiguous write: 50ms
  disk.ChargeFileOpen();    // 100ms
  // 10 + 20 + 50 + 100
  EXPECT_NEAR(disk.TotalMs(), 180.0, 1e-9);
}

TEST(SimDiskTest, StatsWindowDeltas) {
  SimDisk disk;
  uint64_t a = disk.Allocate(kMB);
  disk.Read(a, kMB / 2);
  StatsWindow w(&disk);
  disk.Read(a + kMB / 2, kMB / 2);  // sequential continuation
  DiskStats d = w.Delta();
  EXPECT_EQ(d.seeks, 0u);
  EXPECT_EQ(d.bytes_read, kMB / 2);
  EXPECT_NEAR(w.ElapsedMs(), 10.0, 1e-9);
}

TEST(SimDiskTest, ShortSeekCheaperThanLongSeek) {
  SimDisk disk;
  uint64_t base = disk.Allocate(512ull << 20);  // half-GB span
  disk.Read(base, 4096);
  disk.Read(base + 8192, 4096);  // skip one page: near track-to-track cost
  double short_ms = disk.stats().seek_ms - disk.params().seek_ms;
  DiskStats before = disk.stats();
  disk.Read(base + (400ull << 20), 4096);  // far jump
  double long_ms = disk.stats().seek_ms - before.seek_ms;
  EXPECT_LT(short_ms, 1.5);
  EXPECT_GT(long_ms, 5.0);
  EXPECT_GT(long_ms, 4 * short_ms);
}

TEST(SimDiskTest, SeekTimeCappedForHugeJumps) {
  CostParams p;
  EXPECT_LE(p.SeekMs(UINT64_MAX / 2, 1ull << 30), 2.2 * p.seek_ms + 1e-9);
  EXPECT_DOUBLE_EQ(p.SeekMs(0, 1ull << 30), 0.0);
}

// ---------------------------------------------------------------------------
// Device profiles (sim/device_profile.h)
// ---------------------------------------------------------------------------

TEST(DeviceProfileTest, SpinningProfileHasNoGcOrOverlap) {
  SimDisk d{DeviceProfile::SpinningDisk()};
  uint64_t a = d.Allocate(4 * kMB);
  d.Read(a, kMB);
  {
    // Scopes register nothing on a queue_depth-1 device.
    ConcurrentIoScope s1(&d);
    ConcurrentIoScope s2(&d);
    d.Write(a + kMB, 2 * kMB);
  }
  d.ChargeFileOpen();
  d.ChargeRotation();
  d.Read(a, 4096);
  DiskStats s = d.stats();
  EXPECT_EQ(s.gc_ms, 0.0);
  EXPECT_EQ(s.gc_erases, 0u);
  EXPECT_EQ(s.overlapped_ios, 0u);
  EXPECT_EQ(s.overlap_saved_ms, 0.0);
}

TEST(DeviceProfileTest, ParseNamesAndDefaults) {
  DeviceProfile p;
  ASSERT_TRUE(DeviceProfile::Parse("hdd", &p));
  EXPECT_EQ(p.kind, DeviceKind::kSpinningDisk);
  EXPECT_EQ(p.queue_depth, 1u);
  EXPECT_DOUBLE_EQ(p.cost.seek_ms, 10.0);  // Table 6 untouched
  ASSERT_TRUE(DeviceProfile::Parse("ssd", &p));
  EXPECT_EQ(p.kind, DeviceKind::kSsd);
  EXPECT_GT(p.queue_depth, 1u);
  EXPECT_LT(p.cost.seek_ms, 1.0);
  EXPECT_GT(p.cost.write_ms_per_mb, p.cost.read_ms_per_mb);  // r/w asymmetry
  EXPECT_FALSE(DeviceProfile::Parse("tape", &p));
}

TEST(SsdProfileTest, GcSurchargeExactArithmetic) {
  DeviceProfile ssd = DeviceProfile::Ssd();
  SimDisk disk(ssd);
  uint64_t a = disk.Allocate(4 * kMB);
  // First MB: pressure ramps to 1/256 of the horizon; the surcharge is this
  // write's program time amplified by amp_max * pressure.
  disk.Write(a, kMB);
  double w1 = ssd.cost.WriteMs(kMB);
  double gc1 = w1 * ssd.gc_write_amp_max * (1.0 / 256.0);
  EXPECT_DOUBLE_EQ(disk.stats().gc_ms, gc1);
  EXPECT_EQ(disk.stats().gc_erases, 0u);  // 1 MB crosses no 2 MB erase block
  // Two more MB: cumulative 3 MB crosses one erase-block boundary and the
  // pressure at charge time is 3/256.
  disk.Write(a + kMB, 2 * kMB);
  double gc2 = ssd.cost.WriteMs(2 * kMB) * ssd.gc_write_amp_max * (3.0 / 256.0);
  EXPECT_DOUBLE_EQ(disk.stats().gc_ms, gc1 + gc2);
  EXPECT_EQ(disk.stats().gc_erases, 1u);
  // The surcharge is part of the simulated clock: seek + program + GC.
  EXPECT_DOUBLE_EQ(disk.TotalMs(),
                   ssd.cost.seek_ms + ssd.cost.WriteMs(3 * kMB) + gc1 + gc2);
}

TEST(SsdProfileTest, GcPressureClampsAtOne) {
  DeviceProfile ssd = DeviceProfile::Ssd();
  SimDisk disk(ssd);
  uint64_t a = disk.Allocate(600 * kMB);
  disk.Write(a, 512 * kMB);  // blows past the 256 MB debt horizon
  double capped = ssd.cost.WriteMs(512 * kMB) * ssd.gc_write_amp_max;
  EXPECT_DOUBLE_EQ(disk.stats().gc_ms, capped);
  DiskStats before = disk.stats();
  disk.Write(a + 512 * kMB, kMB);  // still fully saturated
  EXPECT_DOUBLE_EQ(disk.stats().gc_ms - before.gc_ms,
                   ssd.cost.WriteMs(kMB) * ssd.gc_write_amp_max);
}

TEST(SsdProfileTest, QueueOverlapDiscountExact) {
  DeviceProfile ssd = DeviceProfile::Ssd();
  SimDisk disk(ssd);
  uint64_t a = disk.Allocate(4 * kMB);
  disk.Read(a, kMB);  // solo: no discount, depth-1 sample
  EXPECT_EQ(disk.stats().overlapped_ios, 0u);
  {
    // Two registered issuers: service time halves (nesting on one thread is
    // the deterministic stand-in for two concurrent probes).
    ConcurrentIoScope s1(&disk);
    ConcurrentIoScope s2(&disk);
    disk.Read(a + kMB, kMB);  // contiguous: service is exactly ReadMs(1MB)
  }
  double service = ssd.cost.ReadMs(kMB);
  DiskStats s = disk.stats();
  EXPECT_EQ(s.overlapped_ios, 1u);
  EXPECT_DOUBLE_EQ(s.overlap_saved_ms, service / 2.0);
  // SimMs subtracts the overlapped share.
  EXPECT_DOUBLE_EQ(disk.TotalMs(), ssd.cost.seek_ms +
                                       ssd.cost.ReadMs(2 * kMB) - service / 2.0);
  auto hist = disk.QueueDepthHistogram();
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
}

TEST(SsdProfileTest, OverlapCappedByQueueDepth) {
  DeviceProfile ssd = DeviceProfile::Ssd();
  ASSERT_EQ(ssd.queue_depth, 8u);
  SimDisk disk(ssd);
  uint64_t a = disk.Allocate(4 * kMB);
  disk.Read(a, kMB);
  std::vector<std::unique_ptr<ConcurrentIoScope>> scopes;
  for (int i = 0; i < 9; ++i) {
    scopes.push_back(std::make_unique<ConcurrentIoScope>(&disk));
  }
  disk.Read(a + kMB, kMB);  // 9 issuers, but only 8 channels
  double service = ssd.cost.ReadMs(kMB);
  EXPECT_DOUBLE_EQ(disk.stats().overlap_saved_ms,
                   service * (1.0 - 1.0 / 8.0));
  EXPECT_EQ(disk.QueueDepthHistogram()[9], 1u);
  scopes.clear();
}

TEST(SsdProfileTest, SpinningDiskNeverOverlaps) {
  SimDisk disk;  // default spinning profile
  uint64_t a = disk.Allocate(4 * kMB);
  ConcurrentIoScope s1(&disk);
  ConcurrentIoScope s2(&disk);
  ConcurrentIoScope s3(&disk);
  disk.Read(a, kMB);
  EXPECT_EQ(disk.stats().overlapped_ios, 0u);
  EXPECT_EQ(disk.stats().overlap_saved_ms, 0.0);
  EXPECT_EQ(disk.QueueDepthHistogram()[3], 1u);  // depth still observed
}

TEST(SsdProfileTest, WithdrawDepositZeroSumIncludesDeviceFields) {
  DeviceProfile ssd = DeviceProfile::Ssd();
  SimDisk disk(ssd);
  uint64_t a = disk.Allocate(8 * kMB);
  DiskStats delta;
  {
    ConcurrentIoScope s1(&disk);
    ConcurrentIoScope s2(&disk);
    ThreadStatsWindow window(&disk);
    disk.Write(a, 2 * kMB);  // GC surcharge + overlap discount both nonzero
    delta = window.Delta();
  }
  ASSERT_GT(delta.gc_ms, 0.0);
  ASSERT_GT(delta.overlap_saved_ms, 0.0);
  DiskStats total = disk.stats();
  disk.WithdrawThreadStats(delta);
  disk.DepositThreadStats(delta);
  DiskStats roundtrip = disk.stats();
  EXPECT_EQ(roundtrip.gc_ms, total.gc_ms);
  EXPECT_EQ(roundtrip.gc_erases, total.gc_erases);
  EXPECT_EQ(roundtrip.overlapped_ios, total.overlapped_ios);
  EXPECT_EQ(roundtrip.overlap_saved_ms, total.overlap_saved_ms);
  EXPECT_EQ(roundtrip.SimMs(disk.params()), total.SimMs(disk.params()));
}

TEST(SsdProfileTest, ThreadStripedGcTotalExactUnderConcurrency) {
  // Equal-sized writes make the GC pressure sequence 1/256, 2/256, ... k/256
  // regardless of thread interleaving, and every term is an exact binary
  // fraction — so the striped gc_ms total is exact, not approximate.
  DeviceProfile ssd = DeviceProfile::Ssd();
  SimDisk disk(ssd);
  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 8;
  std::vector<uint64_t> base(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    base[t] = disk.Allocate(kWritesPerThread * kMB);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&disk, &base, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        disk.Write(base[t] + static_cast<uint64_t>(i) * kMB, kMB);
      }
    });
  }
  for (auto& th : threads) th.join();
  const int k = kThreads * kWritesPerThread;
  double expected = 0.0;
  for (int i = 1; i <= k; ++i) {
    expected += ssd.cost.WriteMs(kMB) * ssd.gc_write_amp_max *
                (static_cast<double>(i) / 256.0);
  }
  EXPECT_DOUBLE_EQ(disk.stats().gc_ms, expected);
  EXPECT_EQ(disk.stats().bytes_written, static_cast<uint64_t>(k) * kMB);
}

TEST(SimDiskTest, AverageRandomSeekNearNominal) {
  // Uniform random jumps across the device should average near seek_ms.
  CostParams p;
  uint64_t span = 1ull << 30;
  double total = 0;
  int n = 0;
  for (uint64_t d = span / 100; d < span; d += span / 50) {
    total += p.SeekMs(d, span);
    ++n;
  }
  EXPECT_NEAR(total / n, p.seek_ms, 0.5 * p.seek_ms);
}

}  // namespace
}  // namespace upi::sim
