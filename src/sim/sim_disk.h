// A simulated rotating disk.
//
// The paper's experiments ran on a 10k-RPM drive with a cold cache; every
// reported number is dominated by the distinction between random seeks and
// sequential transfers. This class reproduces that distinction: it exposes a
// single global byte-address space shared by all files of a database, tracks
// the head position, and charges simulated time using the paper's own Table 6
// constants. An access that starts exactly where the previous one ended is
// sequential; anything else pays a distance-dependent seek (short hops over a
// few pages cost ~min_seek_ms, far jumps cost ~seek_ms on average).
//
// All page I/O in the storage layer funnels through here, so "query runtime"
// in the benches is the simulated milliseconds accumulated between
// StatsWindow construction and ElapsedMs() — deterministic,
// hardware-independent, and measuring exactly what the paper measured.
//
// Thread-safety and contention: the head position and address allocator are
// inherently serial (two threads sharing one spindle *do* perturb each
// other's head position, and the interleaved accounting is physically right),
// so they stay under one mutex — but that critical section is a few
// arithmetic ops. The I/O *counters* are striped per thread: each access
// updates only the calling thread's stripe, so stats()/StatsWindow snapshots
// (which benches and the maintenance policy poll) never contend with worker
// I/O on a shared counter lock. Each access updates its stripe atomically, so
// a snapshot never sees a half-counted access; with a single thread the
// stripe sums are exact and bit-identical to the pre-striping accounting.
//
// Realtime mode (SetRealtimeScale): when enabled, every access additionally
// *sleeps* for its charged simulated time scaled by a wall-us-per-sim-ms
// factor — after all locks are released. This turns simulated latency into
// real blocking that concurrent clients can overlap, which is what
// bench_throughput uses to measure multi-client scaling of the storage stack
// independently of host core count. Off by default; no existing bench or
// test is affected.
//
// Device profiles (sim/device_profile.h): the disk can also impersonate a
// flash device. The SSD profile surcharges writes with GC-pressure debt
// (DiskStats::gc_ms), lets accesses issued inside overlapping
// ConcurrentIoScopes divide their service time by min(issuers, queue_depth)
// (DiskStats::overlap_saved_ms, subtracted by SimMs), and tracks a
// queue-depth histogram for observability. On the spinning-disk profile
// (queue_depth 1, no GC model) every one of those fields is exactly 0.0, so
// SimMs is bit-identical to the pre-profile accounting.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "sim/cost_params.h"
#include "sim/device_profile.h"
#include "sync/sync.h"

namespace upi::sim {

/// \brief Raw I/O counters, separable into sequential and random traffic.
struct DiskStats {
  uint64_t seeks = 0;
  double seek_ms = 0.0;          // accumulated distance-dependent seek time
  uint64_t reads = 0;            // read calls
  uint64_t writes = 0;           // write calls
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t file_opens = 0;       // charged Costinit each
  uint64_t rotations = 0;        // full-revolution waits (commit barriers)
  double gc_ms = 0.0;            // flash GC write surcharge (0 on spinning)
  uint64_t gc_erases = 0;        // erase-block reclaims crossed by writes
  uint64_t overlapped_ios = 0;   // accesses that shared the device queue
  double overlap_saved_ms = 0.0;  // service time absorbed by queue overlap

  DiskStats operator-(const DiskStats& rhs) const;
  DiskStats& operator+=(const DiskStats& rhs);
  /// Simulated elapsed time for these counters under `p`: the classic
  /// seek/transfer/open/rotation arithmetic plus the GC surcharge, minus the
  /// service time the device queue overlapped away.
  double SimMs(const CostParams& p) const;
};

/// \brief The simulated device. One instance per "machine"; every PageFile of
/// a database allocates its extents from the same SimDisk so that cross-file
/// interleaving shows up as seeks, as it would on the paper's single spindle.
class SimDisk {
 public:
  /// Buckets of the queue-depth histogram: index d counts accesses issued
  /// with d concurrent issuers registered (index kQueueDepthBuckets - 1
  /// absorbs everything deeper).
  static constexpr size_t kQueueDepthBuckets = 16;
  /// Counter stripes; see thread_stats().
  static constexpr size_t kStripes = 64;
  using StripeStats = std::array<DiskStats, kStripes>;

  explicit SimDisk(DeviceProfile profile = DeviceProfile::SpinningDisk())
      : profile_(profile) {}

  /// Reserves `bytes` of address space at the current end of the device and
  /// returns the starting address. Allocation itself costs nothing; writes do.
  uint64_t Allocate(uint64_t bytes);

  void Read(uint64_t addr, uint64_t bytes);
  void Write(uint64_t addr, uint64_t bytes);

  /// Charges the Costinit of opening a DB file (paper Table 6).
  void ChargeFileOpen();

  /// Charges one full platter revolution (rotation_ms): the head is on the
  /// right track but just passed the target sector, so it must wait for the
  /// platter to come back around. The WAL's commit barrier pays this per
  /// sync — the cost group commit exists to amortize.
  void ChargeRotation();

  /// Moves the head to an undefined position, so the next access pays a
  /// full-cost seek. Benches call this as part of the cold-cache protocol.
  void ResetHead();

  /// Closes every file handle on the device by starting a new *cold epoch*
  /// (the interval between two calls): each storage::PageFile's next
  /// OpenIfClosed() pays Costinit again. DbEnv::ColdCache calls this.
  void CloseFiles() { cold_epoch_.fetch_add(1, std::memory_order_relaxed); }
  /// The current cold epoch; starts at 1, so 0 can mean "never opened".
  uint64_t cold_epoch() const {
    return cold_epoch_.load(std::memory_order_relaxed);
  }

  /// Hands out file ids in creation order (0, 1, ...). Unlike a file's
  /// address, the id is the same on every run that creates files in the same
  /// order, so structures keyed by it (the buffer pool's shards) are too.
  uint64_t NewFileId() {
    return next_file_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// When `wall_us_per_sim_ms` > 0, every subsequent access sleeps for its
  /// simulated cost times this factor (outside all locks), so concurrent
  /// clients genuinely overlap their I/O waits. 0 (the default) disables it.
  void SetRealtimeScale(double wall_us_per_sim_ms) {
    realtime_us_per_sim_ms_.store(wall_us_per_sim_ms,
                                  std::memory_order_relaxed);
  }

  /// Sum of all stripes. Each access lands in its stripe atomically, so the
  /// snapshot never sees a half-counted access; exact once traffic quiesces.
  DiskStats stats() const;
  /// Every stripe's counters, in stripe order.
  StripeStats stripe_stats() const;

  /// The calling thread's own stripe: the I/O this thread issued. Stripe
  /// indices are handed out once per thread, at its first use, counting
  /// every thread *over the process lifetime* (shared across SimDisk
  /// instances) and wrapping at kStripes; past that, threads share stripes
  /// and per-thread attribution becomes approximate — stats() totals stay
  /// exact. Lets a multi-client bench
  /// attribute per-operation simulated latency without a global counter.
  DiskStats thread_stats() const;

  /// Re-attributes already-counted I/O between thread stripes, for work
  /// fanned out to helper threads (scatter-gather shard probes): the helper
  /// measures its delta with a ThreadStatsWindow, Withdraw()s it from its own
  /// stripe, and the gathering thread Deposit()s it into its stripe after the
  /// join. The pair is zero-sum, so stats() totals are unchanged; only the
  /// per-thread attribution moves. Withdraw must cover counts the calling
  /// thread's stripe actually accumulated.
  void WithdrawThreadStats(const DiskStats& d);
  void DepositThreadStats(const DiskStats& d);

  /// Snapshot of the queue-depth histogram: how many accesses were issued at
  /// each concurrency level. Bucket 1 is the solo (unqueued) case.
  std::array<uint64_t, kQueueDepthBuckets> QueueDepthHistogram() const;

  const DeviceProfile& profile() const { return profile_; }
  const CostParams& params() const { return profile_.cost; }
  uint64_t size_bytes() const {
    std::lock_guard<sync::Mutex> lock(mu_);
    return next_addr_;
  }

  /// Span used for distance->time conversion (floored so tiny test databases
  /// don't make every seek look track-to-track).
  uint64_t SeekSpan() const;

  /// Simulated total time since construction.
  double TotalMs() const { return stats().SimMs(params()); }

 private:
  struct alignas(64) Stripe {
    mutable sync::Mutex mu{sync::LockRank::kSimDiskStripe};
    DiskStats stats;
  };

  /// Moves the head; returns the seek charge {took_seek, seek_ms} for the
  /// caller to record in its stripe. Caller must hold mu_.
  struct SeekCharge {
    bool seeked = false;
    double ms = 0.0;
  };
  SeekCharge AccessLocked(uint64_t addr, uint64_t bytes);
  uint64_t SeekSpanLocked() const;
  Stripe& ThisThreadStripe() const;
  void MaybeSleep(double sim_ms) const;

  /// The queue-overlap discount on `service_ms` with `issuers` concurrent
  /// issuers registered: service_ms * (1 - 1/min(issuers, queue_depth)).
  /// Exactly 0.0 when issuers < 2 or queue_depth == 1 (spinning disk). Also
  /// records the depth sample in the histogram.
  double OverlapDiscount(double service_ms);

  friend class ConcurrentIoScope;
  void BeginConcurrentIo() {
    concurrent_issuers_.fetch_add(1, std::memory_order_relaxed);
  }
  void EndConcurrentIo() {
    concurrent_issuers_.fetch_sub(1, std::memory_order_relaxed);
  }

  DeviceProfile profile_;
  // Head position + address allocator + the GC debt accumulator (cumulative
  // writes are as inherently serial as the head position).
  mutable sync::Mutex mu_{sync::LockRank::kSimDiskHead};
  uint64_t next_addr_ = 0;
  uint64_t head_ = UINT64_MAX;  // UINT64_MAX = unknown position
  uint64_t gc_written_ = 0;     // cumulative bytes written (GC debt proxy)
  std::atomic<double> realtime_us_per_sim_ms_{0.0};
  std::atomic<uint32_t> concurrent_issuers_{0};
  std::atomic<uint64_t> cold_epoch_{1};
  std::atomic<uint64_t> next_file_id_{0};
  mutable std::atomic<uint64_t> queue_depth_counts_[kQueueDepthBuckets] = {};
  mutable Stripe stripes_[kStripes];
};

/// \brief RAII registration of an in-flight concurrent I/O issuer: a gather
/// pool shard probe or a maintenance worker task declares, for its duration,
/// that its accesses run concurrently with the other registered issuers'.
/// On a profile with queue_depth > 1 the device then overlaps their service
/// time; on the spinning disk (queue_depth 1) registration is free and
/// changes nothing. Scopes may nest (each level counts as one issuer).
class ConcurrentIoScope {
 public:
  explicit ConcurrentIoScope(SimDisk* disk) : disk_(disk) {
    disk_->BeginConcurrentIo();
  }
  ~ConcurrentIoScope() { disk_->EndConcurrentIo(); }

  ConcurrentIoScope(const ConcurrentIoScope&) = delete;
  ConcurrentIoScope& operator=(const ConcurrentIoScope&) = delete;

 private:
  SimDisk* disk_;
};

/// \brief RAII window over a SimDisk's stats: snapshots every stripe at
/// construction; Elapsed*() report the delta since then.
///
/// The delta is the sum of each stripe's own difference, not the difference
/// of two sums: a stripe no access touched adds exactly 0, so a window's
/// floating-point totals do not depend on which stripe each thread drew
/// (that depends on which thread did I/O first) or on what other stripes
/// held before the window.
class StatsWindow {
 public:
  explicit StatsWindow(const SimDisk* disk)
      : disk_(disk), start_(disk->stripe_stats()) {}

  DiskStats Delta() const;
  double ElapsedMs() const { return Delta().SimMs(disk_->params()); }

 private:
  const SimDisk* disk_;
  SimDisk::StripeStats start_;
};

/// \brief RAII window over the *calling thread's* stripe: the I/O this thread
/// issued since construction. This is the one sanctioned way to attribute
/// simulated cost to a unit of work on a shared device (Session latencies,
/// per-operator query traces) — all other traffic lands in other stripes and
/// never pollutes the delta. Must be read from the constructing thread.
class ThreadStatsWindow {
 public:
  explicit ThreadStatsWindow(const SimDisk* disk)
      : disk_(disk), start_(disk->thread_stats()) {}

  DiskStats Delta() const { return disk_->thread_stats() - start_; }
  double ElapsedMs() const { return Delta().SimMs(disk_->params()); }

 private:
  const SimDisk* disk_;
  DiskStats start_;
};

}  // namespace upi::sim
