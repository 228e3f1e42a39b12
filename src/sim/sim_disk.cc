#include "sim/sim_disk.h"

#include <chrono>
#include <thread>

namespace upi::sim {

namespace {
// Floor for the span used in distance->seek-time conversion, so unit-test
// sized databases still distinguish short from long seeks sensibly.
constexpr uint64_t kMinSeekSpan = 64ull << 20;
}  // namespace

DiskStats DiskStats::operator-(const DiskStats& rhs) const {
  DiskStats d;
  d.seeks = seeks - rhs.seeks;
  d.seek_ms = seek_ms - rhs.seek_ms;
  d.reads = reads - rhs.reads;
  d.writes = writes - rhs.writes;
  d.bytes_read = bytes_read - rhs.bytes_read;
  d.bytes_written = bytes_written - rhs.bytes_written;
  d.file_opens = file_opens - rhs.file_opens;
  d.rotations = rotations - rhs.rotations;
  d.gc_ms = gc_ms - rhs.gc_ms;
  d.gc_erases = gc_erases - rhs.gc_erases;
  d.overlapped_ios = overlapped_ios - rhs.overlapped_ios;
  d.overlap_saved_ms = overlap_saved_ms - rhs.overlap_saved_ms;
  return d;
}

DiskStats& DiskStats::operator+=(const DiskStats& rhs) {
  seeks += rhs.seeks;
  seek_ms += rhs.seek_ms;
  reads += rhs.reads;
  writes += rhs.writes;
  bytes_read += rhs.bytes_read;
  bytes_written += rhs.bytes_written;
  file_opens += rhs.file_opens;
  rotations += rhs.rotations;
  gc_ms += rhs.gc_ms;
  gc_erases += rhs.gc_erases;
  overlapped_ios += rhs.overlapped_ios;
  overlap_saved_ms += rhs.overlap_saved_ms;
  return *this;
}

double DiskStats::SimMs(const CostParams& p) const {
  return seek_ms + p.ReadMs(bytes_read) + p.WriteMs(bytes_written) +
         static_cast<double>(file_opens) * p.init_ms +
         static_cast<double>(rotations) * p.rotation_ms + gc_ms -
         overlap_saved_ms;
}

uint64_t SimDisk::Allocate(uint64_t bytes) {
  std::lock_guard<sync::Mutex> lock(mu_);
  uint64_t addr = next_addr_;
  next_addr_ += bytes;
  return addr;
}

uint64_t SimDisk::SeekSpanLocked() const {
  return next_addr_ > kMinSeekSpan ? next_addr_ : kMinSeekSpan;
}

uint64_t SimDisk::SeekSpan() const {
  std::lock_guard<sync::Mutex> lock(mu_);
  return SeekSpanLocked();
}

SimDisk::Stripe& SimDisk::ThisThreadStripe() const {
  // Stripe indices are handed out process-wide, one per thread, wrapping at
  // kStripes; with a sane client count every thread owns its stripe.
  static std::atomic<size_t> next_index{0};
  thread_local size_t index = next_index.fetch_add(1) % kStripes;
  return stripes_[index];
}

void SimDisk::MaybeSleep(double sim_ms) const {
  double scale = realtime_us_per_sim_ms_.load(std::memory_order_relaxed);
  if (scale <= 0.0 || sim_ms <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(sim_ms * scale));
}

SimDisk::SeekCharge SimDisk::AccessLocked(uint64_t addr, uint64_t bytes) {
  SeekCharge charge;
  if (head_ != addr) {
    charge.seeked = true;
    if (head_ == UINT64_MAX) {
      charge.ms = params().seek_ms;  // unknown position: average seek
    } else {
      uint64_t dist = head_ > addr ? head_ - addr : addr - head_;
      charge.ms = params().SeekMs(dist, SeekSpanLocked());
    }
  }
  head_ = addr + bytes;
  return charge;
}

double SimDisk::OverlapDiscount(double service_ms) {
  uint32_t n = concurrent_issuers_.load(std::memory_order_relaxed);
  size_t bucket = n < 1 ? 1 : (n < kQueueDepthBuckets ? n
                                                      : kQueueDepthBuckets - 1);
  queue_depth_counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  if (n < 2 || profile_.queue_depth < 2) return 0.0;
  double ways = static_cast<double>(
      n < profile_.queue_depth ? n : profile_.queue_depth);
  return service_ms * (1.0 - 1.0 / ways);
}

void SimDisk::Read(uint64_t addr, uint64_t bytes) {
  sync::CheckIoAllowed("SimDisk::Read");
  SeekCharge charge;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    charge = AccessLocked(addr, bytes);
  }
  double service = charge.ms + params().ReadMs(bytes);
  double saved = OverlapDiscount(service);
  Stripe& s = ThisThreadStripe();
  {
    std::lock_guard<sync::Mutex> lock(s.mu);
    if (charge.seeked) ++s.stats.seeks;
    s.stats.seek_ms += charge.ms;
    ++s.stats.reads;
    s.stats.bytes_read += bytes;
    if (saved > 0.0) {
      ++s.stats.overlapped_ios;
      s.stats.overlap_saved_ms += saved;
    }
  }
  MaybeSleep(service - saved);
}

void SimDisk::Write(uint64_t addr, uint64_t bytes) {
  sync::CheckIoAllowed("SimDisk::Write");
  SeekCharge charge;
  double gc_ms = 0.0;
  uint64_t erases = 0;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    charge = AccessLocked(addr, bytes);
    if (profile_.erase_block_bytes > 0 && profile_.gc_debt_horizon_bytes > 0) {
      // GC debt: every written byte moves the FTL closer to having to
      // relocate live pages. Pressure ramps linearly over the horizon, and
      // the surcharge is the amplified share of this write's program time.
      uint64_t before = gc_written_;
      gc_written_ += bytes;
      erases = gc_written_ / profile_.erase_block_bytes -
               before / profile_.erase_block_bytes;
      double pressure = static_cast<double>(gc_written_) /
                        static_cast<double>(profile_.gc_debt_horizon_bytes);
      if (pressure > 1.0) pressure = 1.0;
      gc_ms = params().WriteMs(bytes) * profile_.gc_write_amp_max * pressure;
    }
  }
  double service = charge.ms + params().WriteMs(bytes) + gc_ms;
  double saved = OverlapDiscount(service);
  Stripe& s = ThisThreadStripe();
  {
    std::lock_guard<sync::Mutex> lock(s.mu);
    if (charge.seeked) ++s.stats.seeks;
    s.stats.seek_ms += charge.ms;
    ++s.stats.writes;
    s.stats.bytes_written += bytes;
    s.stats.gc_ms += gc_ms;
    s.stats.gc_erases += erases;
    if (saved > 0.0) {
      ++s.stats.overlapped_ios;
      s.stats.overlap_saved_ms += saved;
    }
  }
  MaybeSleep(service - saved);
}

void SimDisk::ChargeFileOpen() {
  sync::CheckIoAllowed("SimDisk::ChargeFileOpen");
  Stripe& s = ThisThreadStripe();
  {
    std::lock_guard<sync::Mutex> lock(s.mu);
    ++s.stats.file_opens;
  }
  MaybeSleep(params().init_ms);
}

void SimDisk::ChargeRotation() {
  sync::CheckIoAllowed("SimDisk::ChargeRotation");
  Stripe& s = ThisThreadStripe();
  {
    std::lock_guard<sync::Mutex> lock(s.mu);
    ++s.stats.rotations;
  }
  MaybeSleep(params().rotation_ms);
}

void SimDisk::ResetHead() {
  std::lock_guard<sync::Mutex> lock(mu_);
  head_ = UINT64_MAX;
}

DiskStats SimDisk::stats() const {
  DiskStats total;
  for (const Stripe& s : stripes_) {
    std::lock_guard<sync::Mutex> lock(s.mu);
    total += s.stats;
  }
  return total;
}

SimDisk::StripeStats SimDisk::stripe_stats() const {
  StripeStats out;
  for (size_t i = 0; i < kStripes; ++i) {
    std::lock_guard<sync::Mutex> lock(stripes_[i].mu);
    out[i] = stripes_[i].stats;
  }
  return out;
}

DiskStats StatsWindow::Delta() const {
  const SimDisk::StripeStats now = disk_->stripe_stats();
  DiskStats d;
  for (size_t i = 0; i < now.size(); ++i) d += now[i] - start_[i];
  return d;
}

std::array<uint64_t, SimDisk::kQueueDepthBuckets> SimDisk::QueueDepthHistogram()
    const {
  std::array<uint64_t, kQueueDepthBuckets> h{};
  for (size_t i = 0; i < kQueueDepthBuckets; ++i) {
    h[i] = queue_depth_counts_[i].load(std::memory_order_relaxed);
  }
  return h;
}

DiskStats SimDisk::thread_stats() const {
  const Stripe& s = ThisThreadStripe();
  std::lock_guard<sync::Mutex> lock(s.mu);
  return s.stats;
}

void SimDisk::WithdrawThreadStats(const DiskStats& d) {
  Stripe& s = ThisThreadStripe();
  std::lock_guard<sync::Mutex> lock(s.mu);
  s.stats = s.stats - d;
}

void SimDisk::DepositThreadStats(const DiskStats& d) {
  Stripe& s = ThisThreadStripe();
  std::lock_guard<sync::Mutex> lock(s.mu);
  s.stats += d;
}

}  // namespace upi::sim
