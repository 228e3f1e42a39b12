// A page-addressed file on the simulated disk.
//
// Page *contents* live in RAM (the SimDisk only does cost accounting); every
// Read/Write charges the disk for a full page transfer at the page's fixed
// device address. Pages freed back to the file are reused by later
// allocations — which is how B+Tree churn produces physical fragmentation,
// the effect behind the paper's Section 4.1 maintenance problem.
//
// Each page's bytes are one immutable, shared image (PageImage). A Read
// hands out a reference to it, never a copy, so the buffer pool's frame and
// every cursor that keeps a leaf share the device's bytes; a Write installs
// a new image and drops the file's reference to the old one, which lives on
// while a frame or reader still holds it. No image is ever written after it
// is installed.
//
// Lifetime: the DbEnv that created a file owns it. DbEnv::DropFile releases
// it (its pool frames first, then its references to the page images); its
// device addresses stay allocated on the SimDisk, never handed to another
// file.
//
// Thread-safe: allocation metadata, the free list, and the image table are
// guarded by an internal mutex, honoring the concurrency contract the
// buffer pool documents (background builders allocate/write while foreground
// queries read other pages of the same file). The SimDisk charge for a
// Read/Write is issued *after* the metadata lock is released, so concurrent
// clients of one file serialize only on the in-RAM bookkeeping, never on the
// (possibly realtime-sleeping) simulated device.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sim/sim_disk.h"
#include "sync/sync.h"

namespace upi::storage {

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = UINT32_MAX;

/// One page's bytes, immutable once installed and shared by the device, the
/// pool frame that caches the page, and any reader that keeps it.
using PageImage = std::shared_ptr<const std::string>;

/// The forward-read rule: true when transferring a forward gap of `gap`
/// bytes costs less on `disk`'s device than seeking over it (ReadMs(gap) <
/// SeekMs(gap)). With 8 KiB pages that is up to 6 pages on the spinning
/// disk, and never on the SSD profile, whose seeks cost less than one page
/// transfer.
bool ReadsThroughGap(const sim::SimDisk& disk, uint64_t gap);

class PageFile {
 public:
  PageFile(sim::SimDisk* disk, std::string name, uint32_t page_size);

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Allocates a page, preferring the free list (physical reuse) and falling
  /// back to fresh address space at the end of the device.
  PageId Allocate();

  /// Returns a page to the free list. Contents become undefined. A caller
  /// that cached this page through a BufferPool must Discard the frame
  /// first (Pager::Free does): a stale *dirty* frame left behind would
  /// eventually be flushed into a freed (or recycled) page — the pool's
  /// create-path reset only covers clean re-use, and PageFile hard-aborts
  /// on a write to a freed page rather than corrupt a recycled one.
  void Free(PageId id);

  /// Reads a full page: one device access, sequential iff the disk head is
  /// already where it starts. Without `after` it transfers the page alone.
  /// `after` names the page of this file the caller read from the device
  /// last. When `id` lies a short forward gap past the end of that page
  /// (ReadsThroughGap), the access starts at the end of `after` and
  /// transfers the gap and the page in one read instead of seeking over the
  /// gap. Only the page is returned; the gap bytes are charged, not cached.
  /// The result is the page's current image itself (empty if the page was
  /// never written), not a copy.
  PageImage Read(PageId id, PageId after = kInvalidPage);

  /// Writes a full page: a copy of `data` becomes its image. `data` may be
  /// shorter than page_size; the device transfer is always a whole page.
  void Write(PageId id, std::string_view data);
  /// Writes a full page whose bytes the caller hands over: `image` becomes
  /// the page's image without a copy.
  void Write(PageId id, PageImage image);

  /// Charges the paper's Costinit for opening this file, unconditionally.
  void ChargeOpen() { disk_->ChargeFileOpen(); }

  /// Opens this file's handle if it is closed, charging Costinit; free while
  /// it is open. A handle is closed until its first open, and every handle
  /// closes when a new cold epoch begins (SimDisk::CloseFiles, called by
  /// DbEnv::ColdCache). Thread-safe: of concurrent opens in one cold epoch,
  /// exactly one pays.
  void OpenIfClosed();

  uint32_t page_size() const { return page_size_; }
  /// Pages currently in use (excludes freed pages).
  uint64_t num_active_pages() const {
    std::lock_guard<sync::Mutex> lock(mu_);
    return pages_.size() - free_list_.size();
  }
  /// Total address-space footprint including freed-but-not-reclaimed pages —
  /// this is the "DB size" the paper reports in Table 8.
  uint64_t size_bytes() const {
    std::lock_guard<sync::Mutex> lock(mu_);
    return pages_.size() * uint64_t{page_size_};
  }
  const std::string& name() const { return name_; }
  sim::SimDisk* disk() const { return disk_; }
  /// Creation ordinal on the disk (SimDisk::NewFileId).
  uint64_t id() const { return id_; }

  /// Physical device address of a page (for tests asserting layout).
  uint64_t AddressOf(PageId id) const;

 private:
  struct PageMeta {
    uint64_t addr = 0;
    bool in_use = false;
  };

  /// Hard-checks that `id` names a live page. Caller must hold mu_.
  void CheckLiveLocked(PageId id, const char* op) const;

  sim::SimDisk* disk_;
  const uint64_t id_;
  std::string name_;
  const uint32_t page_size_;
  mutable sync::Mutex mu_{
      sync::LockRank::kPageFile};  // guards pages_, images_, free_list_
  std::vector<PageMeta> pages_;
  /// RAM backing store, index == PageId; null for a page never written
  /// since its allocation.
  std::vector<PageImage> images_;
  std::vector<PageId> free_list_;
  /// Cold epoch this file's handle was last opened in; 0 = never.
  std::atomic<uint64_t> open_epoch_{0};
};

}  // namespace upi::storage
