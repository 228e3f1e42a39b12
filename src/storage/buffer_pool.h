// Sharded, scan-resistant LRU buffer pool shared by all files of a database.
//
// The paper's experiments distinguish "cold" queries (buffer cache dropped)
// from steady-state maintenance where the hot index pages stay resident.
// DropAll() implements the cold protocol; a capacity smaller than the
// database forces the eviction-driven random writes that make non-fractured
// UPI maintenance expensive (Table 7).
//
// Concurrency design (the serving-path requirements, in order of importance):
//
//  * Sharding. (file creation ordinal, page) hashes to one of N independent
//    shards, each with its own mutex, LRU lists, and hit/miss counters, so
//    concurrent clients probing different pages never touch the same lock.
//    Capacity is accounted globally (one atomic), victims are taken from the
//    miss's own shard; a shard with nothing evictable admits its page anyway,
//    so the pool can exceed capacity by at most one page per shard (exact
//    with one shard).
//
//  * I/O outside the latch. A miss installs a *loading* frame, releases the
//    shard latch, performs the eviction write-backs and the PageFile::Read,
//    then re-acquires the latch to publish the frame. Concurrent fetchers of
//    the same page find the loading frame and wait on the shard's condvar
//    (one disk read, many waiters); fetchers of other pages in the shard
//    proceed under the briefly-held latch. Dirty victims stay mapped in a
//    *writing* state until their write-back completes, so a re-fetch can
//    never read the file before the newest bytes land.
//
//  * Scan resistance. Each shard keeps a two-segment LRU (midpoint
//    insertion): pages enter the cold segment and are promoted to the hot
//    segment only on re-reference; eviction drains the cold tail first, and
//    the hot segment is capped at 5/8 of the shard's resident bytes. A
//    ScanFilter sweep therefore churns only the cold segment and leaves hot
//    UPI inner nodes resident.
//
// Determinism: a single-threaded client sees the exact read/write sequence
// of the pre-sharding pool whenever the working set fits in capacity (the
// regime of every figure bench) — hashing only picks which latch guards a
// page, never whether I/O happens.
//
// Page images (PageImage, storage/page_file.h): a frame holds its page's
// bytes as an immutable image shared with the device, not as a copy. A miss
// takes a reference to the device's image; Fetch hands the caller another,
// which stays valid after Unpin (a cursor keeps its leaf that way). The first
// write of a pin (MutableData) gives the frame a private copy, which its pin
// holder then writes in place; a flush or a dirty eviction installs that copy
// as the device's new image, which a flushed frame then shares. So a clean
// cached page is held once, and a private copy exists only while a frame is
// dirty (private_bytes()). Capacity is still accounted at page_size per frame.
//
// Pinned frames are never evicted or flushed; concurrent *readers* of a
// pinned page are safe, and writers are serialized above this layer (a page
// is only written by the single thread building its file, or under the
// table's exclusive lock). Pin-protocol violations (unpinning an unmapped
// frame, discarding a pinned page) abort in every build type — see
// common/check.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/page_file.h"
#include "sync/sync.h"

namespace upi::storage {

class BufferPool {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// `capacity_bytes` bounds the sum of cached page sizes (globally, across
  /// shards). `num_shards` is a concurrency knob; 1 gives a single classic
  /// pool (useful for tests that need full control over eviction order).
  explicit BufferPool(uint64_t capacity_bytes,
                      size_t num_shards = kDefaultShards);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() { FlushAll(); }

  /// Pins (file, id) and returns its cached image. If `create` is true the
  /// page is assumed freshly allocated: no disk read is charged, and the
  /// frame (even a stale one cached under a recycled PageId) holds a private
  /// copy of `bytes`, dirty. The bytes are in place before any other thread
  /// can see the frame, so another table's flush never copies a page its
  /// creator is still filling. Otherwise a miss takes the image
  /// PageFile::Read(id, after) returns. `*read_device`, when given, tells
  /// whether this call read the device (a miss that was not a create).
  PageImage Fetch(PageFile* file, PageId id, bool create = false,
                  std::string_view bytes = {}, PageId after = kInvalidPage,
                  bool* read_device = nullptr);

  void Unpin(PageFile* file, PageId id);

  /// The write accessor: marks the pinned page (file, id) dirty and returns
  /// its bytes for the pin holder to write in place. A clean frame, which
  /// shares the device's image, first takes a private copy; so does a dirty
  /// one whose copy some reader still holds, so no image a reader holds ever
  /// changes. `*image`, when given, is set to share the returned bytes.
  std::string* MutableData(PageFile* file, PageId id,
                           PageImage* image = nullptr);

  /// Writes back every dirty frame, in (file-name, page-id) order so a batch
  /// flush of a freshly built file is physically sequential. A pinned frame
  /// is skipped and stays dirty: its pin holder may be writing it in place,
  /// without the shard latch, so a copy could be torn.
  void FlushAll();

  /// Flushes dirty frames of one file only, skipping pinned ones likewise.
  void FlushFile(PageFile* file);

  /// Flushes everything, then evicts every frame: the cold-cache protocol.
  /// Aborts on a pinned frame.
  void DropAll();

  /// Drops the frame for a page being freed, discarding dirty data.
  void Discard(PageFile* file, PageId id);

  /// Drops every frame of `file`, which must have been written back: in-flight
  /// loads and write-backs are waited out as Discard does, and a pinned or
  /// dirty frame aborts. Afterwards no frame names the file, so it may be
  /// destroyed; a key another thread's flush collected for it before then
  /// just misses (keys hash the file's ordinal, never the PageFile).
  void DiscardFile(PageFile* file);

  /// One shard's (or the whole pool's) served/eviction traffic. `writebacks`
  /// counts pages written to the device from the pool: dirty eviction
  /// victims plus flush write-backs.
  struct PoolCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
  };

  uint64_t hits() const;
  uint64_t misses() const;
  /// Sum across shards.
  PoolCounters counters() const;
  /// One shard's counters (metrics export labels these by shard index).
  PoolCounters shard_counters(size_t shard) const;
  uint64_t cached_bytes() const {
    return cached_bytes_.load(std::memory_order_relaxed);
  }
  /// Bytes of the resident frames that hold a private copy of their page
  /// (created or written, not yet written back), page_size each. Walks every
  /// shard under its latch: meant for metrics export, not the hot path.
  uint64_t private_bytes() const;
  size_t num_shards() const { return shards_count_; }

  /// Shard a page maps to (exposed for shard-distribution tests).
  size_t ShardIndexOf(PageFile* file, PageId id) const {
    return ShardIndex(Key{file, id});
  }

 private:
  // Carries the file's creation ordinal beside its address, so hashing and
  // comparing a key never dereference the PageFile: a flush's collected key
  // may outlive a file DbEnv::DropFile destroyed, and must then just miss,
  // even if a new file now sits at the same address. `file` is dereferenced
  // only while a frame of it is mapped (DiscardFile waits those out).
  struct Key {
    PageFile* file;
    uint64_t file_id;
    PageId id;
    Key(PageFile* f, PageId page) : file(f), file_id(f->id()), id(page) {}
    bool operator==(const Key& o) const {
      return file == o.file && file_id == o.file_id && id == o.id;
    }
  };
  // Hashes the file's creation ordinal, not its address: shard placement
  // (and so which page a miss evicts) must not follow ASLR.
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.file_id) * 1000003u ^ k.id;
    }
  };

  struct Frame {
    // kLoading: being read in by its fetching thread; data not yet valid.
    // kResident: data valid, frame linked into one of the LRU segments.
    // kWriting: detached dirty victim whose write-back is in flight; the
    //           frame blocks re-fetch (waiters sleep on the shard condvar
    //           until it is erased) so the file is never read stale.
    enum class State : uint8_t { kLoading, kResident, kWriting };
    // The page's bytes, which Fetch shares with its callers. A clean frame's
    // are the device's image. A dirty frame (created, or written since its
    // last write-back) holds a private copy instead, which only its pin
    // holder writes, in place, through `own`.
    PageImage image;
    std::string* own = nullptr;  // image's bytes, writable; set iff dirty
    State state = State::kLoading;
    bool hot = false;  // which LRU segment (valid when kResident)
    int pins = 0;
    // Transient hold by a flush writing this frame outside the latch. Kept
    // separate from `pins` so Discard can wait it out on the condvar instead
    // of treating it as a caller pin-protocol violation (which aborts).
    int flush_pins = 0;
    uint32_t page_bytes = 0;
    std::list<Key>::iterator lru_it;  // valid when kResident

    bool dirty() const { return own != nullptr; }
    /// Gives the frame a private copy of `bytes`, dirty.
    void Own(std::string_view bytes);
  };

  struct Shard {
    mutable sync::Mutex mu{sync::LockRank::kBufferPoolShard};
    sync::CondVar cv;  // loading/writing frames settling
    std::unordered_map<Key, Frame, KeyHash> frames;
    std::list<Key> hot;   // front = most recent
    std::list<Key> cold;  // front = midpoint insertion point
    uint64_t bytes = 0;      // resident bytes in this shard
    uint64_t hot_bytes = 0;  // resident bytes in the hot segment
    uint32_t transients = 0;  // frames in kLoading or kWriting
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;   // frames pushed out by capacity pressure
    uint64_t writebacks = 0;  // device writes issued for this shard's frames
  };

  /// A dirty frame detached for eviction: its image is written back outside
  /// the latch.
  struct Victim {
    Key key;
    PageImage image;
  };

  size_t ShardIndex(const Key& k) const;
  Shard& ShardFor(const Key& k) { return shards_[ShardIndex(k)]; }

  /// Moves a re-referenced frame to its segment head, promoting cold->hot and
  /// rebalancing the midpoint. Caller holds s.mu.
  void TouchLocked(Shard& s, const Key& k, Frame& f);
  /// Demotes hot-tail frames to the cold head until the hot segment is back
  /// under its 5/8 cap. Caller holds s.mu.
  void RebalanceLocked(Shard& s);
  /// Takes a resident frame out of its LRU segment and out of the shard's
  /// and the pool's byte counts; the frame stays mapped. Caller holds s.mu.
  void UnlinkLocked(Shard& s, Frame& f);
  /// Evicts unpinned resident frames of `s` (cold tail first, then hot tail)
  /// until the global total fits capacity or the shard has no victim left.
  /// Clean victims are erased in place; dirty ones are detached as kWriting
  /// and returned for the caller to write back after releasing s.mu.
  std::vector<Victim> DetachVictimsLocked(Shard& s);
  /// Erases detached victims after their write-back and wakes waiters.
  void FinishVictimsLocked(Shard& s, const std::vector<Victim>& victims);
  /// One file's dirty pages in a flush snapshot. The name is copied under
  /// the shard latch: by the time the flush reaches these keys the file may
  /// have been dropped.
  struct DirtyFile {
    std::string name;
    uint64_t file_id;
    std::vector<Key> keys;
  };
  /// Snapshots the keys of dirty *resident* frames (optionally of one file),
  /// in (file name, page id) order so a batch flush of a freshly built file
  /// is physically sequential. Loading frames are skipped (their creator
  /// holds the pin mid-write) and kWriting victims are already being written
  /// — so flushes never block on other pages' in-flight I/O.
  std::vector<DirtyFile> CollectDirty(const PageFile* only_file);
  /// Writes back every page CollectDirty(only_file) finds.
  void Flush(const PageFile* only_file);
  /// Writes back one page if it is still mapped, resident, and dirty (a key
  /// whose file was dropped since collection finds nothing). Under the latch
  /// the frame is flush-pinned and turns clean, its private copy becoming the
  /// image it shares with the device; the device write, which installs that
  /// image, happens outside the latch.
  void WriteBackOne(const Key& k);

  const uint64_t capacity_;
  const size_t shards_count_;
  std::atomic<uint64_t> cached_bytes_{0};
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace upi::storage
