#include "storage/buffer_pool.h"

#include <algorithm>
#include <memory>

#include "common/check.h"

namespace upi::storage {

namespace {
// Hot segment cap: 5/8 of a shard's resident bytes, the classic midpoint
// split. A first reference parks a page in the cold segment; only a
// re-reference promotes it, so one-touch scan pages never displace the hot
// set.
constexpr uint64_t kHotNum = 5;
constexpr uint64_t kHotDen = 8;
}  // namespace

BufferPool::BufferPool(uint64_t capacity_bytes, size_t num_shards)
    : capacity_(capacity_bytes),
      shards_count_(num_shards == 0 ? 1 : num_shards),
      shards_(std::make_unique<Shard[]>(shards_count_)) {}

void BufferPool::Frame::Own(std::string_view bytes) {
  auto copy = std::make_shared<std::string>(bytes);
  own = copy.get();
  image = std::move(copy);
}

size_t BufferPool::ShardIndex(const Key& k) const {
  // Finalize the map hash so low-entropy PageIds spread across shards.
  uint64_t h = KeyHash{}(k);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h % shards_count_);
}

void BufferPool::TouchLocked(Shard& s, const Key& k, Frame& f) {
  if (f.hot) {
    s.hot.erase(f.lru_it);
    s.hot.push_front(k);
    f.lru_it = s.hot.begin();
    return;
  }
  // Re-reference of a cold page: promote across the midpoint.
  s.cold.erase(f.lru_it);
  s.hot.push_front(k);
  f.lru_it = s.hot.begin();
  f.hot = true;
  s.hot_bytes += f.page_bytes;
  RebalanceLocked(s);
}

void BufferPool::RebalanceLocked(Shard& s) {
  while (s.hot_bytes * kHotDen > s.bytes * kHotNum && s.hot.size() > 1) {
    Key tail = s.hot.back();
    s.hot.pop_back();
    auto it = s.frames.find(tail);
    UPI_CHECK(it != s.frames.end(), "hot LRU entry without a frame");
    Frame& f = it->second;
    s.cold.push_front(tail);
    f.lru_it = s.cold.begin();
    f.hot = false;
    s.hot_bytes -= f.page_bytes;
  }
}

void BufferPool::UnlinkLocked(Shard& s, Frame& f) {
  if (f.hot) s.hot_bytes -= f.page_bytes;
  (f.hot ? s.hot : s.cold).erase(f.lru_it);
  s.bytes -= f.page_bytes;
  cached_bytes_.fetch_sub(f.page_bytes, std::memory_order_relaxed);
}

std::vector<BufferPool::Victim> BufferPool::DetachVictimsLocked(Shard& s) {
  std::vector<Victim> victims;
  while (cached_bytes_.load(std::memory_order_relaxed) > capacity_) {
    // Scan the cold segment from its LRU end, then the hot segment, for an
    // unpinned victim.
    std::list<Key>* lists[] = {&s.cold, &s.hot};
    auto victim = s.frames.end();
    for (std::list<Key>* list : lists) {
      for (auto rit = list->rbegin(); rit != list->rend(); ++rit) {
        auto fit = s.frames.find(*rit);
        UPI_CHECK(fit != s.frames.end(), "LRU entry without a frame");
        if (fit->second.pins == 0 && fit->second.flush_pins == 0) {
          victim = fit;
          break;
        }
      }
      if (victim != s.frames.end()) break;
    }
    // Everything pinned: a temporary overflow.
    if (victim == s.frames.end()) break;
    Frame& f = victim->second;
    UnlinkLocked(s, f);
    ++s.evictions;
    if (f.dirty()) {
      // Keep the frame mapped (kWriting) until the write-back lands, so a
      // concurrent re-fetch can't read stale bytes from the file. Its
      // private copy becomes the device's image.
      f.state = Frame::State::kWriting;
      ++s.transients;
      ++s.writebacks;
      f.own = nullptr;
      victims.push_back(Victim{victim->first, std::move(f.image)});
    } else {
      s.frames.erase(victim);
    }
  }
  return victims;
}

void BufferPool::FinishVictimsLocked(Shard& s,
                                     const std::vector<Victim>& victims) {
  for (const Victim& v : victims) {
    auto it = s.frames.find(v.key);
    UPI_CHECK(it != s.frames.end() &&
                  it->second.state == Frame::State::kWriting,
              "written-back victim frame disappeared");
    s.frames.erase(it);
    --s.transients;
  }
  if (!victims.empty()) s.cv.notify_all();
}

PageImage BufferPool::Fetch(PageFile* file, PageId id, bool create,
                            std::string_view bytes, PageId after,
                            bool* read_device) {
  if (read_device != nullptr) *read_device = false;
  const Key k{file, id};
  Shard& s = ShardFor(k);
  const uint32_t page_bytes = file->page_size();
  std::unique_lock<sync::Mutex> lock(s.mu);
  for (;;) {
    auto it = s.frames.find(k);
    if (it == s.frames.end()) break;
    Frame& f = it->second;
    if (f.state != Frame::State::kResident) {
      // Another thread is reading this page in (kLoading) or writing a
      // detached victim back (kWriting): wait, then re-resolve. An I/O
      // wait: the transferring thread takes no lock but this shard latch.
      s.cv.io_wait(lock);
      continue;
    }
    ++s.hits;
    TouchLocked(s, k, f);
    ++f.pins;
    if (create) {
      // A recycled PageId (freed via one Pager, reallocated via another on
      // the same file) can still have a resident frame; a fresh page must
      // come back with only its new bytes and reach the device.
      f.Own(bytes);
    }
    return f.image;
  }

  // Miss: install a loading frame, then do all I/O outside the latch.
  ++s.misses;
  auto [it, inserted] = s.frames.try_emplace(k);
  UPI_CHECK(inserted, "loading frame raced an existing mapping");
  Frame& f = it->second;  // node-stable: rehashing never moves it
  f.state = Frame::State::kLoading;
  f.pins = 1;
  f.page_bytes = page_bytes;
  s.bytes += page_bytes;
  s.transients += 1;
  cached_bytes_.fetch_add(page_bytes, std::memory_order_relaxed);
  std::vector<Victim> victims = DetachVictimsLocked(s);

  lock.unlock();
  if (!victims.empty()) {
    // Retire the victims before this miss's own read: a thread re-fetching
    // an evicted page waits only for its write-back, not for our unrelated
    // (in realtime mode, sleeping) page read.
    for (const Victim& v : victims) v.key.file->Write(v.key.id, v.image);
    lock.lock();
    FinishVictimsLocked(s, victims);
    lock.unlock();
  }
  // Still kLoading: no other thread reads the frame yet. A created page is
  // dirty from here on: it must eventually reach the device.
  if (create) {
    f.Own(bytes);
  } else {
    f.image = file->Read(id, after);
    if (read_device != nullptr) *read_device = true;
  }
  lock.lock();

  f.state = Frame::State::kResident;
  f.hot = false;
  s.cold.push_front(k);
  f.lru_it = s.cold.begin();
  s.transients -= 1;
  s.cv.notify_all();
  return f.image;
}

void BufferPool::Unpin(PageFile* file, PageId id) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  std::lock_guard<sync::Mutex> lock(s.mu);
  auto it = s.frames.find(k);
  UPI_CHECK(it != s.frames.end(), "Unpin of a page with no mapped frame");
  UPI_CHECK(it->second.state == Frame::State::kResident,
            "Unpin of a non-resident frame");
  UPI_CHECK(it->second.pins > 0, "Unpin of an unpinned frame");
  --it->second.pins;
}

std::string* BufferPool::MutableData(PageFile* file, PageId id,
                                     PageImage* image) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  std::lock_guard<sync::Mutex> lock(s.mu);
  auto it = s.frames.find(k);
  UPI_CHECK(it != s.frames.end(),
            "MutableData of a page with no mapped frame");
  Frame& f = it->second;
  UPI_CHECK(f.state == Frame::State::kResident,
            "MutableData of a non-resident frame");
  UPI_CHECK(f.pins > 0, "MutableData of an unpinned frame");
  // References are only added under this latch (Fetch) or copied from a
  // holder, so a count of one proves no reader holds the private copy.
  if (!f.dirty() || f.image.use_count() > 1) f.Own(*f.image);
  if (image != nullptr) *image = f.image;
  return f.own;
}

std::vector<BufferPool::DirtyFile> BufferPool::CollectDirty(
    const PageFile* only_file) {
  std::vector<DirtyFile> files;
  std::unordered_map<uint64_t, size_t> index;  // file ordinal -> files slot
  for (size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<sync::Mutex> lock(s.mu);
    // A snapshot of the *resident, unpinned* dirty set. A pinned frame may
    // be mid-write by the thread that holds the pin (page writers hold only
    // their pin, never the shard latch), so copying it could put a torn
    // page on the device: it stays dirty for its next flush or eviction,
    // and callers that want a page flushed release its pin first. Loading
    // frames are pinned by their creator, and detached kWriting victims are
    // already on their way to the device. Never waiting on transients or
    // pins keeps flushes live under sustained traffic on other pages of the
    // shard.
    for (auto& [k, f] : s.frames) {
      if (f.state != Frame::State::kResident || !f.dirty() || f.pins > 0 ||
          (only_file != nullptr && k.file != only_file)) {
        continue;
      }
      auto [slot, added] = index.try_emplace(k.file_id, files.size());
      // The mapped frame keeps its file alive here: read the name now.
      if (added) files.push_back(DirtyFile{k.file->name(), k.file_id, {}});
      files[slot->second].keys.push_back(k);
    }
  }
  std::sort(files.begin(), files.end(),
            [](const DirtyFile& a, const DirtyFile& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.file_id < b.file_id;
            });
  for (DirtyFile& file : files) {
    std::sort(file.keys.begin(), file.keys.end(),
              [](const Key& a, const Key& b) { return a.id < b.id; });
  }
  return files;
}

void BufferPool::WriteBackOne(const Key& k) {
  Shard& s = ShardFor(k);
  PageImage image;
  {
    std::lock_guard<sync::Mutex> lock(s.mu);
    auto it = s.frames.find(k);
    if (it == s.frames.end() || it->second.state != Frame::State::kResident ||
        !it->second.dirty() || it->second.pins > 0) {
      // Evicted (and thus written), discarded, or its file dropped since
      // collection: the lookup never touched the PageFile. Or pinned again
      // since collection, and so possibly mid-write: left dirty, as
      // CollectDirty leaves it.
      return;
    }
    // Flush-pin, turn clean, then write outside the latch (in realtime mode
    // a write sleeps; holding the shard latch across it would stall every
    // client on this shard). From here the frame's bytes are the image the
    // device is about to hold, so they never change again: a concurrent
    // write pin takes a private copy, turning the frame dirty again, and a
    // later flush writes the newer bytes.
    ++it->second.flush_pins;
    it->second.own = nullptr;
    image = it->second.image;
  }
  k.file->Write(k.id, std::move(image));  // the flush pin holds off DiscardFile
  {
    std::lock_guard<sync::Mutex> lock(s.mu);
    auto it = s.frames.find(k);
    UPI_CHECK(it != s.frames.end() && it->second.flush_pins > 0,
              "flush-pinned frame disappeared");
    --it->second.flush_pins;
    ++s.writebacks;
    s.cv.notify_all();  // a Discard may be waiting the flush out
  }
}

void BufferPool::Flush(const PageFile* only_file) {
  for (const DirtyFile& file : CollectDirty(only_file)) {
    for (const Key& k : file.keys) WriteBackOne(k);
  }
}

void BufferPool::FlushAll() { Flush(nullptr); }

void BufferPool::FlushFile(PageFile* file) { Flush(file); }

void BufferPool::DropAll() {
  FlushAll();
  for (size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::unique_lock<sync::Mutex> lock(s.mu);
    // Unlike FlushAll, clearing the map must wait out in-flight loads and
    // victim write-backs (their threads hold references into it). DropAll is
    // the stop-the-world cold-cache protocol; callers quiesce traffic.
    s.cv.wait(lock, [&s] { return s.transients == 0; });
    for (auto& [k, f] : s.frames) {
      (void)k;
      UPI_CHECK(f.pins == 0, "DropAll with a pinned frame");
      UPI_CHECK(!f.dirty(), "DropAll found a dirty frame after FlushAll");
    }
    cached_bytes_.fetch_sub(s.bytes, std::memory_order_relaxed);
    s.frames.clear();
    s.hot.clear();
    s.cold.clear();
    s.bytes = 0;
    s.hot_bytes = 0;
  }
}

void BufferPool::Discard(PageFile* file, PageId id) {
  const Key k{file, id};
  Shard& s = ShardFor(k);
  std::unique_lock<sync::Mutex> lock(s.mu);
  for (;;) {
    auto it = s.frames.find(k);
    if (it == s.frames.end()) return;
    Frame& f = it->second;
    if (f.state != Frame::State::kResident || f.flush_pins > 0) {
      // In flight to or from the device (a FlushAll of another table may be
      // writing this frame): wait it out, then re-resolve.
      s.cv.wait(lock);
      continue;
    }
    UPI_CHECK(f.pins == 0, "Discard of a pinned page");
    UnlinkLocked(s, f);
    s.frames.erase(it);
    return;
  }
}

void BufferPool::DiscardFile(PageFile* file) {
  for (size_t i = 0; i < shards_count_; ++i) {
    Shard& s = shards_[i];
    std::unique_lock<sync::Mutex> lock(s.mu);
    // In flight to or from the device: wait it out, as Discard does.
    s.cv.wait(lock, [&s, file] {
      for (const auto& [k, f] : s.frames) {
        if (k.file == file &&
            (f.state != Frame::State::kResident || f.flush_pins > 0)) {
          return false;
        }
      }
      return true;
    });
    for (auto it = s.frames.begin(); it != s.frames.end();) {
      Frame& f = it->second;
      if (it->first.file != file) {
        ++it;
        continue;
      }
      UPI_CHECK(f.pins == 0, "DiscardFile of a file with a pinned page");
      UPI_CHECK(!f.dirty(), "DiscardFile of a file with a dirty page");
      UnlinkLocked(s, f);
      it = s.frames.erase(it);
    }
  }
}

uint64_t BufferPool::hits() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_count_; ++i) {
    std::lock_guard<sync::Mutex> lock(shards_[i].mu);
    total += shards_[i].hits;
  }
  return total;
}

uint64_t BufferPool::misses() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_count_; ++i) {
    std::lock_guard<sync::Mutex> lock(shards_[i].mu);
    total += shards_[i].misses;
  }
  return total;
}

uint64_t BufferPool::private_bytes() const {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_count_; ++i) {
    std::lock_guard<sync::Mutex> lock(shards_[i].mu);
    // A loading frame is its fetcher's until published: skip it.
    for (const auto& [k, f] : shards_[i].frames) {
      if (f.state == Frame::State::kResident && f.dirty()) total += f.page_bytes;
    }
  }
  return total;
}

BufferPool::PoolCounters BufferPool::shard_counters(size_t shard) const {
  const Shard& s = shards_[shard];
  std::lock_guard<sync::Mutex> lock(s.mu);
  return PoolCounters{s.hits, s.misses, s.evictions, s.writebacks};
}

BufferPool::PoolCounters BufferPool::counters() const {
  PoolCounters total;
  for (size_t i = 0; i < shards_count_; ++i) {
    PoolCounters c = shard_counters(i);
    total.hits += c.hits;
    total.misses += c.misses;
    total.evictions += c.evictions;
    total.writebacks += c.writebacks;
  }
  return total;
}

}  // namespace upi::storage
