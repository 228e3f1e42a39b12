// Per-file facade over (PageFile, BufferPool) with RAII page pinning.
// All index and heap structures do their page I/O through a Pager.
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace upi::storage {

class Pager;

/// \brief A pinned reference to one cached page. Unpins on destruction.
///
/// A pin reads the page's shared image (data(), image()); image() may be
/// kept past the pin, and its bytes never change. To write, call
/// mutable_data(): its first call marks the frame dirty and gives the pin
/// the frame's private copy (BufferPool::MutableData), which it then writes
/// in place while pinned.
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, PageFile* file, PageId id, PageImage image)
      : pool_(pool), file_(file), id_(id), image_(std::move(image)) {}
  PageRef(PageRef&& o) noexcept { *this = std::move(o); }
  PageRef& operator=(PageRef&& o) noexcept {
    Release();
    pool_ = o.pool_;
    file_ = o.file_;
    id_ = o.id_;
    image_ = std::move(o.image_);
    writable_ = o.writable_;
    o.pool_ = nullptr;
    o.writable_ = nullptr;
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  bool valid() const { return image_ != nullptr; }
  PageId id() const { return id_; }
  /// The page's bytes, as this pin last saw or wrote them.
  const std::string* data() const { return image_.get(); }
  /// The same bytes as a shared image, valid after Release.
  const PageImage& image() const { return image_; }
  /// The bytes to write in place; the first call marks the page dirty.
  std::string* mutable_data() {
    if (writable_ == nullptr) {
      // This pin's own reference must not count as a reader's.
      image_.reset();
      writable_ = pool_->MutableData(file_, id_, &image_);
    }
    return writable_;
  }

  void Release() {
    if (pool_ != nullptr && image_ != nullptr) pool_->Unpin(file_, id_);
    pool_ = nullptr;
    image_.reset();
    writable_ = nullptr;
  }

 private:
  BufferPool* pool_ = nullptr;
  PageFile* file_ = nullptr;
  PageId id_ = kInvalidPage;
  PageImage image_;
  std::string* writable_ = nullptr;  // set by the first mutable_data()
};

class Pager {
 public:
  Pager(BufferPool* pool, PageFile* file) : pool_(pool), file_(file) {}

  /// Pins an existing page. On a pool miss the page is read from the
  /// device; `after`, when given, is the page of this file the caller read
  /// from the device last, and lets that read start at its end instead of
  /// seeking over a short forward gap (PageFile::Read). `*read_device`,
  /// when given, tells whether this call read the device.
  PageRef Get(PageId id, PageId after = kInvalidPage,
              bool* read_device = nullptr) {
    return PageRef(pool_, file_, id,
                   pool_->Fetch(file_, id, /*create=*/false, {}, after,
                                read_device));
  }

  /// Allocates and pins a fresh page holding `bytes` (no read charged).
  PageRef New(PageId* id, std::string_view bytes = {}) {
    *id = file_->Allocate();
    return PageRef(pool_, file_, *id,
                   pool_->Fetch(file_, *id, /*create=*/true, bytes));
  }

  /// Frees a page; its cached frame is discarded without writeback.
  void Free(PageId id) {
    pool_->Discard(file_, id);
    file_->Free(id);
  }

  uint32_t page_size() const { return file_->page_size(); }
  PageFile* file() const { return file_; }
  BufferPool* pool() const { return pool_; }

 private:
  BufferPool* pool_;
  PageFile* file_;
};

}  // namespace upi::storage
