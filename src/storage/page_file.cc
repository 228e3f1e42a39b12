#include "storage/page_file.h"

#include "common/check.h"

namespace upi::storage {

PageFile::PageFile(sim::SimDisk* disk, std::string name, uint32_t page_size)
    : disk_(disk),
      id_(disk->NewFileId()),
      name_(std::move(name)),
      page_size_(page_size) {
  UPI_CHECK(page_size_ >= 512, "page size below device sector size");
}

void PageFile::CheckLiveLocked(PageId id, const char* op) const {
  UPI_CHECK(id < pages_.size() && pages_[id].in_use, op);
}

PageId PageFile::Allocate() {
  std::lock_guard<sync::Mutex> lock(mu_);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    pages_[id].in_use = true;
    return id;
  }
  PageId id = static_cast<PageId>(pages_.size());
  pages_.push_back(PageMeta{disk_->Allocate(page_size_), true});
  images_.emplace_back();
  return id;
}

void PageFile::Free(PageId id) {
  std::lock_guard<sync::Mutex> lock(mu_);
  CheckLiveLocked(id, "Free of an unallocated or already-freed page");
  pages_[id].in_use = false;
  images_[id].reset();
  free_list_.push_back(id);
}

bool ReadsThroughGap(const sim::SimDisk& disk, uint64_t gap) {
  const sim::CostParams& p = disk.params();
  return p.ReadMs(gap) < p.SeekMs(gap, disk.SeekSpan());
}

PageImage PageFile::Read(PageId id, PageId after) {
  uint64_t addr;
  uint64_t after_end = UINT64_MAX;
  PageImage image;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    CheckLiveLocked(id, "Read of an unallocated or freed page");
    addr = pages_[id].addr;
    image = images_[id];
    // A page's address outlives its Free, so any page ever allocated will do.
    if (after < pages_.size()) after_end = pages_[after].addr + page_size_;
  }
  uint64_t start = addr;
  if (after_end < addr && ReadsThroughGap(*disk_, addr - after_end)) {
    start = after_end;
  }
  disk_->Read(start, addr + page_size_ - start);
  if (image == nullptr) image = std::make_shared<const std::string>();
  return image;
}

void PageFile::Write(PageId id, std::string_view data) {
  Write(id, std::make_shared<const std::string>(data));
}

void PageFile::Write(PageId id, PageImage image) {
  UPI_CHECK(image->size() <= page_size_, "record larger than the page");
  uint64_t addr;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    CheckLiveLocked(id, "Write to an unallocated or freed page");
    addr = pages_[id].addr;
    // The old image is released outside the lock, when `image` goes.
    images_[id].swap(image);
  }
  disk_->Write(addr, page_size_);
}

void PageFile::OpenIfClosed() {
  const uint64_t epoch = disk_->cold_epoch();
  if (open_epoch_.exchange(epoch, std::memory_order_relaxed) != epoch) {
    ChargeOpen();
  }
}

uint64_t PageFile::AddressOf(PageId id) const {
  std::lock_guard<sync::Mutex> lock(mu_);
  UPI_CHECK(id < pages_.size(), "AddressOf out of range");
  return pages_[id].addr;
}

}  // namespace upi::storage
