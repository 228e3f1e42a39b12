// Slotted-page heap file: the unclustered baseline storage ("clustered by an
// auto-increment sequence" in the paper's terms). Records are addressed by
// RID = (page, slot). Inserts append to the tail page; deletes leave holes —
// so a churned heap gets sparser and slower to sweep, which is exactly the
// deterioration the paper measures in Figure 9.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/pager.h"

namespace upi::storage {

struct Rid {
  PageId page = kInvalidPage;
  uint32_t slot = 0;

  bool valid() const { return page != kInvalidPage; }
  bool operator==(const Rid& o) const { return page == o.page && slot == o.slot; }
  bool operator<(const Rid& o) const {
    return page != o.page ? page < o.page : slot < o.slot;
  }
  std::string ToString() const;
};

class HeapFile {
 public:
  explicit HeapFile(Pager pager) : pager_(pager) {}

  /// Appends a record to the tail page (allocating a new page when full).
  Result<Rid> Insert(std::string_view record);

  /// Marks a slot deleted. The hole is not reclaimed.
  Status Delete(Rid rid);

  /// Reads one record.
  Status Read(Rid rid, std::string* out) const;

  /// Full sweep in physical page order; stops early if `fn` returns false.
  /// Skips deleted slots.
  void Scan(const std::function<bool(Rid, std::string_view)>& fn) const;

  /// Number of live (non-deleted) records.
  uint64_t live_records() const { return live_records_; }
  uint64_t num_pages() const { return pager_.file()->num_active_pages(); }
  Pager* pager() { return &pager_; }

  /// Largest record storable in one page of `page_size` bytes.
  static uint32_t MaxRecordSize(uint32_t page_size);

 private:
  mutable Pager pager_;
  PageId tail_ = kInvalidPage;
  uint64_t live_records_ = 0;
};

}  // namespace upi::storage
