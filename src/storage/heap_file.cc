#include "storage/heap_file.h"

#include <cstring>

#include "common/coding.h"

namespace upi::storage {

// Page layout:
//   [0:4]   num_slots (u32)
//   [4:8]   data_start (u32) -- cell region grows downward from page_size
//   [8:...] slot directory, 8 bytes per slot: offset (u32), len (u32)
// A deleted slot has len == kDeletedLen. Cell data sits in
// [data_start, page_size).
namespace {
constexpr uint32_t kHeaderSize = 8;
constexpr uint32_t kSlotSize = 8;
constexpr uint32_t kDeletedLen = 0xFFFFFFFFu;

uint32_t NumSlots(const std::string& page) {
  return page.size() < kHeaderSize ? 0 : GetFixed32(page.data());
}
uint32_t DataStart(const std::string& page, uint32_t page_size) {
  return page.size() < kHeaderSize ? page_size : GetFixed32(page.data() + 4);
}
void SetHeader(std::string* page, uint32_t num_slots, uint32_t data_start) {
  std::string h;
  PutFixed32(&h, num_slots);
  PutFixed32(&h, data_start);
  std::memcpy(page->data(), h.data(), kHeaderSize);
}
void ReadSlot(const std::string& page, uint32_t slot, uint32_t* off, uint32_t* len) {
  const char* p = page.data() + kHeaderSize + slot * kSlotSize;
  *off = GetFixed32(p);
  *len = GetFixed32(p + 4);
}
void WriteSlot(std::string* page, uint32_t slot, uint32_t off, uint32_t len) {
  std::string s;
  PutFixed32(&s, off);
  PutFixed32(&s, len);
  std::memcpy(page->data() + kHeaderSize + slot * kSlotSize, s.data(), kSlotSize);
}
}  // namespace

std::string Rid::ToString() const {
  std::string s = "(";
  s += std::to_string(page);
  s += ',';
  s += std::to_string(slot);
  s += ')';
  return s;
}

uint32_t HeapFile::MaxRecordSize(uint32_t page_size) {
  return page_size - kHeaderSize - kSlotSize;
}

Result<Rid> HeapFile::Insert(std::string_view record) {
  const uint32_t page_size = pager_.page_size();
  if (record.size() > MaxRecordSize(page_size)) {
    return Status::InvalidArgument("record larger than heap page");
  }
  auto fits = [&](const std::string& page) {
    uint32_t ns = NumSlots(page);
    uint32_t ds = DataStart(page, page_size);
    uint32_t used_top = kHeaderSize + ns * kSlotSize;
    return used_top + kSlotSize + record.size() <= ds;
  };

  PageRef ref;
  if (tail_ != kInvalidPage) {
    ref = pager_.Get(tail_);
    if (!fits(*ref.data())) ref.Release();
  }
  if (!ref.valid()) {
    PageId id;
    ref = pager_.New(&id);
    ref.mutable_data()->assign(page_size, '\0');
    SetHeader(ref.mutable_data(), 0, page_size);
    tail_ = id;
  }

  std::string* page = ref.mutable_data();
  if (page->size() < page_size) page->resize(page_size, '\0');
  uint32_t ns = NumSlots(*page);
  uint32_t ds = DataStart(*page, page_size);
  uint32_t new_ds = ds - static_cast<uint32_t>(record.size());
  std::memcpy(page->data() + new_ds, record.data(), record.size());
  WriteSlot(page, ns, new_ds, static_cast<uint32_t>(record.size()));
  SetHeader(page, ns + 1, new_ds);
  ++live_records_;
  return Rid{ref.id(), ns};
}

Status HeapFile::Delete(Rid rid) {
  PageRef ref = pager_.Get(rid.page);
  const std::string& page = *ref.data();
  if (rid.slot >= NumSlots(page)) {
    return Status::NotFound("heap slot out of range: " + rid.ToString());
  }
  uint32_t off, len;
  ReadSlot(page, rid.slot, &off, &len);
  if (len == kDeletedLen) return Status::NotFound("heap slot already deleted");
  WriteSlot(ref.mutable_data(), rid.slot, off, kDeletedLen);
  --live_records_;
  return Status::OK();
}

Status HeapFile::Read(Rid rid, std::string* out) const {
  PageRef ref = pager_.Get(rid.page);
  const std::string& page = *ref.data();
  if (rid.slot >= NumSlots(page)) {
    return Status::NotFound("heap slot out of range: " + rid.ToString());
  }
  uint32_t off, len;
  ReadSlot(page, rid.slot, &off, &len);
  if (len == kDeletedLen) return Status::NotFound("heap slot deleted");
  out->assign(page.data() + off, len);
  return Status::OK();
}

void HeapFile::Scan(const std::function<bool(Rid, std::string_view)>& fn) const {
  const uint64_t total = pager_.file()->num_active_pages() +
                         0;  // heap never frees pages; ids are dense
  for (PageId pid = 0; pid < total; ++pid) {
    PageRef ref = pager_.Get(pid);
    const std::string& page = *ref.data();
    uint32_t ns = NumSlots(page);
    for (uint32_t s = 0; s < ns; ++s) {
      uint32_t off, len;
      ReadSlot(page, s, &off, &len);
      if (len == kDeletedLen) continue;
      if (!fn(Rid{pid, s}, std::string_view(page.data() + off, len))) return;
    }
  }
}

}  // namespace upi::storage
