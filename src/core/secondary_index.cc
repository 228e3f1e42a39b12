#include "core/secondary_index.h"

namespace upi::core {

SecondaryIndex::SecondaryIndex(btree::BTree tree, int max_pointers)
    : tree_(std::make_unique<btree::BTree>(std::move(tree))),
      max_pointers_(max_pointers) {}

void SecondaryIndex::EncodePointers(std::span<const SecondaryPointer> pointers,
                                    bool has_cutoff, std::string* out) {
  out->push_back(has_cutoff ? '\x01' : '\x00');
  PutVarint32(out, static_cast<uint32_t>(pointers.size()));
  for (const auto& p : pointers) {
    PutVarint32(out, static_cast<uint32_t>(p.attr.size()));
    out->append(p.attr);
    AppendProbDesc(out, p.prob);
  }
}

Status SecondaryIndex::DecodePointers(std::string_view buf,
                                      std::vector<SecondaryPointer>* pointers,
                                      bool* has_cutoff) {
  if (buf.empty()) return Status::Corruption("empty secondary entry");
  const char* p = buf.data();
  const char* limit = buf.data() + buf.size();
  *has_cutoff = *p++ != '\x00';
  uint32_t n;
  size_t consumed = GetVarint32(p, limit, &n);
  if (consumed == 0) return Status::Corruption("bad secondary pointer count");
  p += consumed;
  pointers->clear();
  pointers->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t len;
    consumed = GetVarint32(p, limit, &len);
    if (consumed == 0 || p + consumed + len + 4 > limit) {
      return Status::Corruption("bad secondary pointer");
    }
    p += consumed;
    SecondaryPointer ptr;
    ptr.attr.assign(p, len);
    p += len;
    ptr.prob = DecodeProbDesc(p);
    p += 4;
    pointers->push_back(std::move(ptr));
  }
  return Status::OK();
}

void SecondaryIndex::EncodeLimitedPointers(
    std::span<const SecondaryPointer> pointers, bool has_cutoff,
    int max_pointers, std::string* out) {
  const size_t listed = LimitedCount(pointers.size(), max_pointers);
  EncodePointers(pointers.first(listed), has_cutoff || listed < pointers.size(),
                 out);
}

Result<uint32_t> SecondaryIndex::PointerCount(std::string_view buf) {
  uint32_t n = 0;
  if (buf.empty() ||
      GetVarint32(buf.data() + 1, buf.data() + buf.size(), &n) == 0) {
    return Status::Corruption("bad secondary pointer count");
  }
  return n;
}

Status SecondaryIndex::Put(std::string_view sec_value, double confidence,
                           catalog::TupleId id,
                           const std::vector<SecondaryPointer>& pointers,
                           bool has_cutoff) {
  if (pointers.empty()) {
    return Status::InvalidArgument(
        "secondary entry needs at least one pointer (the first alternative "
        "is always heap-resident)");
  }
  std::string buf;
  EncodeLimitedPointers(pointers, has_cutoff, max_pointers_, &buf);
  ++put_entries_;
  put_pointers_ += LimitedCount(pointers.size(), max_pointers_);
  return tree_->Put(EncodeUpiKey(sec_value, confidence, id), buf).status();
}

Status SecondaryIndex::Remove(std::string_view sec_value, double confidence,
                              catalog::TupleId id) {
  return tree_->Delete(EncodeUpiKey(sec_value, confidence, id));
}

Status SecondaryIndex::Collect(std::string_view sec_value, double qt,
                               std::vector<SecondaryEntry>* out) const {
  std::string prefix = UpiKeyPrefix(sec_value);
  for (btree::Cursor c = tree_->Seek(prefix); c.Valid(); c.Next()) {
    if (c.key().substr(0, prefix.size()) != prefix) break;
    SecondaryEntry e;
    UPI_RETURN_NOT_OK(DecodeUpiKey(c.key(), &e.key));
    if (e.key.prob < qt) break;
    UPI_RETURN_NOT_OK(DecodePointers(c.value(), &e.pointers, &e.has_cutoff));
    out->push_back(std::move(e));
  }
  return Status::OK();
}

SecondaryIndex::Builder::Builder(storage::Pager pager, int max_pointers)
    : builder_(pager), max_pointers_(max_pointers) {}

Status SecondaryIndex::Builder::Add(std::string_view key,
                                    std::string_view pointers) {
  UPI_ASSIGN_OR_RETURN(uint32_t count, PointerCount(pointers));
  if (count == 0) {
    return Status::InvalidArgument("secondary entry needs at least one pointer");
  }
  ++put_entries_;
  put_pointers_ += count;
  return builder_.Add(key, pointers);
}

Result<std::unique_ptr<SecondaryIndex>> SecondaryIndex::Builder::Finish() {
  UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder_.Finish());
  auto index = std::unique_ptr<SecondaryIndex>(
      new SecondaryIndex(std::move(tree), max_pointers_));
  index->put_entries_ = put_entries_;
  index->put_pointers_ = put_pointers_;
  return index;
}

}  // namespace upi::core
