#include "baseline/pii.h"

namespace upi::baseline {

PiiIndex::PiiIndex(btree::BTree tree)
    : tree_(std::make_unique<btree::BTree>(std::move(tree))) {}

std::string PiiIndex::EncodeRid(storage::Rid rid) {
  std::string buf;
  PutFixed32(&buf, rid.page);
  PutFixed32(&buf, rid.slot);
  return buf;
}

storage::Rid PiiIndex::DecodeRid(std::string_view buf) {
  storage::Rid rid;
  rid.page = GetFixed32(buf.data());
  rid.slot = GetFixed32(buf.data() + 4);
  return rid;
}

Status PiiIndex::Put(std::string_view value, double confidence,
                     catalog::TupleId id, storage::Rid rid) {
  return tree_->Put(core::EncodeUpiKey(value, confidence, id), EncodeRid(rid))
      .status();
}

Status PiiIndex::Remove(std::string_view value, double confidence,
                        catalog::TupleId id) {
  return tree_->Delete(core::EncodeUpiKey(value, confidence, id));
}

Status PiiIndex::Collect(std::string_view value, double qt,
                         std::vector<Entry>* out, size_t limit) const {
  std::string prefix = core::UpiKeyPrefix(value);
  for (btree::Cursor c = tree_->Seek(prefix); c.Valid() && out->size() < limit;
       c.Next()) {
    if (c.key().substr(0, prefix.size()) != prefix) break;
    Entry e;
    UPI_RETURN_NOT_OK(core::DecodeUpiKey(c.key(), &e.key));
    if (e.key.prob < qt) break;
    if (c.value().size() < 8) return Status::Corruption("bad PII rid");
    e.rid = DecodeRid(c.value());
    out->push_back(e);
  }
  return Status::OK();
}

bool PiiIndex::Fits(std::string_view key, uint32_t page_size) {
  return btree::kNodeHeaderSize +
             btree::Node::LeafEntrySize(key, EncodeRid(storage::Rid{})) <=
         page_size;
}

Status PiiIndex::Builder::Add(std::string_view key, storage::Rid rid) {
  return builder_.Add(key, EncodeRid(rid));
}

Result<std::unique_ptr<PiiIndex>> PiiIndex::Builder::Finish() {
  UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder_.Finish());
  return std::unique_ptr<PiiIndex>(new PiiIndex(std::move(tree)));
}

}  // namespace upi::baseline
