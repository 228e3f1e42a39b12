#include "core/cutoff_index.h"

namespace upi::core {

CutoffIndex::CutoffIndex(btree::BTree tree)
    : tree_(std::make_unique<btree::BTree>(std::move(tree))) {}

Status CutoffIndex::Add(std::string_view attr, double prob, catalog::TupleId id,
                        const std::string& first_key) {
  return tree_->Put(EncodeUpiKey(attr, prob, id), first_key).status();
}

Status CutoffIndex::Remove(std::string_view attr, double prob,
                           catalog::TupleId id) {
  return tree_->Delete(EncodeUpiKey(attr, prob, id));
}

Status CutoffIndex::CollectPointers(std::string_view attr, double qt,
                                    std::vector<PointerEntry>* out) const {
  std::string prefix = UpiKeyPrefix(attr);
  for (btree::Cursor c = tree_->Seek(prefix); c.Valid(); c.Next()) {
    if (c.key().substr(0, prefix.size()) != prefix) break;
    PointerEntry e;
    UPI_RETURN_NOT_OK(DecodeUpiKey(c.key(), &e.entry));
    if (e.entry.prob < qt) break;  // descending probability order
    e.heap_key.assign(c.value().data(), c.value().size());
    out->push_back(std::move(e));
  }
  return Status::OK();
}

CutoffIndex::Builder::Builder(storage::Pager pager) : builder_(pager) {}

Status CutoffIndex::Builder::Add(std::string_view key,
                                 std::string_view first_key) {
  return builder_.Add(key, first_key);
}

Result<std::unique_ptr<CutoffIndex>> CutoffIndex::Builder::Finish() {
  UPI_ASSIGN_OR_RETURN(btree::BTree tree, builder_.Finish());
  return std::unique_ptr<CutoffIndex>(new CutoffIndex(std::move(tree)));
}

}  // namespace upi::core
