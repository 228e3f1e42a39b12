// Hierarchical node locations for the continuous UPI (Section 5, Figure 2).
//
// The paper keys the continuous UPI's heap by the R-Tree leaf's hierarchical
// location (e.g. <2,1>) so that tuples of one leaf share a heap page and
// neighboring leaves map to neighboring heap pages. We linearize those
// locations into order-preserving 64-bit labels: bulk-built leaves get evenly
// spaced labels in spatial (STR) order, and a leaf split inserts the new
// leaf's label *between* its sibling's label and the successor label — the
// exact analogue of extending the path <2,1> to <2,1,x>, keeping heap order
// aligned with spatial order across splits.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "catalog/tuple.h"
#include "common/coding.h"

namespace upi::rtree {

class NodeLocator {
 public:
  /// Label for the i-th of n bulk-built leaves (evenly spaced).
  uint64_t AssignInitial(uint64_t i, uint64_t n);

  /// Label for a leaf created by splitting the leaf labelled `after`:
  /// the midpoint between `after` and its current successor.
  uint64_t AssignAfter(uint64_t after);

  void Forget(uint64_t label) { labels_.erase(label); }
  size_t num_labels() const { return labels_.size(); }
  bool Contains(uint64_t label) const { return labels_.contains(label); }

 private:
  std::set<uint64_t> labels_;
};

/// Heap key of a tuple inside a leaf's heap region: label ‖ TupleId, both
/// big-endian so byte order equals (label, id) order.
inline std::string EncodeLeafHeapKey(uint64_t label, catalog::TupleId id) {
  std::string key;
  PutFixed64BE(&key, label);
  PutFixed64BE(&key, id);
  return key;
}

inline void DecodeLeafHeapKey(std::string_view key, uint64_t* label,
                              catalog::TupleId* id) {
  *label = GetFixed64BE(key.data());
  *id = GetFixed64BE(key.data() + 8);
}

}  // namespace upi::rtree
