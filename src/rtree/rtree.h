// A disk-paged R-Tree over uncertain 2-D objects.
//
// Each leaf entry carries, besides the object's support MBR and TupleId, the
// parameters of its constrained Gaussian (mean, sigma, boundary radius). From
// these the analytic radial CDF yields the same lower/upper appearance-
// probability bounds a U-Tree precomputes as "x-bounds" (Tao et al. [16]), so
// probabilistic threshold pruning happens during tree descent, before any
// heap access. Leaves carry a NodeLocator label that the continuous UPI uses
// as the heap-clustering key (Section 5).
//
// Quadratic-split insertion (Guttman) plus STR bulk build. Node pages are
// 4 KB by default — the paper's "R-Tree nodes (4KB page)" in Figure 2.
#pragma once

#include <functional>
#include <vector>

#include "catalog/tuple.h"
#include "common/status.h"
#include "rtree/node_path.h"
#include "rtree/rect.h"
#include "storage/pager.h"

namespace upi::rtree {

struct RTreeOptions {
  uint32_t page_size = 4096;
  double fill_factor = 0.9;  // bulk-build fill
};

/// One uncertain object in a leaf.
struct ObjectEntry {
  Rect mbr;                  // support MBR (mean +- bound)
  catalog::TupleId id = 0;
  uint64_t payload = 0;      // opaque (e.g. packed heap RID for baselines)
  Point mean;
  double sigma = 1.0;
  double bound = 1.0;

  /// Bounds on P(object within circle(c, r)) from the analytic radial CDF.
  double LowerBoundInCircle(Point c, double r) const;
  double UpperBoundInCircle(Point c, double r) const;
  /// Exact appearance probability (numeric integration when bounds differ).
  double ProbInCircle(Point c, double r) const;

  static constexpr size_t kSerializedSize =
      Rect::kSerializedSize + 8 + 8 + 16 + 8 + 8;
};

class RTree {
 public:
  /// Creates an empty tree.
  RTree(storage::Pager pager, RTreeOptions options, NodeLocator* locator);

  /// STR bulk build. Leaf labels are assigned in spatial order;
  /// `on_place(label, entry)` reports every placement (the continuous UPI
  /// builds its heap from this stream).
  static Result<RTree> BulkBuild(
      storage::Pager pager, RTreeOptions options, NodeLocator* locator,
      std::vector<ObjectEntry> entries,
      const std::function<Status(uint64_t, const ObjectEntry&)>& on_place);

  /// Inserts one object; `*label` receives the leaf it landed in.
  /// `on_move(id, from_label, to_label)` reports entries relocated by leaf
  /// splits so the owner can move the corresponding heap tuples.
  Status Insert(const ObjectEntry& entry, uint64_t* label,
                const std::function<Status(catalog::TupleId, uint64_t, uint64_t)>&
                    on_move);

  /// Visits every leaf entry whose MBR intersects circle(center, radius).
  Status SearchCircle(Point center, double radius,
                      const std::function<void(const ObjectEntry&, uint64_t)>&
                          fn) const;

  /// Visits every leaf entry whose MBR intersects `rect`.
  Status SearchRect(const Rect& rect,
                    const std::function<void(const ObjectEntry&, uint64_t)>& fn)
      const;

  uint64_t num_entries() const { return num_entries_; }
  uint32_t height() const { return height_; }
  uint64_t size_bytes() const { return pager_.file()->size_bytes(); }

  /// Structural check: MBR containment, entry counts, leaf depth (tests).
  Status ValidateInvariants() const;

 private:
  struct Node;
  struct SplitResult;

  Status ReadNode(storage::PageId id, Node* out) const;
  void WriteNode(storage::PageId id, const Node& node);
  size_t LeafCapacity() const;
  size_t InternalCapacity() const;

  Status InsertRec(storage::PageId page_id, const ObjectEntry& entry,
                   uint64_t* label, Rect* mbr_out, SplitResult* split,
                   const std::function<Status(catalog::TupleId, uint64_t,
                                              uint64_t)>& on_move);
  Status SearchRec(storage::PageId page_id,
                   const std::function<bool(const Rect&)>& overlaps,
                   const std::function<void(const ObjectEntry&, uint64_t)>& fn)
      const;
  Status ValidateRec(storage::PageId page_id, uint32_t depth, const Rect& bound,
                     uint64_t* entries) const;

  mutable storage::Pager pager_;
  RTreeOptions options_;
  NodeLocator* locator_;
  storage::PageId root_;
  uint32_t height_ = 1;
  uint64_t num_entries_ = 0;
};

}  // namespace upi::rtree
