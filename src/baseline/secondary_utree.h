// The secondary U-Tree baseline (paper Section 7.2, Figure 7).
//
// A U-Tree (Tao et al. [16]) indexes uncertain 2-D objects with precomputed
// probability bounds, but it is a *secondary* index: leaf entries point at
// RIDs in an unclustered heap, so every qualifying tuple costs a random heap
// seek. The continuous UPI beats it by co-locating tuples with the tree's
// leaf order. Our R-Tree leaf entries already carry the radial-CDF bound
// parameters (the x-bound analogue), so this baseline is the same tree with
// RID payloads and bitmap-style RID-ordered heap fetches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baseline/unclustered_table.h"
#include "core/upi.h"  // PtqMatch
#include "rtree/rtree.h"
#include "storage/db_env.h"

namespace upi::baseline {

class SecondaryUtree {
 public:
  /// U-Tree node size: the continuous UPI's R-Tree page (Figure 2).
  static constexpr uint32_t kPageSize = 4096;

  /// Bulk-builds the U-Tree over `table`'s tuples (which must already be
  /// loaded so RIDs exist). `location_column` is the Gaussian2D column.
  /// Every tuple is checked before the file is created.
  static Result<std::unique_ptr<SecondaryUtree>> Build(
      storage::DbEnv* env, std::string name, const UnclusteredTable& table,
      int location_column, const std::vector<catalog::Tuple>& tuples);

  /// Probabilistic range query: prune with the index's probability bounds,
  /// then fetch qualifying tuples from the unclustered heap by RID.
  Status QueryRange(const UnclusteredTable& table, prob::Point center,
                    double radius, double qt,
                    std::vector<core::PtqMatch>* out) const;

  rtree::RTree* rtree() const { return rtree_.get(); }
  uint64_t size_bytes() const { return rtree_->size_bytes(); }

 private:
  SecondaryUtree() = default;

  static uint64_t PackRid(storage::Rid rid) {
    return (uint64_t{rid.page} << 32) | rid.slot;
  }
  static storage::Rid UnpackRid(uint64_t payload) {
    return storage::Rid{static_cast<storage::PageId>(payload >> 32),
                        static_cast<uint32_t>(payload & 0xFFFFFFFFu)};
  }

  rtree::NodeLocator locator_;
  std::unique_ptr<rtree::RTree> rtree_;
};

}  // namespace upi::baseline
