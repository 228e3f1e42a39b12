// Per-fracture pruning metadata (the LSM idea of per-run fences applied to
// Fractured UPIs).
//
// Section 4.2 charges every query on a Fractured UPI a full fan-out: buffer +
// main + every delta fracture, each costing Costinit + H seeks even when a
// fracture cannot possibly contain a matching tuple — the linear-in-Nfrac tax
// the Section 6.2 cost model prices and that MergeAll exists to repay.
// Fractures are written once and never updated in place, so at flush/merge
// time we can attach an immutable summary and *skip* fractures instead of
// merging them:
//
//  * a zone map: per indexed column (the clustered attribute plus every
//    secondary column), the min/max attribute key present in the fracture;
//  * a Bloom fence over the exact attribute keys of those columns, plus the
//    fracture's TupleIDs (salted separately), for point pruning inside the
//    zone;
//  * a max-existence-probability summary per column: the highest combined
//    probability (existence * alternative probability) of any alternative in
//    the fracture, so a PTQ whose threshold exceeds it skips the fracture
//    outright — and top-k drops fractures whose max probability cannot beat
//    the running k-th score.
//
// Summaries live in RAM beside the fracture list (a real system would append
// them to the fracture's footer page; at a few hundred bytes per fracture the
// simulated-I/O cost is below one page and is not charged). They are
// immutable after Build(), shared by pointer, and swapped together with the
// fracture list under the table's exclusive lock — queries prune lock-free
// off whatever snapshot they fanned out over.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/tuple.h"

namespace upi::core {

/// Planner-facing expectation of a pruned fan-out: how many fractures a
/// query (column, value, qt) is expected to actually open, and how many heap
/// bytes those probed fractures hold (the pruned scan's transfer volume).
/// A partitioned table also reports how many of its shards the probe admits;
/// a single-index path is one shard probing itself.
struct PruneEstimate {
  double probed_fractures = 0.0;
  uint32_t total_fractures = 0;
  uint64_t probed_bytes = 0;
  double probed_shards = 1.0;
  uint32_t total_shards = 1;

  uint32_t pruned() const {
    double p = static_cast<double>(total_fractures) - probed_fractures;
    return p > 0 ? static_cast<uint32_t>(p + 0.5) : 0;
  }
};

/// Which members of one fan-out to open. Index 0 is the main fracture,
/// 1..N the delta fractures in list order (the RAM buffer has no slot: it
/// is read through its own index and costs no I/O).
struct PruneSet {
  std::vector<bool> probe;
  size_t probed = 0;
  size_t pruned = 0;
};

class FractureSummary {
 public:
  struct ColumnSummary {
    std::string min_key;    // zone-map fences over attribute keys
    std::string max_key;
    double max_prob = 0.0;  // max combined probability of any alternative
    uint64_t alternatives = 0;
  };

  /// True when an alternative with this exact attribute key *may* exist in
  /// the fracture's column: inside the zone fences and not excluded by the
  /// Bloom fence. Columns without a summary never prune (returns true).
  bool MayContainKey(int column, std::string_view value) const;

  /// Highest combined probability of any alternative of `column` in the
  /// fracture; 1.0 when the column has no summary (cannot prune).
  double MaxProb(int column) const;

  /// The one query-time decision: can a probe (column, value, qt) skip this
  /// fracture entirely? True when the value cannot be present or no
  /// alternative can reach the threshold.
  bool CanSkip(int column, std::string_view value, double qt) const {
    return MaxProb(column) < qt || !MayContainKey(column, value);
  }

  /// Which fence fired, checked in CanSkip's order (cutoff, zone, Bloom).
  /// kNone means the fracture must be probed. Metrics separate Bloom rejects
  /// (the fence that costs RAM) from the free zone/cutoff skips.
  enum class SkipReason { kNone, kCutoff, kZone, kBloom };
  SkipReason WhySkip(int column, std::string_view value, double qt) const;

  /// Bloom check over the fracture's TupleIDs (salted separately from
  /// attribute keys). False means the id is definitely not in the fracture.
  bool MayContainTupleId(catalog::TupleId id) const;

  const ColumnSummary* column(int col) const;
  uint64_t tuple_count() const { return tuple_count_; }
  size_t bloom_bits() const { return bloom_.size() * 64; }
  /// RAM footprint (bench/diagnostics).
  size_t size_bytes() const;

  /// Accumulates one fracture's alternatives during flush or merge; the
  /// streams the fracture build already walks feed it, so no extra I/O.
  class Builder {
   public:
    /// One alternative of `column`: attribute key + combined probability.
    void AddKey(int column, std::string_view value, double prob);
    /// One distinct tuple of the fracture.
    void AddTupleId(catalog::TupleId id);

    /// Seals the summary (sizes and fills the Bloom fence from the
    /// accumulated key set). The builder is spent afterwards.
    std::shared_ptr<const FractureSummary> Build();

   private:
    std::map<int, FractureSummary::ColumnSummary> columns_;
    std::vector<uint64_t> hashes_;  // pre-hashed keys + tuple ids
    uint64_t tuple_count_ = 0;
  };

 private:
  FractureSummary() = default;

  bool BloomMayContain(uint64_t hash) const;

  std::map<int, ColumnSummary> columns_;
  std::vector<uint64_t> bloom_;  // bit array, 64 bits per word
  int bloom_probes_ = 0;
  uint64_t tuple_count_ = 0;
};

}  // namespace upi::core
