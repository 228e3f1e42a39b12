// The maintenance decision logic: turns the Section 6.2 cost model from a
// passive estimator into an active control loop.
//
// Flush: pure watermarks (buffered tuples / bytes / deletes), the knobs a
// buffer-tree flush pool checks on every insert.
//
// Merge: the paper leaves the "when" to the DBA — "the DBA has to carefully
// decide how often to merge, trading off the merging cost with the expected
// query speedup" (Section 4.3). This policy decides it analytically. A PTQ on
// a fractured UPI costs
//
//   Cost_frac = Costscan * Selectivity + Nfrac * (Costinit + H * Tseek)
//
// where the second term is the pure fracture tax: it grows linearly in Nfrac
// (the deterioration Figure 9 plots) while the first is layout-independent.
// So:
//   - partial merge (MergeOldestFractures(k)) when the fracture tax exceeds a
//     configurable fraction of the whole predicted query cost — the point
//     where maintenance debt, not data volume, dominates reads;
//   - full merge (MergeAll) past a deterioration threshold: predicted cost
//     relative to the ideal single-fracture layout — the knee the Figure 9 /
//     Table 8 trade-off implies, where repaying the whole debt beats another
//     round of partial repayments.
//
// Pruning-aware deterioration: when the table's fracture summaries are
// consulted (UpiOptions::enable_pruning), a query does not pay Nfrac
// lookups — it pays one per *expected probed* fracture for the reference
// query. The policy prices the tax with that expected fan-out, so a table
// whose fractures are mostly prunable deteriorates slower and merges can be
// deferred longer at the same query cost.
// Device-aware deferral: the policy prices with a sim::DeviceProfile, and on
// flash the fracture tax (Costinit + H * Tseek per probed fracture) is two
// orders of magnitude smaller, so the same thresholds fire far later — merges
// defer and write amplification is avoided without any flash-specific rule.
#pragma once

#include <optional>
#include <string>

#include "core/fractured_upi.h"
#include "sim/cost_params.h"
#include "sim/device_profile.h"

namespace upi::maintenance {

struct MergePolicyOptions {
  // --- Flush watermarks ----------------------------------------------------
  /// Flush when this many tuples are buffered in RAM.
  size_t flush_max_buffered_tuples = 8192;
  /// ... or when the buffered tuples' serialized footprint reaches this.
  uint64_t flush_max_buffered_bytes = 4ull << 20;
  /// ... or when this many deletions are buffered.
  size_t flush_max_buffered_deletes = 4096;

  // --- Merge triggers ------------------------------------------------------
  /// Partial merge when Nfrac * (Costinit + H*Tseek) exceeds this fraction of
  /// the predicted reference-query cost.
  double partial_merge_overhead_fraction = 0.5;
  /// Full merge when predicted query cost exceeds this multiple of the cost
  /// on an ideal fully-merged (Nfrac = 1) layout.
  double full_merge_deterioration = 3.0;
  /// Master switch; false gives the "never merge" baseline (flushes only).
  bool merges_enabled = true;

  // --- Reference query for the prediction ----------------------------------
  /// Threshold of the reference PTQ.
  double reference_qt = 0.1;
  /// When non-empty, Selectivity comes from the table's aggregated histogram
  /// via EstimateSelectivity(reference_value, reference_qt).
  std::string reference_value;
  /// Fallback Selectivity when no reference value is configured.
  double reference_selectivity = 0.02;
};

/// A policy verdict plus the model numbers that produced it (surfaced in
/// bench output so threshold sweeps are explainable).
struct Decision {
  std::optional<core::MaintenanceOp> action;  // nullopt: nothing due
  size_t merge_count = 0;         // kMergePartial: fan-in
  double predicted_query_ms = 0;  // Cost_frac at decision time
  double overhead_ms = 0;         // expected_probed * (Costinit + H*Tseek)
  double merged_query_ms = 0;     // Cost_frac with Nfrac = 1
  /// Fractures the reference query is expected to open (= Nfrac when the
  /// table does not prune or no reference value is configured).
  double expected_probed = 0;
  const char* reason = "";
};

class MergePolicy {
 public:
  MergePolicy(MergePolicyOptions options, sim::DeviceProfile profile)
      : options_(options), profile_(profile) {}

  /// Watermark check; cheap enough for every NotifyWrite (three counter
  /// reads under the table's shared lock).
  Decision DecideFlush(const core::FracturedUpi& table) const;

  /// Cost-model check. Reads fracture statistics, so it must not race a
  /// maintenance operation on `table` — the manager calls it only between
  /// tasks of the same (serialized) table.
  Decision DecideMerge(const core::FracturedUpi& table) const;

  /// Cost_frac for the reference query on the table's current layout.
  double PredictQueryMs(const core::FracturedUpi& table) const;

  const MergePolicyOptions& options() const { return options_; }
  const sim::DeviceProfile& profile() const { return profile_; }

 private:
  double Selectivity(const core::FracturedUpi& table) const;
  /// Fractures the reference query is expected to open under the table's
  /// pruning summaries; Nfrac when pruning is off or no reference value.
  double ExpectedProbed(const core::FracturedUpi& table) const;

  MergePolicyOptions options_;
  sim::DeviceProfile profile_{};
};

}  // namespace upi::maintenance
