// Analytic cost models (Section 6).
//
//   Cost_frac = Costscan * Selectivity + Nfrac * (Costinit + H * Tseek)
//   Cost_cut  = Costscan * Selectivity + 2 * (Costinit + H * Tseek) + f(#ptrs)
//   f(x)      = Ceiling * (1 - e^{-kx}) / (1 + e^{-kx})
//
// The ceiling is Costscan, exactly as the paper observes: a saturated sorted
// pointer sweep degenerates to (nearly) a full table scan, and measurements
// on the simulated disk confirm it (short seeks over small gaps plus heavy
// leaf sharing make the sweep approach sequential cost; README.md, "Sorted
// heap fetches read forward", says how the engine reads such a sweep).
//
// One calibration adaptation: the paper sets k by
// the heuristic f(0.05 * Nleaf) = 0.99 * Costscan, "based on experimental
// evidence gathered through our experience" with their drive. On our device
// the measured-fit calibration anchors the sigmoid's initial slope to the
// cost of one isolated pointer dereference instead:
//   f'(0) = Ceiling * k / 2 = min_seek + one-page read   =>
//   k = 2 * (min_seek_ms + ReadMs(page)) / Ceiling.
// Both calibrations are exposed; DeviceCalibratedK() is the default and
// PaperHeuristicK() reproduces the paper's rule.
//
// Device profiles: the models are parameterized by a sim::DeviceProfile, so
// the same formulas price the same query differently per device — on flash
// (near-free seeks, tiny Costinit) the Nfrac * (Costinit + H * Tseek)
// fracture tax collapses, which is what lets MergePolicy defer merges there
// without any flash-specific rule.
#pragma once

#include <cstdint>

#include "sim/cost_params.h"
#include "sim/device_profile.h"

namespace upi::core {

class Upi;
class FracturedUpi;

/// Physical statistics of one (fractured) UPI, the model's inputs (paper
/// Table 6 obtains these via BDB's DB::stat()).
struct TableStats {
  uint64_t table_bytes = 0;     // Stable: heap file footprint
  uint64_t num_leaf_pages = 0;  // Nleaf
  uint32_t btree_height = 1;    // H
  uint32_t num_fractures = 1;   // Nfrac (main counts as one)
  uint32_t page_size = 8192;

  static TableStats Of(const Upi& upi);
  /// The fractures' sums, as FracturedUpi::Stats reports them (an empty
  /// table counts one fracture).
  static TableStats Of(const FracturedUpi& fractured);
};

class CostModel {
 public:
  CostModel(sim::DeviceProfile profile, TableStats stats)
      : profile_(profile), params_(profile.cost), stats_(stats) {}

  /// Costscan: sequential read of the whole heap.
  double CostScanMs() const;

  /// Costinit + H * Tseek: opening a table and descending its B+Tree.
  double LookupOverheadMs() const;

  /// Section 6.2: query cost over a fractured UPI.
  double FracturedQueryMs(double selectivity) const;

  /// Section 6.2: Costmerge = Stable * (Tread + Twrite).
  double MergeMs() const;

  /// Costmerge on a device carrying GC debt: the write half is amplified by
  /// the profile's write-amp factor scaled by `gc_pressure` in [0, 1].
  /// Identical to MergeMs() at pressure 0 and on the spinning-disk profile.
  double MergeMs(double gc_pressure) const;

  /// Section 6.3: query cost when the cutoff index must be consulted.
  /// `num_pointers` is the (estimated) number of cutoff pointers followed.
  double CutoffQueryMs(double selectivity, double num_pointers) const;

  /// The sigmoid pointer-following cost f(x).
  double PointerFollowMs(double num_pointers) const;

  /// f's ceiling: Costscan (a saturated sorted sweep degenerates to a full
  /// table scan — the paper's Section 6.3 observation).
  double SaturationCeilingMs() const;

  /// Default k: slope anchored at the cost of one isolated pointer
  /// dereference (see file comment).
  double DeviceCalibratedK() const;

  /// The paper's heuristic: f(0.05 * Nleaf) = 0.99 * Ceiling.
  double PaperHeuristicK() const;

  /// The k used by PointerFollowMs.
  double SigmoidK() const { return DeviceCalibratedK(); }

  const TableStats& stats() const { return stats_; }
  const sim::CostParams& params() const { return params_; }
  const sim::DeviceProfile& profile() const { return profile_; }

 private:
  sim::DeviceProfile profile_;
  sim::CostParams params_;  // == profile_.cost (kept for formula brevity)
  TableStats stats_;
};

}  // namespace upi::core
