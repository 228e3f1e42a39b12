// The cost-based query planner: the Section 6 cost modeling applied *online*.
//
// Where the paper's Section 6 models price queries with Table 6's flat
// constants (every seek = Tseek) for the offline advisor, the planner prices
// candidate plans against the *device it actually runs on* — the simulated
// disk's distance-dependent seeks. A pointer sweep over x sorted targets is
// priced as r region jumps (a short seek each, gap = table/r) plus the
// near-sequential pages those regions share, saturating at Costscan — the
// same Section 6.3 saturation observation, derived from seek physics instead
// of the fitted sigmoid (which stays in core::CostModel for the Figure 10-12
// reproductions).
//
// Per query the planner weighs: the path's native primary probe (clustered
// region read + cutoff pointers, or a PII inverted-list fetch) vs. a full
// sequential scan; secondary first-pointer vs. tailored access (Algorithm 3,
// priced by how many distinct heap regions each mode dereferences — tailored
// coalesces multi-pointer entries into already-read regions) vs. scan; and
// for top-k the direct cursor vs. the two Section 9 threshold-query
// strategies. Every decision is explainable: Plan::Explain() prints the
// chosen plan and each candidate's predicted simulated cost.
//
// Estimation is RAM-only (histograms + incrementally-tracked physical stats)
// — planning never charges simulated I/O.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/access_path.h"
#include "engine/query.h"
#include "obs/metrics.h"
#include "sim/cost_params.h"
#include "sim/device_profile.h"

namespace upi::engine {

enum class PlanKind {
  kPrimaryProbe,             // the path's native PTQ (clustered or PII)
  kSecondaryFirstPointer,    // secondary index, always-first-pointer
  kSecondaryTailored,        // secondary index, Algorithm 3
  kHeapScan,                 // full sequential sweep + filter
  kTopKDirect,               // early-terminating cursor
  kTopKEstimatedThreshold,   // Section 9: one PTQ at the estimated k-th prob
  kTopKDecreasingThreshold,  // Section 9: PTQs at geometrically lower QTs
};

const char* PlanKindName(PlanKind kind);

/// One costed alternative the planner considered.
struct PlanCandidate {
  PlanKind kind;
  double predicted_ms = 0.0;
  bool feasible = true;   // path supports it
  std::string note{};     // model inputs, e.g. "sel=0.012 ptrs=340"
};

/// An executable, explainable decision. exec::Execute() runs it.
///
/// Cheaply copyable: the candidate list — the only heavyweight member, and
/// immutable once the planner chose — is shared between copies, so returning
/// a Plan through Result<Plan> on the hot prepared-execution path costs a
/// refcount bump plus two small strings, not a vector deep-copy.
struct Plan {
  PlanKind kind = PlanKind::kPrimaryProbe;
  std::string table;        // access-path name (for Explain)
  int column = -1;          // secondary column; -1 = primary attribute
  std::string value;
  double qt = 0.0;
  size_t k = 0;
  /// Row cap carried from Query::limit (0 = all); cursors stop the
  /// underlying descent once satisfied.
  size_t limit = 0;
  /// Starting threshold for kTopKEstimatedThreshold / kTopKDecreasingThreshold.
  double initial_qt = 0.0;
  double predicted_ms = 0.0;
  /// Expected fan-out after fracture pruning (see core/fracture_summary.h):
  /// the planner prices probes with `fractures_probed` instead of Nfrac, and
  /// Explain() reports probed vs pruned. Equal when the path has no pruning
  /// metadata or pruning is disabled.
  double fractures_probed = 1.0;
  uint32_t fractures_total = 1;
  /// Shard fan-out for horizontally partitioned paths (engine/partition.h):
  /// `shards_probed` counts shards the per-shard summaries admit for this
  /// (column, value, qt); the rest are pruned without being opened. 1 of 1 on
  /// unpartitioned paths, and Explain() then omits the shard line.
  double shards_probed = 1.0;
  uint32_t shards_total = 1;
  /// Every costed alternative, chosen first. Shared and immutable.
  std::shared_ptr<const std::vector<PlanCandidate>> shared_candidates;

  const std::vector<PlanCandidate>& candidates() const {
    static const std::vector<PlanCandidate> kEmpty;
    return shared_candidates == nullptr ? kEmpty : *shared_candidates;
  }

  /// EXPLAIN-style report: the query, the chosen access path, its predicted
  /// simulated cost, and every rejected candidate with its cost.
  std::string Explain() const;
};

class QueryPlanner {
 public:
  /// `path` must outlive the planner. Predictions are denominated in
  /// `profile`'s cost constants (default: the paper's Table 6 spinning disk),
  /// and scatter-gather overlap is additionally capped by the device's
  /// internal queue depth (see GatherSpeedup). The same query on the same
  /// table can — and on realistic stats does — pick a different winning plan
  /// per profile; nothing here special-cases flash beyond the constants.
  /// `metrics`, when non-null, receives `upi_planner_plans_total` (one per
  /// planning decision) and must outlive the planner.
  explicit QueryPlanner(
      const AccessPath* path,
      sim::DeviceProfile profile = sim::DeviceProfile::SpinningDisk(),
      obs::MetricsRegistry* metrics = nullptr)
      : path_(path),
        profile_(profile),
        params_(profile.cost),
        plans_total_(metrics != nullptr
                         ? metrics->counter("upi_planner_plans_total")
                         : nullptr) {}

  /// SELECT * WHERE primary_attr = value THRESHOLD qt.
  Plan PlanPtq(std::string_view value, double qt) const;

  /// SELECT * WHERE sec_col = value THRESHOLD qt via a secondary index (or a
  /// scan, when the sweep saturates).
  Plan PlanSecondary(int column, std::string_view value, double qt) const;

  /// Top-k on the primary attribute.
  Plan PlanTopK(std::string_view value, size_t k) const;

  /// Plans a declarative Query (dispatches on its kind; carries limit).
  Plan PlanQuery(const Query& q) const;

  const AccessPath* path() const { return path_; }

 private:
  /// One index descent: Costinit (when the path charges opens) + a random
  /// seek to the file + short hops down the remaining levels.
  double LookupMs(const PathStats& s) const;
  /// Predicted cost of the path's native PTQ at (value, qt); `pe` is the
  /// expected post-pruning fan-out for that probe.
  double PrimaryProbeMs(const PathStats& s, const core::PruneEstimate& pe,
                        std::string_view value, double qt,
                        std::string* note) const;
  double ScanMs(const PathStats& s) const;
  /// Scan priced over the pruned fan-out: only probed fractures pay their
  /// open + seek, only their bytes transfer.
  double PrunedScanMs(const PathStats& s, const core::PruneEstimate& pe) const;
  /// Sorted sweep dereferencing `x` targets that coalesce into `regions`
  /// contiguous heap regions; saturates at ScanMs (Section 6.3).
  double SortedSweepMs(const PathStats& s, double x, double regions) const;
  /// Wall-clock divisor for a scatter-gathered probe: min(gather_width,
  /// shards_probed) thread overlap, additionally capped by the device queue
  /// depth on flash (the channels, not the pool, bound concurrent service).
  /// On the spinning-disk profile this is the classic formula, untouched.
  double GatherSpeedup(const PathStats& s, double shards_probed) const;

  Plan Choose(std::vector<PlanCandidate> candidates) const;

  const AccessPath* path_;
  sim::DeviceProfile profile_{};
  sim::CostParams params_;  // == profile_.cost (kept for formula brevity)
  obs::Counter* plans_total_ = nullptr;  // null = unregistered planner
};

}  // namespace upi::engine
