#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace upi::engine {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kPrimaryProbe: return "primary-probe";
    case PlanKind::kSecondaryFirstPointer: return "secondary-first-pointer";
    case PlanKind::kSecondaryTailored: return "secondary-tailored";
    case PlanKind::kHeapScan: return "heap-scan";
    case PlanKind::kTopKDirect: return "topk-direct";
    case PlanKind::kTopKEstimatedThreshold: return "topk-estimated-threshold";
    case PlanKind::kTopKDecreasingThreshold: return "topk-decreasing-threshold";
  }
  return "?";
}

std::string Plan::Explain() const {
  char buf[160];
  std::string out;
  if (k > 0) {
    std::snprintf(buf, sizeof(buf), "EXPLAIN top-%zu value=\"%s\" on '%s'\n", k,
                  value.c_str(), table.c_str());
  } else if (column >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "EXPLAIN secondary col=%d value=\"%s\" qt=%.2f on '%s'\n",
                  column, value.c_str(), qt, table.c_str());
  } else {
    std::snprintf(buf, sizeof(buf), "EXPLAIN ptq value=\"%s\" qt=%.2f on '%s'\n",
                  value.c_str(), qt, table.c_str());
  }
  out += buf;
  std::snprintf(buf, sizeof(buf), "  chosen: %s  predicted=%.1f sim-ms\n",
                PlanKindName(kind), predicted_ms);
  out += buf;
  if (shards_total > 1) {
    std::snprintf(buf, sizeof(buf),
                  "  shards: probing %.0f of %u shards (%u pruned)\n",
                  shards_probed, shards_total,
                  shards_total - static_cast<uint32_t>(shards_probed + 0.5));
    out += buf;
  }
  if (fractures_total > 1) {
    std::snprintf(buf, sizeof(buf),
                  "  fractures: probing %.0f of %u (%u pruned by summaries)\n",
                  fractures_probed, fractures_total,
                  fractures_total - static_cast<uint32_t>(
                                        fractures_probed + 0.5));
    out += buf;
  }
  for (const PlanCandidate& c : candidates()) {
    std::snprintf(buf, sizeof(buf), "  %c %-26s %10.1f ms%s%s%s\n",
                  c.kind == kind ? '*' : ' ', PlanKindName(c.kind),
                  c.predicted_ms, c.feasible ? "" : "  (unsupported)",
                  c.note.empty() ? "" : "  ", c.note.c_str());
    out += buf;
  }
  return out;
}

namespace {

/// Expected distinct bins hit by `x` uniform throws into `bins` bins
/// (balls-in-bins); the regions/pages a scattered sweep actually touches.
double ExpectedDistinct(double x, double bins) {
  if (x <= 0) return 0.0;
  if (bins <= 1.0) return 1.0;
  return bins * (1.0 - std::exp(-x / bins));
}

}  // namespace

// Wall-clock divisor for a scatter-gathered index probe: admitted shards run
// concurrently, so the probe overlaps up to gather_width ways — but never
// more ways than shards it actually probes. 1 on unpartitioned paths. Heap
// scans stay serial (one simulated device) and are never divided. On flash
// the device's internal queue depth additionally caps the overlap: an
// 8-channel SSD services at most 8 probes concurrently no matter how wide
// the gather pool is. The spinning-disk branch is the pre-profile formula.
double QueryPlanner::GatherSpeedup(const PathStats& s,
                                   double shards_probed) const {
  double ways =
      std::max(1.0, std::min(s.gather_width, std::max(shards_probed, 1.0)));
  if (profile_.kind != sim::DeviceKind::kSpinningDisk) {
    ways = std::min(ways, static_cast<double>(profile_.queue_depth));
  }
  return ways;
}

double QueryPlanner::LookupMs(const PathStats& s) const {
  uint32_t h = s.table.btree_height > 0 ? s.table.btree_height : 1;
  return (s.charges_open_per_query ? params_.init_ms : 0.0) + params_.seek_ms +
         (h - 1) * params_.min_seek_ms;
}

double QueryPlanner::ScanMs(const PathStats& s) const {
  // A fractured sweep opens and seeks into every fracture's heap file; a
  // single-file path pays one seek (and its Costinit only when the path
  // charges opens per query).
  double n = s.table.num_fractures > 0 ? s.table.num_fractures : 1.0;
  return n * ((s.charges_open_per_query ? params_.init_ms : 0.0) +
              params_.seek_ms) +
         params_.ScanMs(s.table.table_bytes);
}

double QueryPlanner::PrunedScanMs(const PathStats& s,
                                  const core::PruneEstimate& pe) const {
  // A value-filtered sweep prunes like every other fan-out: fractures whose
  // summary rules the value out are never opened and never transfer.
  double n = pe.probed_fractures > 0 ? pe.probed_fractures : 1.0;
  return n * ((s.charges_open_per_query ? params_.init_ms : 0.0) +
              params_.seek_ms) +
         params_.ScanMs(pe.probed_bytes);
}

double QueryPlanner::SortedSweepMs(const PathStats& s, double x,
                                   double regions) const {
  if (x <= 0) return 0.0;
  // At least one region, at most one per target; below one expected target
  // (x < 1) the second bound wins, and r is x.
  double r = std::min(std::max(regions, 1.0), x);
  double page_size = s.table.page_size > 0 ? s.table.page_size : 8192.0;
  // One short seek per region (sorted order: gap = table/r), then the
  // region-local pages, which targets share, transfer near-sequentially.
  uint64_t gap = static_cast<uint64_t>(
      static_cast<double>(s.table.table_bytes) / r);
  double per_seek = params_.SeekMs(gap, s.seek_span_bytes);
  double pages = r + x * s.avg_entry_bytes() / page_size;
  double cost =
      r * per_seek + params_.ReadMs(static_cast<uint64_t>(pages * page_size));
  // A saturated sweep degenerates to (nearly) a full table scan.
  return std::min(cost, ScanMs(s));
}

double QueryPlanner::PrimaryProbeMs(const PathStats& s,
                                    const core::PruneEstimate& pe,
                                    std::string_view value, double qt,
                                    std::string* note) const {
  histogram::PtqEstimate est = path_->EstimatePtq(value, qt);
  char buf[96];
  if (s.clustered) {
    // One lookup + clustered region read per *probed* fracture (the
    // summaries replace Nfrac with the expected fan-out); when QT < C the
    // cutoff index adds a second lookup plus a sweep over the pointers'
    // (scattered) home regions.
    double nfrac = pe.probed_fractures > 0 ? pe.probed_fractures : 1.0;
    double cost = nfrac * LookupMs(s) +
                  est.selectivity * params_.ScanMs(s.table.table_bytes);
    if (qt < s.cutoff) {
      double regions =
          ExpectedDistinct(est.cutoff_pointers, s.distinct_primary_values);
      cost += nfrac * LookupMs(s) +
              SortedSweepMs(s, est.cutoff_pointers, regions);
    }
    std::snprintf(buf, sizeof(buf), "sel=%.4f cutoff-ptrs=%.0f probe=%.0f/%u",
                  est.selectivity, est.cutoff_pointers, nfrac,
                  pe.total_fractures);
    if (note != nullptr) *note = buf;
    return cost;
  }
  // PII probe: inverted-list lookup, then a bitmap-style sorted sweep of one
  // random heap page per match (RIDs scatter across the whole heap).
  double matches = est.heap_entries;
  double pages = ExpectedDistinct(
      matches, static_cast<double>(s.table.num_leaf_pages));
  std::snprintf(buf, sizeof(buf), "matches=%.0f", matches);
  if (note != nullptr) *note = buf;
  return 2.0 * LookupMs(s) + SortedSweepMs(s, matches, pages);
}

Plan QueryPlanner::Choose(std::vector<PlanCandidate> candidates) const {
  if (plans_total_ != nullptr) plans_total_->Add();
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const PlanCandidate& a, const PlanCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     return a.predicted_ms < b.predicted_ms;
                   });
  Plan plan;
  plan.table = path_->name();
  plan.kind = candidates.front().kind;
  plan.predicted_ms = candidates.front().predicted_ms;
  plan.shared_candidates =
      std::make_shared<const std::vector<PlanCandidate>>(std::move(candidates));
  return plan;
}

Plan QueryPlanner::PlanPtq(std::string_view value, double qt) const {
  PathStats s = path_->Stats();
  core::PruneEstimate pe = path_->EstimatePrune(-1, value, qt);
  std::vector<PlanCandidate> cands;

  PlanCandidate probe{PlanKind::kPrimaryProbe};
  probe.predicted_ms = PrimaryProbeMs(s, pe, value, qt, &probe.note) /
                       GatherSpeedup(s, pe.probed_shards);
  cands.push_back(std::move(probe));

  PlanCandidate scan{PlanKind::kHeapScan};
  scan.predicted_ms = PrunedScanMs(s, pe);
  cands.push_back(std::move(scan));

  Plan plan = Choose(std::move(cands));
  plan.value = std::string(value);
  plan.qt = qt;
  plan.fractures_probed = pe.probed_fractures;
  plan.fractures_total = pe.total_fractures;
  plan.shards_probed = pe.probed_shards;
  plan.shards_total = pe.total_shards;
  return plan;
}

Plan QueryPlanner::PlanSecondary(int column, std::string_view value,
                                 double qt) const {
  PathStats s = path_->Stats();
  bool has_secondary = path_->HasSecondary(column);
  double n = path_->EstimateSecondaryMatches(column, value, qt);
  core::PruneEstimate pe = path_->EstimatePrune(column, value, qt);
  double gather = GatherSpeedup(s, pe.probed_shards);
  double nfrac = pe.probed_fractures > 0 ? pe.probed_fractures : 1.0;
  double lookups = 2.0 * nfrac * LookupMs(s);
  char buf[96];
  std::vector<PlanCandidate> cands;

  PlanCandidate first{PlanKind::kSecondaryFirstPointer};
  first.feasible = has_secondary;
  // Always-first-pointer lands each match in its first alternative's home
  // region, scattered across the value space.
  double regions_first = ExpectedDistinct(n, s.distinct_primary_values);
  first.predicted_ms = (lookups + SortedSweepMs(s, n, regions_first)) / gather;
  std::snprintf(buf, sizeof(buf), "ptrs=%.0f regions=%.0f", n, regions_first);
  first.note = buf;
  cands.push_back(std::move(first));

  if (s.clustered) {
    PlanCandidate tailored{PlanKind::kSecondaryTailored};
    tailored.feasible = has_secondary;
    // Algorithm 3 routes multi-pointer entries into regions already being
    // read, shrinking the visited-region count by the pointer fan-out.
    double pbar = std::max(1.0, path_->SecondaryAvgPointers(column));
    double regions_tailored = std::max(1.0, regions_first / pbar);
    tailored.predicted_ms =
        (lookups + SortedSweepMs(s, n, regions_tailored)) / gather;
    std::snprintf(buf, sizeof(buf), "ptrs=%.0f avg-ptrs=%.2f regions=%.0f", n,
                  pbar, regions_tailored);
    tailored.note = buf;
    cands.push_back(std::move(tailored));
  }

  PlanCandidate scan{PlanKind::kHeapScan};
  // The scan-filter fallback prunes on the same (column, value, qt).
  scan.predicted_ms = PrunedScanMs(s, pe);
  cands.push_back(std::move(scan));

  Plan plan = Choose(std::move(cands));
  plan.column = column;
  plan.value = std::string(value);
  plan.qt = qt;
  plan.fractures_probed = pe.probed_fractures;
  plan.fractures_total = pe.total_fractures;
  plan.shards_probed = pe.probed_shards;
  plan.shards_total = pe.total_shards;
  return plan;
}

Plan QueryPlanner::PlanQuery(const Query& q) const {
  Plan plan;
  switch (q.kind) {
    case Query::Kind::kPtq:
      plan = PlanPtq(q.value, q.qt);
      break;
    case Query::Kind::kSecondary:
      plan = PlanSecondary(q.column, q.value, q.qt);
      break;
    case Query::Kind::kTopK:
      plan = PlanTopK(q.value, q.k);
      break;
    case Query::Kind::kScanFilter: {
      // Declaratively forced sweep: a one-candidate plan (still explainable).
      PathStats s = path_->Stats();
      core::PruneEstimate pe = path_->EstimatePrune(q.column, q.value, q.qt);
      PlanCandidate scan{PlanKind::kHeapScan};
      scan.predicted_ms = PrunedScanMs(s, pe);
      plan = Choose({std::move(scan)});
      plan.column = q.column;
      plan.value = q.value;
      plan.qt = q.qt;
      plan.fractures_probed = pe.probed_fractures;
      plan.fractures_total = pe.total_fractures;
      plan.shards_probed = pe.probed_shards;
      plan.shards_total = pe.total_shards;
      break;
    }
  }
  plan.limit = q.limit;
  return plan;
}

Plan QueryPlanner::PlanTopK(std::string_view value, size_t k) const {
  PathStats s = path_->Stats();
  double est_qt = path_->EstimateTopKThreshold(value, k);
  // Presence pruning only (qt = 0): the runtime bound-based skip comes on
  // top, so this is the conservative fan-out a direct top-k pays at most.
  core::PruneEstimate pe = path_->EstimatePrune(-1, value, 0.0);
  double gather = GatherSpeedup(s, pe.probed_shards);
  std::vector<PlanCandidate> cands;
  char buf[96];

  PlanCandidate direct{PlanKind::kTopKDirect};
  direct.feasible = s.supports_direct_topk;
  // Per probed fracture: one descent, then k entries off the
  // probability-ordered cursor (a single-fracture path keeps its classic
  // one-lookup price).
  double probes = pe.probed_fractures > 0 ? pe.probed_fractures : 1.0;
  direct.predicted_ms =
      probes *
      (LookupMs(s) + params_.ReadMs(static_cast<uint64_t>(
                         static_cast<double>(k) * s.avg_entry_bytes()))) /
      gather;
  std::snprintf(buf, sizeof(buf), "probe=%.0f/%u", probes, pe.total_fractures);
  direct.note = buf;
  cands.push_back(std::move(direct));

  PlanCandidate estimated{PlanKind::kTopKEstimatedThreshold};
  // One PTQ at the histogram-estimated k-th threshold; the 1.25 margin prices
  // the occasional halving retry when the estimate lands too high.
  estimated.predicted_ms =
      1.25 * PrimaryProbeMs(s, path_->EstimatePrune(-1, value, est_qt), value,
                            est_qt, nullptr) /
      gather;
  std::snprintf(buf, sizeof(buf), "est-qt=%.2f", est_qt);
  estimated.note = buf;
  cands.push_back(std::move(estimated));

  PlanCandidate decreasing{PlanKind::kTopKDecreasingThreshold};
  // Geometric descent from 0.5 until the histogram expects >= k answers.
  double cost = 0.0;
  double qt = 0.5;
  int rounds = 0;
  for (;;) {
    cost += PrimaryProbeMs(s, path_->EstimatePrune(-1, value, qt), value, qt,
                           nullptr);
    ++rounds;
    histogram::PtqEstimate e = path_->EstimatePtq(value, qt);
    if (e.heap_entries + e.cutoff_pointers >= static_cast<double>(k) ||
        qt <= 1e-6 || rounds >= 10) {
      break;
    }
    qt /= 4.0;
  }
  decreasing.predicted_ms = cost / gather;
  std::snprintf(buf, sizeof(buf), "rounds=%d", rounds);
  decreasing.note = buf;
  cands.push_back(std::move(decreasing));

  Plan plan = Choose(std::move(cands));
  plan.value = std::string(value);
  plan.k = k;
  plan.fractures_probed = pe.probed_fractures;
  plan.fractures_total = pe.total_fractures;
  plan.shards_probed = pe.probed_shards;
  plan.shards_total = pe.total_shards;
  // Each strategy starts where its cost model assumed it starts: the
  // estimated-threshold strategy at the histogram's k-th probability, the
  // decreasing-threshold strategy at its fixed 0.5.
  plan.initial_qt = plan.kind == PlanKind::kTopKDecreasingThreshold
                        ? 0.5
                        : (est_qt > 0 ? est_qt : 0.25);
  return plan;
}

}  // namespace upi::engine
