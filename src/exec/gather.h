// Scatter-gather merge primitives for horizontally partitioned execution.
//
// A partitioned table fans a query out to N independent shards (see
// engine/partition.h); what comes back is one sorted run per probed shard.
// This header holds the two pieces the gather side needs:
//
//  * GlobalTopKBound — a shared k-th-score bound for scatter-gather top-k.
//    Every shard stream offers its rows (each stream is descending in
//    confidence); once the global heap holds k scores, a row strictly below
//    the current k-th score proves the rest of that shard's stream cannot
//    contribute, so the lagging shard stops early. The bound only ever rises,
//    so a skipped row is strictly below the *final* k-th score too — results
//    are identical under any shard interleaving, with or without the bound.
//
//  * MergedRunsCursor — a ResultCursor k-way-merging the per-shard runs into
//    one globally ordered stream (descending confidence, ties by TupleId),
//    so partitioned PTQ streams look exactly like single-table ones to the
//    executor.
#pragma once

#include <mutex>
#include <queue>
#include <vector>

#include "engine/query.h"
#include "sync/sync.h"

namespace upi::exec {

/// Thread-safe running bound on the k-th best confidence seen so far across
/// all shards of one top-k gather.
class GlobalTopKBound {
 public:
  explicit GlobalTopKBound(size_t k) : k_(k) {}

  /// Records `confidence`. Returns false when the bound is saturated (k
  /// scores recorded) and `confidence` is *strictly* below the current k-th
  /// score — the offering shard's descending stream cannot contribute
  /// further and may stop. Ties are admitted (the final sort's TupleId
  /// tie-break decides them).
  bool Offer(double confidence) {
    std::lock_guard<sync::Mutex> lock(mu_);
    if (heap_.size() >= k_) {
      if (confidence < heap_.top()) return false;
      heap_.push(confidence);
      heap_.pop();
      return true;
    }
    heap_.push(confidence);
    return true;
  }

  /// Current k-th best score (0 until k scores were offered).
  double Kth() const {
    std::lock_guard<sync::Mutex> lock(mu_);
    return heap_.size() >= k_ && !heap_.empty() ? heap_.top() : 0.0;
  }

 private:
  mutable sync::Mutex mu_{sync::LockRank::kTopKBound};
  size_t k_;
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap_;
};

/// K-way merge over per-shard result runs, each sorted by descending
/// confidence (ties by ascending TupleId). Produces one stream in the same
/// global order. Eager: the runs were gathered before it opened.
class MergedRunsCursor : public engine::ResultCursor {
 public:
  /// A non-OK `status` (a failed shard probe) makes the cursor produce
  /// nothing and report the error via status().
  explicit MergedRunsCursor(std::vector<std::vector<core::PtqMatch>> runs,
                            Status status = Status::OK())
      : runs_(std::move(runs)), pos_(runs_.size(), 0) {
    status_ = std::move(status);
  }

  bool eager() const override { return true; }

 protected:
  bool Produce(core::PtqMatch* out) override;

 private:
  std::vector<std::vector<core::PtqMatch>> runs_;
  std::vector<size_t> pos_;
};

}  // namespace upi::exec
