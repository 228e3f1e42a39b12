// The one read contract, from the designs up to the engine's Session.
//
// Every read of a physical design answers through a ResultCursor: the
// clustered UPI (core/upi.h), the Fractured UPI (core/fractured_upi.h) and
// the unclustered baseline (baseline/unclustered_table.h) return one from
// each of their Open* probes, as AccessPaths (core/access_path.h), and
// exec::OpenCursor caps and filters it. The paper's PTQ is one index seek
// and a sequential scan a top-k consumer may stop early (Algorithm 2,
// Section 3.1); a cursor is exactly that shape.
//
// A cursor is either streaming — it reads storage as rows are pulled, so a
// consumer that stops early never pays for the rest — or eager: every row was
// computed, and its I/O charged, at open (MaterializedCursor).
//
// A row is its id, its confidence and its tuple's serialized bytes, copied
// from where the read found them (a heap leaf, a heap-file record) and
// decoded only when a consumer asks: one column, or the whole tuple. The
// copy is checked by a validation walk as the row is produced, so a
// malformed tuple fails the cursor with Corruption, and a later decode of a
// row cannot fail. Only the Fractured UPI's RAM insert buffer holds decoded
// tuples; it serializes the rows a read returns.
#pragma once

#include <functional>
#include <vector>

#include "catalog/tuple.h"
#include "common/status.h"

namespace upi::core {

/// A borrowed view of one row: the cursor's current row (valid until the
/// next Next()/TakeNext() call or cursor destruction), or a PtqMatch's.
struct RowView {
  catalog::TupleId id = 0;
  double confidence = 0.0;
  catalog::TupleView tuple;
};

/// One result row: its id, its confidence and its tuple, kept encoded —
/// `tuple.Column(i)` decodes one column, `tuple.Decode()` the whole tuple,
/// and most consumers read neither. The row owns its bytes, so it outlives
/// the cursor, the page and the table version it was read from.
struct PtqMatch {
  catalog::TupleId id = 0;
  double confidence = 0.0;
  catalog::EncodedTuple tuple;

  RowView view() const { return {id, confidence, tuple.view()}; }
};

/// A residual filter on a row. It sees the row, not a decoded tuple, so a
/// test of the id or the confidence decodes nothing.
using RowPredicate = std::function<bool(const RowView&)>;

/// Sorts matches into the order every eager read delivers: descending
/// confidence, ties by TupleId.
void SortByConfidenceDesc(std::vector<PtqMatch>* matches);

/// Pull-based result stream. Subclasses implement Produce; the base class
/// enforces the row limit and the residual predicate so every producer stays
/// simple.
///
/// Streaming cursors read live index pages: drain them before writing to
/// the table (see engine::Table::OpenCursor for the full lifetime contract).
class ResultCursor {
 public:
  virtual ~ResultCursor() = default;

  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;

  /// Views the next row; false at end of stream or error (check status()).
  bool Next(RowView* row);

  /// Moves the next row out (avoids a byte copy when the caller keeps it).
  bool TakeNext(PtqMatch* match);

  /// Moves every remaining row onto the end of `out`; returns status().
  Status Drain(std::vector<PtqMatch>* out);

  /// True when every row was computed at open: pulling reads nothing more,
  /// so a predicate cannot make the producer fetch rows past its bound.
  virtual bool eager() const { return false; }

  const Status& status() const { return status_; }
  /// Rows handed to the consumer so far.
  size_t rows_returned() const { return rows_; }

  /// Caps the rows this cursor returns (0 = unlimited). Set before pulling.
  void SetLimit(size_t limit) { limit_ = limit; }

  /// Residual filter; rows failing it are skipped (and not counted against
  /// the limit).
  void SetPredicate(RowPredicate pred) { predicate_ = std::move(pred); }

 protected:
  ResultCursor() = default;

  /// Produces the next raw row, pre-limit/predicate. False = end or error
  /// (set status_ before returning false on error). A producer fills the
  /// row's tuple from bytes it already holds through
  /// catalog::EncodedTuple::Assign, whose validation walk fails the cursor
  /// with Corruption on a malformed tuple here, when the row is produced.
  virtual bool Produce(PtqMatch* out) = 0;

  Status status_;

 private:
  bool Advance();

  size_t limit_ = 0;  // 0 = unlimited
  RowPredicate predicate_;
  PtqMatch slot_;
  size_t rows_ = 0;
};

/// Eager cursor over a result set computed at open, served in descending
/// confidence (ties by TupleId). A non-OK `status` — the computation failed
/// after charging its I/O — makes it produce nothing.
class MaterializedCursor : public ResultCursor {
 public:
  explicit MaterializedCursor(std::vector<PtqMatch> rows,
                              Status status = Status::OK());

  bool eager() const override { return true; }

 private:
  bool Produce(PtqMatch* out) override;

  std::vector<PtqMatch> rows_;
  size_t idx_ = 0;
};

}  // namespace upi::core
