// An uncertain tuple: TupleID, existence probability (the paper's Existence
// column), and typed values. Tuples serialize to a flat byte string that the
// UPI heap duplicates once per alternative of the clustered attribute.
//
// Reads keep that byte string: a result row's tuple is an EncodedTuple, and a
// scan hands each stored tuple over as a TupleView of its bytes. Both read
// the header (id, existence) in place and decode on access — the whole tuple,
// or one column, walking past the other values without allocating. Nothing
// caches a decoded copy: each access decodes again.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"

namespace upi::catalog {

using TupleId = uint64_t;

class Tuple {
 public:
  Tuple() = default;
  /// `existence` is quantized to the key-encoding grid (see QuantizeProb) so
  /// confidences derived from it survive disk round-trips exactly.
  Tuple(TupleId id, double existence, std::vector<Value> values);

  TupleId id() const { return id_; }
  double existence() const { return existence_; }
  const std::vector<Value>& values() const { return values_; }
  const Value& Get(size_t i) const { return values_[i]; }

  /// Confidence that this tuple exists and its discrete column `col` takes
  /// `value`: existence * P(value) (Section 1).
  double ConfidenceOf(size_t col, std::string_view value) const;

  /// Layout: id (8 bytes, big-endian), existence (4, AppendProbDesc), the
  /// column count (varint32), then each Value::Serialize.
  void Serialize(std::string* out) const;
  static Result<Tuple> Deserialize(std::string_view buf);

  bool operator==(const Tuple& o) const {
    return id_ == o.id_ && existence_ == o.existence_ && values_ == o.values_;
  }

 private:
  TupleId id_ = 0;
  double existence_ = 1.0;
  std::vector<Value> values_;
};

/// A borrowed serialized tuple: exactly the bytes of Tuple::Serialize, read
/// in place. Valid while the bytes it views live.
class TupleView {
 public:
  TupleView() = default;
  explicit TupleView(std::string_view bytes) : bytes_(bytes) {}

  /// The validation walk every read runs on bytes it did not serialize
  /// itself, when it produces the row: OK exactly when Decode() and every
  /// Column() the tuple has would succeed, Corruption otherwise. It reads
  /// each value's extent and allocates nothing.
  static Status Validate(std::string_view bytes);

  std::string_view bytes() const { return bytes_; }
  /// The header, read in place (0 when the bytes hold no header).
  TupleId id() const;
  double existence() const;

  /// The whole tuple (Tuple::Deserialize).
  Result<Tuple> Decode() const;
  /// Column `col` alone. The walk covers every value, as Validate does, but
  /// builds only this one. Corruption for malformed bytes, InvalidArgument
  /// for a column the tuple does not have.
  Result<Value> Column(size_t col) const;

 private:
  std::string_view bytes_;
};

/// A result row's tuple: owns exactly the bytes of Tuple::Serialize and
/// decodes on access (see TupleView). A row that outlives its cursor — a
/// Table::Run result, a Session future's — keeps its tuple through this
/// copy, never through a view of a page or of the insert buffer.
class EncodedTuple {
 public:
  EncodedTuple() = default;
  /// Serializes `tuple`: the insert buffer's rows, the one source that holds
  /// decoded tuples rather than their bytes.
  explicit EncodedTuple(const Tuple& tuple);

  /// Validates `bytes` (TupleView::Validate) and copies them in, reusing
  /// this tuple's storage: how a read fills a row from bytes it holds. On
  /// failure the tuple is left as it was.
  Status Assign(std::string_view bytes);

  TupleView view() const { return TupleView(bytes_); }
  std::string_view bytes() const { return bytes_; }
  TupleId id() const { return view().id(); }
  double existence() const { return view().existence(); }
  Result<Tuple> Decode() const { return view().Decode(); }
  Result<Value> Column(size_t col) const { return view().Column(col); }

  bool operator==(const EncodedTuple& o) const { return bytes_ == o.bytes_; }

 private:
  std::string bytes_;
};

}  // namespace upi::catalog
