#include "catalog/tuple.h"

#include <algorithm>

#include "common/coding.h"
#include "prob/confidence.h"

namespace upi::catalog {

namespace {

constexpr size_t kIdBytes = 8;
constexpr size_t kHeaderBytes = kIdBytes + 4;  // id, existence

/// Checks the header and reads the column count; *p ends on the first value.
Status ReadHeader(std::string_view buf, const char** p, uint32_t* columns) {
  if (buf.size() < kHeaderBytes) return Status::Corruption("truncated tuple header");
  *p = buf.data() + kHeaderBytes;
  size_t consumed = GetVarint32(*p, buf.data() + buf.size(), columns);
  if (consumed == 0) return Status::Corruption("bad tuple column count");
  *p += consumed;
  return Status::OK();
}

/// Walks every value of `buf`, decoding column `want` into *out when `out`
/// is non-null; allocates nothing else.
Status Walk(std::string_view buf, size_t want, Value* out) {
  const char* p;
  uint32_t n;
  UPI_RETURN_NOT_OK(ReadHeader(buf, &p, &n));
  const char* limit = buf.data() + buf.size();
  for (uint32_t i = 0; i < n; ++i) {
    UPI_RETURN_NOT_OK(Value::Deserialize(&p, limit, i == want ? out : nullptr));
  }
  if (out != nullptr && want >= n) {
    return Status::InvalidArgument("tuple has no column " + std::to_string(want));
  }
  return Status::OK();
}

}  // namespace

Tuple::Tuple(TupleId id, double existence, std::vector<Value> values)
    : id_(id), existence_(QuantizeProb(existence)), values_(std::move(values)) {}

double Tuple::ConfidenceOf(size_t col, std::string_view value) const {
  const Value& v = values_[col];
  if (v.type() != ValueType::kDiscrete) return 0.0;
  return prob::Confidence(existence_, v.discrete().ProbabilityOf(value));
}

void Tuple::Serialize(std::string* out) const {
  PutFixed64BE(out, id_);
  AppendProbDesc(out, existence_);
  PutVarint32(out, static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) v.Serialize(out);
}

Result<Tuple> Tuple::Deserialize(std::string_view buf) {
  const char* p;
  uint32_t n;
  UPI_RETURN_NOT_OK(ReadHeader(buf, &p, &n));
  const char* limit = buf.data() + buf.size();
  std::vector<Value> values;
  // Every value takes at least its type byte.
  values.reserve(std::min<size_t>(n, static_cast<size_t>(limit - p)));
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    UPI_RETURN_NOT_OK(Value::Deserialize(&p, limit, &v));
    values.push_back(std::move(v));
  }
  TupleView header(buf);
  return Tuple(header.id(), header.existence(), std::move(values));
}

Status TupleView::Validate(std::string_view bytes) {
  return Walk(bytes, 0, nullptr);
}

TupleId TupleView::id() const {
  return bytes_.size() >= kIdBytes ? GetFixed64BE(bytes_.data()) : 0;
}

double TupleView::existence() const {
  return bytes_.size() >= kHeaderBytes ? DecodeProbDesc(bytes_.data() + kIdBytes)
                                       : 0.0;
}

Result<Tuple> TupleView::Decode() const { return Tuple::Deserialize(bytes_); }

Result<Value> TupleView::Column(size_t col) const {
  Value v;
  UPI_RETURN_NOT_OK(Walk(bytes_, col, &v));
  return v;
}

EncodedTuple::EncodedTuple(const Tuple& tuple) {
  tuple.Serialize(&bytes_);
  bytes_.shrink_to_fit();  // a row keeps exactly its bytes
}

Status EncodedTuple::Assign(std::string_view bytes) {
  UPI_RETURN_NOT_OK(TupleView::Validate(bytes));
  bytes_.assign(bytes.data(), bytes.size());
  return Status::OK();
}

}  // namespace upi::catalog
