#include "catalog/value.h"

#include "common/coding.h"

namespace upi::catalog {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt64: return "INT64";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "STRING";
    case ValueType::kDiscrete: return "DISCRETE^p";
    case ValueType::kGaussian2D: return "GAUSSIAN2D^p";
  }
  return "?";
}

Value Value::Int64(int64_t v) {
  Value x;
  x.type_ = ValueType::kInt64;
  x.data_ = v;
  return x;
}

Value Value::Double(double v) {
  Value x;
  x.type_ = ValueType::kDouble;
  x.data_ = v;
  return x;
}

Value Value::String(std::string v) {
  Value x;
  x.type_ = ValueType::kString;
  x.data_ = std::move(v);
  return x;
}

Value Value::Discrete(prob::DiscreteDistribution d) {
  Value x;
  x.type_ = ValueType::kDiscrete;
  x.data_ = std::move(d);
  return x;
}

Value Value::Gaussian(prob::ConstrainedGaussian2D g) {
  Value x;
  x.type_ = ValueType::kGaussian2D;
  x.data_ = std::move(g);
  return x;
}

void Value::Serialize(std::string* out) const {
  out->push_back(static_cast<char>(type_));
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutFixed64BE(out, static_cast<uint64_t>(int64()));
      break;
    case ValueType::kDouble:
      AppendOrderedDouble(out, dbl());
      break;
    case ValueType::kString:
      PutVarint32(out, static_cast<uint32_t>(str().size()));
      out->append(str());
      break;
    case ValueType::kDiscrete:
      discrete().Serialize(out);
      break;
    case ValueType::kGaussian2D:
      gaussian().Serialize(out);
      break;
  }
}

Status Value::Deserialize(const char** p, const char* limit, Value* out) {
  if (*p >= limit) return Status::Corruption("truncated value");
  auto type = static_cast<ValueType>(**p);
  ++*p;
  const auto left = [&] { return static_cast<size_t>(limit - *p); };
  switch (type) {
    case ValueType::kNull:
      if (out != nullptr) *out = Value::Null();
      return Status::OK();
    case ValueType::kInt64: {
      if (left() < 8) return Status::Corruption("truncated int64");
      if (out != nullptr) {
        *out = Value::Int64(static_cast<int64_t>(GetFixed64BE(*p)));
      }
      *p += 8;
      return Status::OK();
    }
    case ValueType::kDouble: {
      if (left() < 8) return Status::Corruption("truncated double");
      if (out != nullptr) *out = Value::Double(DecodeOrderedDouble(*p));
      *p += 8;
      return Status::OK();
    }
    case ValueType::kString: {
      uint32_t len;
      size_t n = GetVarint32(*p, limit, &len);
      if (n == 0 || left() - n < len) return Status::Corruption("truncated string");
      *p += n;
      if (out != nullptr) *out = Value::String(std::string(*p, len));
      *p += len;
      return Status::OK();
    }
    case ValueType::kDiscrete: {
      prob::DiscreteDistribution d;
      UPI_RETURN_NOT_OK(prob::DiscreteDistribution::Deserialize(
          p, limit, out != nullptr ? &d : nullptr));
      if (out != nullptr) *out = Value::Discrete(std::move(d));
      return Status::OK();
    }
    case ValueType::kGaussian2D: {
      prob::ConstrainedGaussian2D g;
      UPI_RETURN_NOT_OK(prob::ConstrainedGaussian2D::Deserialize(
          p, limit, out != nullptr ? &g : nullptr));
      if (out != nullptr) *out = Value::Gaussian(std::move(g));
      return Status::OK();
    }
  }
  return Status::Corruption("unknown value type tag");
}

}  // namespace upi::catalog
