// Typed cell values, including the two uncertain types the paper indexes:
// discrete alternative distributions and constrained 2-D Gaussians.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"
#include "prob/discrete.h"
#include "prob/gaussian2d.h"

namespace upi::catalog {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kDiscrete = 4,    // uncertain discrete attribute (Institution^p)
  kGaussian2D = 5,  // uncertain continuous attribute (location^p)
};

const char* ValueTypeName(ValueType t);

class Value {
 public:
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int64(int64_t v);
  static Value Double(double v);
  static Value String(std::string v);
  static Value Discrete(prob::DiscreteDistribution d);
  static Value Gaussian(prob::ConstrainedGaussian2D g);

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t int64() const { return std::get<int64_t>(data_); }
  double dbl() const { return std::get<double>(data_); }
  const std::string& str() const { return std::get<std::string>(data_); }
  const prob::DiscreteDistribution& discrete() const {
    return std::get<prob::DiscreteDistribution>(data_);
  }
  const prob::ConstrainedGaussian2D& gaussian() const {
    return std::get<prob::ConstrainedGaussian2D>(data_);
  }

  void Serialize(std::string* out) const;
  /// Decodes one serialized value at *p and advances past it. With `out`
  /// null it only walks past it: the same checks, so the same Corruption,
  /// and no allocation.
  static Status Deserialize(const char** p, const char* limit, Value* out);

  bool operator==(const Value& o) const { return type_ == o.type_ && data_ == o.data_; }

 private:
  ValueType type_ = ValueType::kNull;
  std::variant<std::monostate, int64_t, double, std::string,
               prob::DiscreteDistribution, prob::ConstrainedGaussian2D>
      data_;
};

}  // namespace upi::catalog
