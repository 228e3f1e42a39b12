// Discrete uncertain attribute values: a set of (value, probability)
// alternatives, as in the paper's running example (Table 1: Alice works for
// Brown with 80%, MIT with 20%). Alternatives are kept sorted by descending
// probability — the order the UPI, the cutoff index (Algorithm 1), and PII
// all rely on.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace upi::prob {

struct Alternative {
  std::string value;
  double prob = 0.0;

  bool operator==(const Alternative& o) const {
    return value == o.value && prob == o.prob;
  }
};

class DiscreteDistribution {
 public:
  DiscreteDistribution() = default;

  /// Validates (each p in (0,1], sum <= 1 + eps, distinct values) and sorts
  /// alternatives by descending probability (ties broken by value).
  static Result<DiscreteDistribution> Make(std::vector<Alternative> alts);

  const std::vector<Alternative>& alternatives() const { return alts_; }
  size_t size() const { return alts_.size(); }
  bool empty() const { return alts_.empty(); }

  /// The highest-probability alternative. Precondition: !empty().
  const Alternative& First() const { return alts_.front(); }

  /// Probability of a specific value (0 if absent).
  double ProbabilityOf(std::string_view value) const;

  /// Sum of all alternative probabilities (<= 1; the rest is "no value").
  double TotalMass() const;

  void Serialize(std::string* out) const;
  /// Decodes one serialized distribution at *p and advances past it. With
  /// `out` null it only walks past it: the same checks, no allocation.
  static Status Deserialize(const char** p, const char* limit,
                            DiscreteDistribution* out);

  bool operator==(const DiscreteDistribution& o) const { return alts_ == o.alts_; }

 private:
  explicit DiscreteDistribution(std::vector<Alternative> alts)
      : alts_(std::move(alts)) {}

  std::vector<Alternative> alts_;  // sorted by prob desc
};

}  // namespace upi::prob
