#include "prob/discrete.h"

#include <algorithm>
#include <unordered_set>

#include "common/coding.h"

namespace upi::prob {

Result<DiscreteDistribution> DiscreteDistribution::Make(
    std::vector<Alternative> alts) {
  double sum = 0.0;
  std::unordered_set<std::string_view> seen;
  for (const auto& a : alts) {
    if (a.prob <= 0.0 || a.prob > 1.0) {
      return Status::InvalidArgument("alternative probability outside (0,1]: " +
                                     std::to_string(a.prob));
    }
    if (!seen.insert(a.value).second) {
      return Status::InvalidArgument("duplicate alternative value: " + a.value);
    }
    sum += a.prob;
  }
  if (sum > 1.0 + 1e-9) {
    return Status::InvalidArgument("alternative probabilities sum to " +
                                   std::to_string(sum) + " > 1");
  }
  // Quantize to the key-encoding grid so disk round-trips are exact (see
  // QuantizeProb).
  for (auto& a : alts) a.prob = QuantizeProb(a.prob);
  std::sort(alts.begin(), alts.end(), [](const Alternative& a, const Alternative& b) {
    if (a.prob != b.prob) return a.prob > b.prob;
    return a.value < b.value;
  });
  return DiscreteDistribution(std::move(alts));
}

double DiscreteDistribution::ProbabilityOf(std::string_view value) const {
  for (const auto& a : alts_) {
    if (a.value == value) return a.prob;
  }
  return 0.0;
}

double DiscreteDistribution::TotalMass() const {
  double sum = 0.0;
  for (const auto& a : alts_) sum += a.prob;
  return sum;
}

void DiscreteDistribution::Serialize(std::string* out) const {
  PutVarint32(out, static_cast<uint32_t>(alts_.size()));
  for (const auto& a : alts_) {
    PutVarint32(out, static_cast<uint32_t>(a.value.size()));
    out->append(a.value);
    AppendProbDesc(out, a.prob);
  }
}

Status DiscreteDistribution::Deserialize(const char** p, const char* limit,
                                         DiscreteDistribution* out) {
  uint32_t n;
  size_t consumed = GetVarint32(*p, limit, &n);
  if (consumed == 0) return Status::Corruption("bad discrete dist count");
  *p += consumed;
  std::vector<Alternative> alts;
  // Each alternative takes at least 5 bytes, so a corrupt count cannot
  // reserve past the input.
  if (out != nullptr) {
    alts.reserve(std::min<size_t>(n, static_cast<size_t>(limit - *p) / 5));
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t len;
    consumed = GetVarint32(*p, limit, &len);
    if (consumed == 0 ||
        static_cast<size_t>(limit - *p) - consumed < size_t{len} + 4) {
      return Status::Corruption("bad discrete dist alternative");
    }
    *p += consumed;
    if (out != nullptr) {
      alts.push_back(Alternative{std::string(*p, len), DecodeProbDesc(*p + len)});
    }
    *p += len + 4;
  }
  if (out != nullptr) out->alts_ = std::move(alts);
  return Status::OK();
}

}  // namespace upi::prob
