// The UPI composite key (Section 2): the heap B+Tree is "indexed by
// {Institution (ASC) and probability (DESC)}", with the TupleID appended to
// make keys unique. Probabilities stored in keys are *combined* confidences
// (existence * alternative probability), matching Table 2 where Alice's
// Brown entry carries 80% * 90% = 72%.
#pragma once

#include <string>
#include <string_view>

#include "catalog/tuple.h"
#include "common/coding.h"
#include "common/status.h"

namespace upi::core {

struct UpiKey {
  std::string attr;         // attribute value
  double prob = 0.0;        // combined confidence, sorts descending
  catalog::TupleId id = 0;  // tie-breaker / identity

  bool operator==(const UpiKey& o) const {
    return attr == o.attr && prob == o.prob && id == o.id;
  }
};

/// Appends the encoded key of (attr, prob, id) to `dst`: bulk builds stage
/// their keys back to back in one buffer.
inline void AppendUpiKey(std::string* dst, std::string_view attr, double prob,
                         catalog::TupleId id) {
  AppendOrderedString(dst, attr);
  AppendProbDesc(dst, prob);
  PutFixed64BE(dst, id);
}

inline std::string EncodeUpiKey(std::string_view attr, double prob,
                                catalog::TupleId id) {
  std::string key;
  AppendUpiKey(&key, attr, prob, id);
  return key;
}

/// Prefix covering every entry with the given attribute value; a cursor
/// seeked here lands on the value's highest-probability entry.
inline std::string UpiKeyPrefix(std::string_view attr) {
  std::string key;
  AppendOrderedString(&key, attr);
  return key;
}

/// A decoded key whose attribute is a view, not a copy: merge streams decode
/// every key they pass on.
struct UpiKeyView {
  std::string_view attr;
  double prob = 0.0;
  catalog::TupleId id = 0;
};

/// Decodes `key` into `out`. An attribute without a NUL byte is stored
/// verbatim, so `out->attr` points into `key`; one with a NUL byte (escaped in
/// the encoding) is decoded into `*scratch`, and `out->attr` points there.
inline Status DecodeUpiKeyView(std::string_view key, std::string* scratch,
                               UpiKeyView* out) {
  // attr bytes, the 0x00 0x00 terminator, 4 probability and 8 id bytes.
  constexpr size_t kTail = 2 + 12;
  if (key.size() >= kTail) {
    const size_t attr_size = key.size() - kTail;
    if (key[attr_size] == '\0' && key[attr_size + 1] == '\0' &&
        key.substr(0, attr_size).find('\0') == std::string_view::npos) {
      out->attr = key.substr(0, attr_size);
      out->prob = DecodeProbDesc(key.data() + attr_size + 2);
      out->id = GetFixed64BE(key.data() + attr_size + 6);
      return Status::OK();
    }
  }
  const char* p = key.data();
  const char* limit = key.data() + key.size();
  scratch->clear();
  UPI_RETURN_NOT_OK(DecodeOrderedString(&p, limit, scratch));
  if (p + 12 > limit) return Status::Corruption("truncated UPI key");
  out->attr = *scratch;
  out->prob = DecodeProbDesc(p);
  out->id = GetFixed64BE(p + 4);
  return Status::OK();
}

inline Status DecodeUpiKey(std::string_view key, UpiKey* out) {
  UpiKeyView view;
  UPI_RETURN_NOT_OK(DecodeUpiKeyView(key, &out->attr, &view));
  // An escaped attribute was decoded into out->attr already.
  if (view.attr.data() != out->attr.data()) out->attr.assign(view.attr);
  out->prob = view.prob;
  out->id = view.id;
  return Status::OK();
}

}  // namespace upi::core
