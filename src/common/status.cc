#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace upi {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kIOError: return "IOError";
    case StatusCode::kCorruption: return "Corruption";
    case StatusCode::kNotSupported: return "NotSupported";
    case StatusCode::kInternal: return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = StatusCodeName(code_);
  if (!msg_.empty()) {
    s += ": ";
    s += msg_;
  }
  return s;
}

void AbortOnBadResult(const Status& st) {
  std::fprintf(stderr, "Result::ValueOrDie on error: %s\n", st.ToString().c_str());
  std::abort();
}

}  // namespace upi
