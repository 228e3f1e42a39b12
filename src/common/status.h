// Status / Result error-handling primitives, following the Arrow / RocksDB
// idiom used throughout this codebase: no exceptions cross module boundaries;
// fallible functions return Status or Result<T>.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace upi {

enum class StatusCode : uint8_t {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kIOError,
  kCorruption,
  kNotSupported,
  kInternal,
};

/// \brief Outcome of a fallible operation.
///
/// A Status is either OK (the default) or carries a code plus a
/// human-readable message. Cheap to copy in the OK case.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "not found") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg = "already exists") {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

const char* StatusCodeName(StatusCode code);

/// \brief Either a value of type T or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {}                 // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return std::move(*value_); }

  /// Returns the value, aborting the process if the Result holds an error.
  /// Intended for tests and examples, not library code.
  T ValueOrDie() &&;

 private:
  Status status_;
  std::optional<T> value_;
};

[[noreturn]] void AbortOnBadResult(const Status& st);

template <typename T>
T Result<T>::ValueOrDie() && {
  if (!ok()) AbortOnBadResult(status_);
  return std::move(*value_);
}

#define UPI_RETURN_NOT_OK(expr)                   \
  do {                                            \
    ::upi::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                    \
  } while (false)

#define UPI_CONCAT_IMPL(a, b) a##b
#define UPI_CONCAT(a, b) UPI_CONCAT_IMPL(a, b)

#define UPI_ASSIGN_OR_RETURN(lhs, expr)                        \
  auto UPI_CONCAT(_res_, __LINE__) = (expr);                   \
  if (!UPI_CONCAT(_res_, __LINE__).ok())                       \
    return UPI_CONCAT(_res_, __LINE__).status();               \
  lhs = std::move(UPI_CONCAT(_res_, __LINE__)).value()

}  // namespace upi
