#ifndef T3_COMMON_STATUS_H_
#define T3_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace t3 {

/// Error category of a Status. Library code never throws; fallible
/// operations return Status (or Result<T> when they produce a value).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kUnavailable = 3,
  kFailedPrecondition = 4,
  kInternal = 5,
};

const char* StatusCodeName(StatusCode code);

/// Success-or-error of an operation that produces no value.
class Status {
 public:
  /// Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
inline Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
inline Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

/// Either a value of type T or a non-OK Status explaining why there is none.
///
///   Result<T3Model> model = T3Model::LoadFromFile(path);
///   if (!model.ok()) return model.status();
///   Use(*model);
template <typename T>
class Result {
 public:
  // Implicit conversions from both sides keep call sites terse, mirroring
  // absl::StatusOr.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    T3_CHECK(!status_.ok());  // An OK status must carry a value.
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(value()); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T& value() & {
    T3_CHECK(ok());
    return *value_;
  }
  const T& value() const& {
    T3_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    T3_CHECK(ok());
    return *std::move(value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace t3

#endif  // T3_COMMON_STATUS_H_
