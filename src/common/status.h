// Lightweight error handling for rfidcep (no exceptions, RocksDB-style).
//
// A Status is either OK or carries an error code plus a human-readable
// message. Result<T> couples a Status with a value of type T for functions
// that produce a value or fail.

#ifndef RFIDCEP_COMMON_STATUS_H_
#define RFIDCEP_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace rfidcep {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // Malformed input (bad EPC, bad duration literal, ...).
  kParseError,        // Rule-language or SQL syntax error.
  kNotFound,          // Missing table, rule, column, catalog entry.
  kAlreadyExists,     // Duplicate rule id, table name, index.
  kOutOfRange,        // Value outside representable range.
  kFailedPrecondition,// Operation invalid in current state (invalid rule, ...).
  kUnimplemented,     // Feature recognized but not supported.
  kInternal,          // Invariant violation inside the library.
};

// Returns a stable lowercase name for `code`, e.g. "invalid_argument".
std::string_view StatusCodeName(StatusCode code);

class Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "ok" or "<code_name>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// kInternal "<what>: <strerror(errno)>", for a failed system call.
Status Errno(const std::string& what);

// Result<T>: value-or-status. Access to value() requires ok().
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : status_(), value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagates a non-OK status out of the enclosing function.
#define RFIDCEP_RETURN_IF_ERROR(expr)                \
  do {                                               \
    ::rfidcep::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                       \
  } while (0)

// Evaluates a Result<T> expression; on error returns its status, otherwise
// moves the value into `lhs` (a declaration or assignable lvalue).
#define RFIDCEP_ASSIGN_OR_RETURN(lhs, rexpr)         \
  RFIDCEP_ASSIGN_OR_RETURN_IMPL_(                    \
      RFIDCEP_STATUS_CONCAT_(_res, __LINE__), lhs, rexpr)

#define RFIDCEP_STATUS_CONCAT_INNER_(a, b) a##b
#define RFIDCEP_STATUS_CONCAT_(a, b) RFIDCEP_STATUS_CONCAT_INNER_(a, b)
#define RFIDCEP_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                   \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value()

}  // namespace rfidcep

#endif  // RFIDCEP_COMMON_STATUS_H_
