#include "common/status.h"

#include <cerrno>
#include <cstring>

namespace rfidcep {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out(StatusCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace rfidcep
