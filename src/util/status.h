// Status: error-handling primitive in the Arrow/RocksDB idiom.
//
// Library code in this project does not throw exceptions across public API
// boundaries. Operations that can fail return a Status (or a Result<T>, see
// result.h) which callers must inspect.

#ifndef WIKIMATCH_UTIL_STATUS_H_
#define WIKIMATCH_UTIL_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace wikimatch {
namespace util {

/// \brief Machine-readable category of a Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kParseError = 5,
  kIoError = 6,
  kNotImplemented = 7,
  kInternal = 8,
  /// The service cannot take the request now (overloaded); retrying later
  /// may succeed.
  kUnavailable = 9,
};

/// \brief Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation: OK, or an error code plus message.
///
/// The OK state is represented without allocation; error states carry a
/// heap-allocated (code, message) record. Status is cheaply movable and
/// copyable.
///
/// The class is [[nodiscard]]: every function returning a Status by value
/// is a contract the caller must inspect, and ignoring one is a
/// compile-time error under -Werror=unused-result (set project-wide by
/// CMakeLists.txt). Intentional discards — rare, e.g. a best-effort
/// cleanup whose failure has no fallback — must be spelled
/// `(void)DoCleanup();` so they read as decisions, not accidents
/// (docs/ANALYSIS.md).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  Status(StatusCode code, std::string message)
      : rep_(code == StatusCode::kOk
                 ? nullptr
                 : std::make_shared<Rep>(Rep{code, std::move(message)})) {}

  /// \name Factory helpers, one per error category.
  /// @{
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
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
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// @}

  /// \brief True iff this status represents success.
  bool ok() const { return rep_ == nullptr; }

  /// \brief The status code; kOk for success.
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }

  /// \brief The error message; empty for OK.
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// \brief Returns a copy of this status with extra context prepended.
  Status WithContext(const std::string& context) const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<Rep> rep_;  // nullptr <=> OK
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace util
}  // namespace wikimatch

/// Propagates an error Status from the current function.
#define WIKIMATCH_RETURN_NOT_OK(expr)                  \
  do {                                                 \
    ::wikimatch::util::Status _st = (expr);            \
    if (!_st.ok()) return _st;                         \
  } while (false)

#endif  // WIKIMATCH_UTIL_STATUS_H_
