// Lightweight leveled logging with stream syntax:
//
//   WIKIMATCH_LOG(INFO) << "parsed " << n << " infoboxes";
//
// The minimum emitted level defaults to WARNING (quiet libraries) and can be
// changed globally, e.g. by benchmark drivers that want progress output.
//
// Thread-safe: each statement is formatted into its own buffer and emitted
// to stderr as one write under a process-wide mutex, so statements from
// concurrent workers (util::thread_pool_for) never interleave or tear.

#ifndef WIKIMATCH_UTIL_LOGGING_H_
#define WIKIMATCH_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace wikimatch {
namespace util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// \brief Sets the global minimum level that is actually written to stderr.
void SetLogLevel(LogLevel level);

/// \brief Current global minimum level.
LogLevel GetLogLevel();

/// \brief One log statement; writes its buffer to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace util
}  // namespace wikimatch

#define WIKIMATCH_LOG(severity)                                     \
  ::wikimatch::util::LogMessage(                                    \
      ::wikimatch::util::LogLevel::k##severity, __FILE__, __LINE__)

#endif  // WIKIMATCH_UTIL_LOGGING_H_
