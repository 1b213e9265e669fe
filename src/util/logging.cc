#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/mutex.h"

namespace wikimatch {
namespace util {

namespace {
std::atomic<int> g_min_level{static_cast<int>(LogLevel::kWarning)};

// Serializes stderr emission: log statements run concurrently inside
// thread_pool_for workers (e.g. the pipeline's per-type alignment), and
// unsynchronized fputs calls interleave or tear lines. Each statement is
// formatted into its own buffer first, so the lock is held only for the
// single write.
Mutex& EmitMutex() {
  static Mutex mutex;
  return mutex;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >=
               g_min_level.load(std::memory_order_relaxed)),
      level_(level) {
  if (enabled_) {
    stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    stream_ << "\n";
    const std::string line = stream_.str();
    MutexLock lock(EmitMutex());
    std::fwrite(line.data(), 1, line.size(), stderr);
  }
}

void CheckFailed(const char* file, int line, const std::string& message) {
  std::fprintf(stderr, "[FATAL %s:%d] check failed: %s\n", Basename(file),
               line, message.c_str());
  std::abort();
}

}  // namespace util
}  // namespace wikimatch
