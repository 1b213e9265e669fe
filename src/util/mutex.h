// Annotated mutex wrappers: util::Mutex is std::mutex declared as a Clang
// thread-safety capability, util::MutexLock is the scoped acquirer, and
// util::CondVar is the matching condition variable. Using these (instead
// of raw std::mutex / std::lock_guard / std::condition_variable) is what
// lets a Clang build with -Werror=thread-safety prove lock discipline over
// every WIKIMATCH_GUARDED_BY field — see util/thread_annotations.h and
// docs/ANALYSIS.md. wikimatch-lint rejects raw std::mutex outside util/.
//
// The wrappers add no state and no virtual calls; under GCC the
// annotations vanish and the generated code is exactly a std::mutex, a
// std::lock_guard, and a std::condition_variable_any. Lock *order* is
// checked at runtime by ThreadSanitizer's own deadlock detector, which
// sees every pthread_mutex_lock underneath (docs/ANALYSIS.md).

#ifndef WIKIMATCH_UTIL_MUTEX_H_
#define WIKIMATCH_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace wikimatch {
namespace util {

/// \brief A std::mutex declared as a thread-safety capability.
///
/// The lowercase lock()/unlock() aliases make it a BasicLockable so
/// util::CondVar (condition_variable_any) can release and reacquire it
/// inside Wait; call sites should use the capitalized names (or better,
/// util::MutexLock) so intent stays greppable.
class WIKIMATCH_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() WIKIMATCH_ACQUIRE() { mu_.lock(); }
  void Unlock() WIKIMATCH_RELEASE() { mu_.unlock(); }

  // BasicLockable interface for std::condition_variable_any. Exempt from
  // the analysis: CondVar::Wait calls them through std:: code the
  // analysis cannot see, so annotating them would only produce false
  // positives at the Wait call site.
  void lock() WIKIMATCH_NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void unlock() WIKIMATCH_NO_THREAD_SAFETY_ANALYSIS { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// \brief Condition variable over util::Mutex. Wait must be called with
/// the mutex held (it is released while blocked and reacquired before
/// returning, like std::condition_variable::wait).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// \brief Blocks until notified (spurious wakeups possible — always
  /// re-check the predicate in a loop).
  void Wait(Mutex& mu) WIKIMATCH_REQUIRES(mu) { cv_.wait(mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

/// \brief RAII lock over a util::Mutex (the std::lock_guard shape).
class WIKIMATCH_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) WIKIMATCH_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~MutexLock() WIKIMATCH_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace util
}  // namespace wikimatch

#endif  // WIKIMATCH_UTIL_MUTEX_H_
