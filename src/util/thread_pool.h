// The process-wide concurrency substrate: one fixed set of worker threads
// that every parallel loop and background task in the system shares, so
// nested parallelism (the pipeline aligning type pairs in parallel while
// each pair's similarity join shards by row) cooperates on a single core
// budget instead of multiplying threads — spawning fresh std::threads per
// loop, as the pre-pool design did, lets a P-pair run at T threads put T²
// workers on the box.
//
// Shape (after the yocto-gl `concurrent` namespace): a lazily created
// global pool sized by DefaultThreads(), `thread_pool_for(n, fn)` for
// blocking parallel loops, `thread_pool_async(fn)` for one-shot background
// tasks with a waitable handle, plus injectable instances
// (ScopedThreadPoolOverride) so tests can pin the pool size or observe it.
//
// Scheduling model — cooperative work stealing at two granularities:
//
//   * A parallel loop (`For`) publishes a ForJob — an atomic index counter
//     over [0, n) — and the *calling thread immediately starts claiming
//     indexes itself*. Idle pool workers attach to any published job and
//     claim indexes from the same counter (that's the steal: work a caller
//     published is drained by whoever is free, index by index, so skewed
//     per-index costs balance automatically). Because the caller always
//     participates, a `For` issued from inside a pool task needs no free
//     worker to make progress: nesting can never deadlock, and inner loops
//     borrow whatever workers the outer level isn't using instead of
//     spawning new ones. Total live pool threads never exceeds the pool
//     size, at any nesting depth.
//
//   * An async task (`Async`) enters a FIFO queue that idle workers drain.
//     TaskHandle::Wait on a task that has not started yet *steals it* and
//     runs it on the waiting thread — waiting on a queued task behind a
//     saturated pool completes immediately instead of deadlocking.
//
// Determinism: `For(n, ...)` invokes fn(i) exactly once per index and
// blocks until every invocation finished; callers write results to
// pre-sized slots indexed by i, so output is
// byte-identical at any pool size and any thread count.
//
// Exceptions: the first exception thrown by any fn(i) (in completion
// order) is captured, remaining indexes stop being handed out, every
// participant drains, and the exception is rethrown on the calling thread
// — the same contract as a plain sequential loop. Async exceptions
// are captured into the handle (TaskHandle::error after Wait).

#ifndef WIKIMATCH_UTIL_THREAD_POOL_H_
#define WIKIMATCH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wikimatch {
namespace util {

/// \brief Worker count for a default-sized pool: the WIKIMATCH_THREADS
/// environment variable if set to a positive integer, else the cgroup
/// v1/v2 cpu quota ceiling when the process runs in a quota-limited
/// container, else hardware_concurrency() (4 if unknown). Re-reads its
/// sources on every call (it sits on no hot path) so tests can vary the
/// environment.
size_t DefaultThreads();

class ThreadPool;

/// \brief Waitable handle to a task submitted with ThreadPool::Async /
/// thread_pool_async. Copyable (shared state); default-constructed
/// handles are empty and Wait on them is a no-op.
class TaskHandle {
 public:
  TaskHandle() = default;

  /// \brief True when the handle refers to a submitted task.
  bool valid() const { return state_ != nullptr; }

  /// \brief Blocks until the task has run. If the task is still queued
  /// (no worker picked it up yet), it is stolen and run on *this* thread,
  /// so waiting behind a saturated pool cannot deadlock. Exceptions the
  /// task threw are captured, not rethrown — check error().
  void Wait();

  /// \brief After Wait: the exception the task threw, or nullptr.
  std::exception_ptr error() const;

 private:
  friend class ThreadPool;
  struct State;
  explicit TaskHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// \brief A fixed-size work-stealing worker pool. One global instance
/// (ThreadPool::Global) is the system-wide substrate; tests construct
/// their own and inject them with ScopedThreadPoolOverride.
class ThreadPool {
 public:
  /// \brief Starts `num_threads` workers (0 = DefaultThreads(); clamped
  /// to at least 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// \brief Joins the workers. Queued async tasks that no worker started
  /// are run on the destroying thread first, so every TaskHandle issued
  /// by this pool completes. Must not race an in-flight For().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Number of worker threads (fixed for the pool's lifetime).
  size_t size() const { return workers_.size(); }

  /// \brief Invokes `fn(i)` exactly once for every i in [0, n), using the
  /// calling thread plus up to `max_workers - 1` pool workers, and blocks
  /// until all invocations finished. `max_workers` is the cap on total
  /// concurrent participants — thread_pool_for's `threads` knob — so
  /// `max_workers <= 1` (or n == 1) runs inline with no pool traffic and
  /// no exception translation. `fn` must be safe to call concurrently for
  /// distinct indexes. First exception is rethrown on the calling thread
  /// after all participants drained; indexes not yet started when it was
  /// captured may never run. Reentrant: fn may itself call For/Async on
  /// the same pool.
  void For(size_t n, size_t max_workers, const std::function<void(size_t)>& fn);

  /// \brief Enqueues a one-shot task for any idle worker and returns a
  /// waitable handle. The task's captured state is released as soon as it
  /// finishes running (not when the last handle dies), so handing a
  /// container to Async is a way to deallocate it off-thread.
  TaskHandle Async(std::function<void()> fn);

  /// \brief The lazily created global pool (sized by SetDefaultPoolSize
  /// if that was called before first use, else DefaultThreads()), unless
  /// a ScopedThreadPoolOverride is active, in which case the override.
  static ThreadPool* Global();

  /// \brief Sizes the global pool created by the *first* Global() call;
  /// no effect once it exists (the CLI calls this right after flag
  /// parsing, before any parallel work).
  static void SetDefaultPoolSize(size_t num_threads);

 private:
  friend class TaskHandle;

  // One parallel loop in flight: an atomic claim counter over [0, n) plus
  // the bookkeeping the pool needs to know when every claimed index has
  // retired. Stack-allocated in For(); `attached` (guarded by the pool
  // mutex) keeps it alive — For() deregisters the job and then waits for
  // attached == 0 before returning, so no worker can hold a dangling
  // pointer.
  struct ForJob {
    ForJob(ThreadPool* p, size_t count, const std::function<void(size_t)>* f,
           size_t helpers)
        : pool(p), n(count), fn(f), max_helpers(helpers) {}

    ThreadPool* const pool;
    const size_t n;
    const std::function<void(size_t)>* const fn;
    const size_t max_helpers;  ///< cap on attached pool workers
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    size_t attached WIKIMATCH_GUARDED_BY(pool->mu_) = 0;
    Mutex error_mu;
    std::exception_ptr first_error WIKIMATCH_GUARDED_BY(error_mu);
  };

  void WorkerLoop();
  // Claims indexes from `job` until it is exhausted or failed; captures
  // the first exception into the job. Runs on callers and workers alike.
  static void RunForLoop(ForJob* job);
  static void RunAsyncTask(TaskHandle::State* task);
  // TaskHandle::Wait's steal path: if `state` is still queued, dequeues
  // and runs it on the calling thread. False if a worker already took it.
  bool StealQueuedTask(const std::shared_ptr<TaskHandle::State>& state);
  // Next job a worker should help with, or nullptr. Rotates across
  // published jobs so workers spread instead of piling onto the first.
  // `ForJob::attached` is declared guarded by job->pool->mu_, which is
  // always this->mu_ (jobs are only published to their own pool), but the
  // analysis cannot prove that alias — so this and the attach/detach
  // helpers require mu_ at the call site and opt their bodies out
  // (docs/ANALYSIS.md escape-hatch rule).
  ForJob* PickJob() WIKIMATCH_REQUIRES(mu_) WIKIMATCH_NO_THREAD_SAFETY_ANALYSIS;
  void AttachWorker(ForJob* job)
      WIKIMATCH_REQUIRES(mu_) WIKIMATCH_NO_THREAD_SAFETY_ANALYSIS;
  // True when this detach was the last — For()'s completion condition.
  bool DetachWorker(ForJob* job)
      WIKIMATCH_REQUIRES(mu_) WIKIMATCH_NO_THREAD_SAFETY_ANALYSIS;
  bool HasAttachedWorkers(const ForJob* job) const
      WIKIMATCH_REQUIRES(mu_) WIKIMATCH_NO_THREAD_SAFETY_ANALYSIS;

  Mutex mu_;
  CondVar work_cv_;  ///< workers: "a job or task may be available"
  CondVar done_cv_;  ///< For() callers: "a worker detached from a job"
  std::vector<ForJob*> jobs_ WIKIMATCH_GUARDED_BY(mu_);
  std::deque<std::shared_ptr<TaskHandle::State>> async_queue_
      WIKIMATCH_GUARDED_BY(mu_);
  size_t pick_cursor_ WIKIMATCH_GUARDED_BY(mu_) = 0;
  bool stop_ WIKIMATCH_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  ///< immutable after construction
};

/// \brief Replaces the pool Global() returns for the lifetime of this
/// object (tests: pin the pool size, count its threads, saturate it).
/// Not itself thread-safe — install before spawning work, from one
/// thread. Nests: restores the previous override on destruction.
class ScopedThreadPoolOverride {
 public:
  explicit ScopedThreadPoolOverride(ThreadPool* pool);
  ~ScopedThreadPoolOverride();

  ScopedThreadPoolOverride(const ScopedThreadPoolOverride&) = delete;
  ScopedThreadPoolOverride& operator=(const ScopedThreadPoolOverride&) =
      delete;

 private:
  ThreadPool* previous_;
};

/// \brief Parallel loop over [0, n) on the global pool, capped at
/// `threads` total participants (calling thread included). `threads <= 1`
/// or `n == 1` runs inline without instantiating the global pool, so
/// single-threaded configurations never pay for worker threads.
inline void thread_pool_for(size_t n, size_t threads,
                            const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::Global()->For(n, threads, fn);
}

/// \brief Parallel loop over [0, n) on the global pool, using every
/// worker plus the calling thread.
inline void thread_pool_for(size_t n, const std::function<void(size_t)>& fn) {
  ThreadPool* pool = ThreadPool::Global();
  pool->For(n, pool->size() + 1, fn);
}

/// \brief One-shot background task on the global pool.
inline TaskHandle thread_pool_async(std::function<void()> fn) {
  return ThreadPool::Global()->Async(std::move(fn));
}

}  // namespace util
}  // namespace wikimatch

#endif  // WIKIMATCH_UTIL_THREAD_POOL_H_
