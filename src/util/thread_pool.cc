#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

namespace wikimatch {
namespace util {
namespace {

// Reads a single long from a one-value file; false on any failure.
bool ReadLongFile(const char* path, long* out) {
  std::ifstream f(path);
  long value = 0;
  if (!(f >> value)) return false;
  *out = value;
  return true;
}

// Worker-thread ceiling implied by the container's cpu quota, or 0 when
// the process is not quota-limited (or no cgroup files are readable).
// quota/period rounds up: a 2.5-cpu quota gets 3 workers.
size_t CgroupCpuQuotaThreads() {
  // cgroup v2: /sys/fs/cgroup/cpu.max holds "<quota|max> <period>".
  if (std::ifstream f("/sys/fs/cgroup/cpu.max"); f) {
    std::string quota_str;
    long period = 0;
    if ((f >> quota_str >> period) && quota_str != "max" && period > 0) {
      long quota = std::strtol(quota_str.c_str(), nullptr, 10);
      if (quota > 0) {
        return static_cast<size_t>((quota + period - 1) / period);
      }
    }
  }
  // cgroup v1: quota and period in separate files; quota -1 = unlimited.
  long quota = 0;
  long period = 0;
  if (ReadLongFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", &quota) &&
      ReadLongFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us", &period) &&
      quota > 0 && period > 0) {
    return static_cast<size_t>((quota + period - 1) / period);
  }
  return 0;
}

// The override installed by ScopedThreadPoolOverride, and the size hint
// consumed by the first Global() call. Atomics, not mutex-guarded: both
// are written from single-threaded setup code (test fixtures, CLI flag
// parsing) and only ever read afterwards.
std::atomic<ThreadPool*> g_pool_override{nullptr};
std::atomic<size_t> g_default_pool_size{0};

}  // namespace

size_t DefaultThreads() {
  if (const char* env = std::getenv("WIKIMATCH_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      return static_cast<size_t>(value);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  size_t threads = hw == 0 ? 4 : hw;
  size_t quota = CgroupCpuQuotaThreads();
  if (quota > 0 && quota < threads) threads = quota;
  return threads;
}

// ---------------------------------------------------------------- TaskHandle

struct TaskHandle::State {
  ThreadPool* pool = nullptr;  ///< for the Wait steal path
  // Owned by whoever dequeued the task (worker, stealing waiter, or the
  // pool destructor) — exactly one runner, handed off under the pool
  // mutex, so no guard is needed. Cleared as soon as the task ran so its
  // captures are released even while handles remain.
  std::function<void()> fn;
  Mutex mu;
  CondVar cv;
  bool done WIKIMATCH_GUARDED_BY(mu) = false;
  std::exception_ptr err WIKIMATCH_GUARDED_BY(mu);
};

void TaskHandle::Wait() {
  if (state_ == nullptr) return;
  {
    // Checking done first keeps Wait safe after the pool was destroyed
    // (the destructor completes every task, so by then done is set and
    // the pool pointer below is never touched).
    MutexLock lock(state_->mu);
    if (state_->done) return;
  }
  // Still queued? Run it here instead of waiting for a worker: a waiter
  // behind a saturated (or single-thread) pool must not deadlock.
  if (state_->pool != nullptr && state_->pool->StealQueuedTask(state_)) {
    return;
  }
  MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.Wait(state_->mu);
}

std::exception_ptr TaskHandle::error() const {
  if (state_ == nullptr) return nullptr;
  MutexLock lock(state_->mu);
  return state_->err;
}

// ---------------------------------------------------------------- ThreadPool

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = num_threads == 0 ? DefaultThreads() : num_threads;
  if (n == 0) n = 1;
  workers_.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  std::deque<std::shared_ptr<TaskHandle::State>> leftover;
  {
    MutexLock lock(mu_);
    stop_ = true;
    leftover.swap(async_queue_);
  }
  work_cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
  // Tasks no worker started still complete — on this thread — so every
  // TaskHandle this pool issued can be waited on after destruction.
  for (auto& task : leftover) RunAsyncTask(task.get());
}

void ThreadPool::For(size_t n, size_t max_workers,
                     const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // The inline fast path: no pool traffic, and (matching the historical
  // parallel-loop contract) an exception from fn propagates directly.
  if (max_workers <= 1 || n == 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t helpers = std::min({max_workers - 1, n - 1, workers_.size()});
  ForJob job(this, n, &fn, helpers);
  {
    MutexLock lock(mu_);
    jobs_.push_back(&job);
  }
  work_cv_.NotifyAll();
  // The caller claims indexes too — this is what makes nested For calls
  // (a pool worker publishing a job) deadlock-free: progress never
  // requires a free worker.
  RunForLoop(&job);
  {
    MutexLock lock(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    // After the erase no new worker can attach; drain the ones still
    // running claimed indexes. attached == 0 is also the lifetime fence:
    // past it no worker holds a pointer to this stack frame.
    while (HasAttachedWorkers(&job)) done_cv_.Wait(mu_);
  }
  std::exception_ptr first_error;
  {
    MutexLock lock(job.error_mu);
    first_error = job.first_error;
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

TaskHandle ThreadPool::Async(std::function<void()> fn) {
  auto state = std::make_shared<TaskHandle::State>();
  state->pool = this;
  state->fn = std::move(fn);
  {
    MutexLock lock(mu_);
    async_queue_.push_back(state);
  }
  work_cv_.NotifyOne();
  return TaskHandle(std::move(state));
}

ThreadPool* ThreadPool::Global() {
  ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire);
  if (override_pool != nullptr) return override_pool;
  static ThreadPool pool(g_default_pool_size.load(std::memory_order_relaxed));
  return &pool;
}

void ThreadPool::SetDefaultPoolSize(size_t num_threads) {
  g_default_pool_size.store(num_threads, std::memory_order_relaxed);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    ForJob* job = nullptr;
    std::shared_ptr<TaskHandle::State> task;
    {
      MutexLock lock(mu_);
      for (;;) {
        if (stop_) return;
        job = PickJob();
        if (job != nullptr) {
          AttachWorker(job);
          break;
        }
        if (!async_queue_.empty()) {
          task = std::move(async_queue_.front());
          async_queue_.pop_front();
          break;
        }
        work_cv_.Wait(mu_);
      }
    }
    if (job != nullptr) {
      RunForLoop(job);
      MutexLock lock(mu_);
      if (DetachWorker(job)) done_cv_.NotifyAll();
    } else {
      RunAsyncTask(task.get());
    }
  }
}

void ThreadPool::RunForLoop(ForJob* job) {
  while (!job->failed.load(std::memory_order_relaxed)) {
    size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->n) break;
    try {
      (*job->fn)(i);
    } catch (...) {
      MutexLock lock(job->error_mu);
      if (job->first_error == nullptr) {
        job->first_error = std::current_exception();
      }
      job->failed.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::RunAsyncTask(TaskHandle::State* task) {
  std::exception_ptr err;
  try {
    task->fn();
  } catch (...) {
    err = std::current_exception();
  }
  task->fn = nullptr;  // release captures now, not at last-handle death
  MutexLock lock(task->mu);
  task->done = true;
  task->err = err;
  task->cv.NotifyAll();
}

bool ThreadPool::StealQueuedTask(
    const std::shared_ptr<TaskHandle::State>& state) {
  {
    MutexLock lock(mu_);
    auto it = std::find(async_queue_.begin(), async_queue_.end(), state);
    if (it == async_queue_.end()) return false;
    async_queue_.erase(it);
  }
  RunAsyncTask(state.get());
  return true;
}

ThreadPool::ForJob* ThreadPool::PickJob() {
  const size_t count = jobs_.size();
  for (size_t k = 0; k < count; ++k) {
    ForJob* job = jobs_[(pick_cursor_ + k) % count];
    if (job->failed.load(std::memory_order_relaxed)) continue;
    if (job->next.load(std::memory_order_relaxed) >= job->n) continue;
    if (job->attached >= job->max_helpers) continue;
    pick_cursor_ = (pick_cursor_ + k + 1) % count;
    return job;
  }
  return nullptr;
}

void ThreadPool::AttachWorker(ForJob* job) { ++job->attached; }

bool ThreadPool::DetachWorker(ForJob* job) { return --job->attached == 0; }

bool ThreadPool::HasAttachedWorkers(const ForJob* job) const {
  return job->attached > 0;
}

ScopedThreadPoolOverride::ScopedThreadPoolOverride(ThreadPool* pool)
    : previous_(g_pool_override.exchange(pool, std::memory_order_acq_rel)) {}

ScopedThreadPoolOverride::~ScopedThreadPoolOverride() {
  g_pool_override.store(previous_, std::memory_order_release);
}

}  // namespace util
}  // namespace wikimatch
