// Tests for the shared work-stealing thread pool (util/thread_pool.h):
// loop coverage and determinism, work stealing under skewed index costs,
// reentrancy (For inside For), the caller's own progress with every
// worker busy, pool injection, DefaultThreads resolution — and the
// regression this subsystem exists for: nested loops must not put more
// threads on the box than the pool owns (the pre-pool ParallelFor spawned
// fresh std::threads per call, so an outer loop times an inner one
// multiplied to T² workers).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "match/pipeline.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

// Live threads in this process, counted from /proc/self/task (Linux).
size_t CountProcessThreads() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// Spin until `pred` holds, failing the test after ~10s of wall clock.
template <typename Pred>
void SpinUntil(const Pred& pred, const char* what) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      FAIL() << "timed out waiting for: " << what;
    }
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTest, ForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.For(hits.size(), 8,
           [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroItemsAndSingleWorkerRunInline) {
  util::ThreadPool pool(2);
  bool called = false;
  pool.For(0, 8, [&](size_t) { called = true; });
  EXPECT_FALSE(called);

  // max_workers <= 1 runs on the calling thread, in order.
  std::vector<int> order;
  pool.For(5, 1, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, CallerParticipatesInItsOwnLoop) {
  // With zero helpers available (the only worker pinned inside a loop a
  // second thread runs), the caller alone must finish its loop: progress
  // never requires a free worker.
  util::ThreadPool pool(1);
  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  std::thread other([&]() {
    // Two indexes that both block: the second thread holds one, and the
    // pool's worker attaches and holds the other.
    pool.For(2, 2, [&](size_t) {
      pinned.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  });
  SpinUntil([&]() { return pinned.load() == 2; }, "worker pinned");
  std::atomic<size_t> sum{0};
  pool.For(100, 8,
           [&](size_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), 4950u);
  release.store(true, std::memory_order_release);
  other.join();
}

TEST(ThreadPoolTest, WorkStealingBalancesSkewedCosts) {
  // Index 0 blocks until every other index has retired. That can only
  // happen if idle workers attach to the published job and drain the
  // remaining indexes while one participant is stuck — the index-level
  // steal that balances skewed per-index costs.
  util::ThreadPool pool(3);
  std::atomic<size_t> others_done{0};
  std::atomic<bool> timed_out{false};
  pool.For(8, 4, [&](size_t i) {
    if (i == 0) {
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (others_done.load(std::memory_order_acquire) < 7) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          return;
        }
        std::this_thread::yield();
      }
    } else {
      others_done.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  EXPECT_FALSE(timed_out.load()) << "no worker stole the remaining indexes";
  EXPECT_EQ(others_done.load(), 7u);
}

TEST(ThreadPoolTest, ForExceptionRethrownOnCallingThread) {
  util::ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  try {
    pool.For(1000, 8, [&](size_t i) {
      if (i == 137) throw std::runtime_error("index 137 failed");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 137 failed");
  }
  // Handout stops after the failure; indexes that did run did so before
  // the call returned.
  EXPECT_LE(ran.load(), 999u);
}

TEST(ThreadPoolTest, EveryIndexThrowingYieldsExactlyOneRethrow) {
  // All participants throw; exactly the first captured exception (in
  // completion order) may surface, and the pool must stay usable after.
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.For(64, 8,
                        [&](size_t i) {
                          throw std::runtime_error("fail " +
                                                   std::to_string(i));
                        }),
               std::runtime_error);
  std::atomic<size_t> sum{0};
  pool.For(10, 8,
           [&](size_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolTest, ReentrantForInsideFor) {
  // The oversubscription bug's shape: an outer loop whose bodies run
  // inner loops on the same pool. Must neither deadlock nor miss indexes.
  util::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(16 * 32);
  pool.For(16, 8, [&](size_t outer) {
    pool.For(32, 8, [&](size_t inner) {
      hits[outer * 32 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ScopedOverrideRedirectsGlobalAndNests) {
  util::ThreadPool* base = util::ThreadPool::Global();
  util::ThreadPool inner_pool(2);
  util::ThreadPool innermost_pool(3);
  {
    util::ScopedThreadPoolOverride outer(&inner_pool);
    EXPECT_EQ(util::ThreadPool::Global(), &inner_pool);
    {
      util::ScopedThreadPoolOverride nested(&innermost_pool);
      EXPECT_EQ(util::ThreadPool::Global(), &innermost_pool);
    }
    EXPECT_EQ(util::ThreadPool::Global(), &inner_pool);
  }
  EXPECT_EQ(util::ThreadPool::Global(), base);
}

TEST(ThreadPoolTest, DefaultThreadsHonorsEnvOverride) {
  ASSERT_EQ(setenv("WIKIMATCH_THREADS", "3", 1), 0);
  EXPECT_EQ(util::DefaultThreads(), 3u);
  // Non-positive or non-numeric values fall through to detection.
  ASSERT_EQ(setenv("WIKIMATCH_THREADS", "0", 1), 0);
  size_t detected = util::DefaultThreads();
  EXPECT_GE(detected, 1u);
  ASSERT_EQ(setenv("WIKIMATCH_THREADS", "banana", 1), 0);
  EXPECT_EQ(util::DefaultThreads(), detected);
  ASSERT_EQ(unsetenv("WIKIMATCH_THREADS"), 0);
  EXPECT_GE(util::DefaultThreads(), 1u);
}

// Nested loops on one pool (an outer thread_pool_for whose bodies run
// inner thread_pool_for loops) must execute entirely on the injected pool:
// total live threads in the process never exceeds the pre-run count. The
// pre-pool ParallelFor spawned outer*inner fresh std::threads and this
// sampler caught them.
TEST(ThreadPoolTest, NestedForDoesNotOversubscribe) {
  util::ThreadPool pool(4);
  util::ScopedThreadPoolOverride override_pool(&pool);

  // One sampler thread polls the kernel's thread count for the duration
  // of the loops; it is itself part of the baseline.
  std::atomic<bool> sampling{true};
  std::atomic<size_t> max_seen{0};
  std::thread sampler([&]() {
    while (sampling.load(std::memory_order_acquire)) {
      size_t now = CountProcessThreads();
      size_t prev = max_seen.load(std::memory_order_relaxed);
      while (now > prev &&
             !max_seen.compare_exchange_weak(prev, now,
                                             std::memory_order_relaxed)) {
      }
      std::this_thread::yield();
    }
  });
  SpinUntil([&]() { return max_seen.load() > 0; }, "first sample");
  const size_t baseline = CountProcessThreads();

  std::vector<std::atomic<int>> hits(8 * 8);
  util::thread_pool_for(8, 4, [&](size_t outer) {
    util::thread_pool_for(8, 4, [&](size_t inner) {
      // Long enough that the loops overlap the sampler's polls.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  sampling.store(false, std::memory_order_release);
  sampler.join();

  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LE(max_seen.load(), baseline)
      << "the nested loops spawned threads beyond the pool";
}

TEST(ThreadPoolTest, PipelineOutputInvariantAcrossPoolSizes) {
  // Byte-identical results at any pool size and any thread request:
  // a 2-worker pool serving an 8-thread request must reproduce the
  // sequential run exactly.
  synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(123));
  auto gc = generator.Generate();
  ASSERT_TRUE(gc.ok());
  match::MatchPipeline pipeline(&gc->corpus);

  match::PipelineOptions sequential;
  sequential.num_threads = 1;
  auto a = pipeline.Run("pt", "en", sequential);
  ASSERT_TRUE(a.ok());

  util::ThreadPool pool(2);
  util::ScopedThreadPoolOverride override_pool(&pool);
  match::PipelineOptions parallel;
  parallel.num_threads = 8;
  auto b = pipeline.Run("pt", "en", parallel);
  ASSERT_TRUE(b.ok());

  ASSERT_EQ(a->per_type.size(), b->per_type.size());
  for (size_t i = 0; i < a->per_type.size(); ++i) {
    EXPECT_EQ(a->per_type[i].type_a, b->per_type[i].type_a);
    EXPECT_EQ(a->per_type[i].alignment.matches.Clusters(),
              b->per_type[i].alignment.matches.Clusters());
  }
}

}  // namespace
}  // namespace wikimatch
