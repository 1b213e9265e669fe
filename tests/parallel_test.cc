// Tests for the parallel-loop contract of util::thread_pool_for (every
// index exactly once, inline at one thread, first exception rethrown on
// the caller) and the pipeline's parallel execution determinism.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "match/pipeline.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace wikimatch {
namespace {

TEST(ParallelForTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  util::thread_pool_for(hits.size(), 8, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, InlineWhenSingleThreaded) {
  std::vector<int> order;
  util::thread_pool_for(5, 1, [&](size_t i) {
    order.push_back(static_cast<int>(i));  // Safe: runs inline.
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroItems) {
  bool called = false;
  util::thread_pool_for(0, 8, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  std::atomic<size_t> sum{0};
  util::thread_pool_for(3, 64, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 3u);
}

TEST(ParallelForTest, WorkerExceptionRethrownOnCallingThread) {
  // Before the fix, a throw inside a worker escaped a raw std::thread and
  // hit std::terminate. Now the first exception is captured, every worker
  // joins, and the calling thread rethrows it.
  std::atomic<size_t> ran{0};
  try {
    util::thread_pool_for(1000, 8, [&](size_t i) {
      if (i == 137) throw std::runtime_error("worker 137 failed");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 137 failed");
  }
  // Workers stop handing out new indexes after the failure, so not every
  // index need run — but none may run after the call returned.
  EXPECT_LE(ran.load(), 999u);
}

TEST(ParallelForTest, InlineExceptionStillPropagates) {
  EXPECT_THROW(
      util::thread_pool_for(5, 1,
                            [&](size_t i) {
                              if (i == 3) throw std::logic_error("inline");
                            }),
      std::logic_error);
}

TEST(ParallelForTest, AllWorkersJoinWhenEveryCallThrows) {
  // Every invocation throwing must still produce exactly one rethrow.
  EXPECT_THROW(util::thread_pool_for(64, 8,
                                     [&](size_t) {
                                       throw std::runtime_error("all fail");
                                     }),
               std::runtime_error);
}

TEST(ParallelPipelineTest, SameResultsAsSequential) {
  synth::CorpusGenerator generator(synth::GeneratorOptions::Tiny(123));
  auto gc = generator.Generate();
  ASSERT_TRUE(gc.ok());
  match::MatchPipeline pipeline(&gc->corpus);

  match::PipelineOptions sequential;
  sequential.num_threads = 1;
  match::PipelineOptions parallel;
  parallel.num_threads = 8;

  auto a = pipeline.Run("pt", "en", sequential);
  auto b = pipeline.Run("pt", "en", parallel);
  ASSERT_TRUE(a.ok());
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
