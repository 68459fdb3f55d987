#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace apan {
namespace {

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 50; ++i) {
    futs.push_back(pool.Submit([&] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsStartsNone) {
  // A 1-shard engine sizes its encode pool at zero: no idle thread.
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.num_threads(), 0u);
  }  // destruction joins nothing and returns
}

TEST(ThreadPoolDeathTest, SubmitOnEmptyPoolAborts) {
  ThreadPool pool(0);
  EXPECT_DEATH(pool.Submit([] {}), "no threads");
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++counter;
      });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace apan
