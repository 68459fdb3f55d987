// Minimal fixed-size thread pool: serve::ShardedEngine runs the
// synchronous link's per-shard encode slices on it.

#ifndef APAN_UTIL_THREAD_POOL_H_
#define APAN_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace apan {

/// \brief Fixed-size pool executing std::function tasks FIFO. A pool of
/// zero threads starts none and accepts no task.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      util::MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// \brief Schedules `fn` and returns a future for its completion.
  /// CHECK-fails on a pool of zero threads, where it would never run.
  template <typename Fn>
  std::future<void> Submit(Fn&& fn) APAN_EXCLUDES(mu_) {
    APAN_CHECK_MSG(!workers_.empty(), "Submit on a pool with no threads");
    auto task =
        std::make_shared<std::packaged_task<void()>>(std::forward<Fn>(fn));
    std::future<void> fut = task->get_future();
    {
      util::MutexLock lock(mu_);
      tasks_.emplace_back([task] { (*task)(); });
    }
    cv_.NotifyOne();
    return fut;
  }

 private:
  void WorkerLoop() APAN_EXCLUDES(mu_) {
    while (true) {
      std::function<void()> task;
      {
        util::MutexLock lock(mu_);
        while (!stop_ && tasks_.empty()) cv_.Wait(mu_);
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_ APAN_GUARDED_BY(mu_);
  util::Mutex mu_;
  util::CondVar cv_;
  bool stop_ APAN_GUARDED_BY(mu_) = false;
};

}  // namespace apan

#endif  // APAN_UTIL_THREAD_POOL_H_
