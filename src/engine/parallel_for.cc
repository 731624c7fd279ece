#include "engine/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace distme::engine {

namespace {

// One ParallelFor call. Items are claimed from `next_`; the call is over
// once `done_` reaches n. Helpers hold the job by shared_ptr, so one that
// starts after the caller returned finds no item left and touches nothing
// the caller owned.
class Job {
 public:
  Job(size_t n, const std::function<Status(size_t)>& fn)
      : n_(n), fn_(fn), results_(n) {}

  // Runs unclaimed items until none are left.
  void Work() {
    for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n_;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      results_[i] = fn_(i);
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        std::lock_guard<std::mutex> lock(mutex_);
        finished_.notify_all();
      }
    }
  }

  // Blocks until every item has finished, then returns the lowest failing
  // item's error, or OK.
  Status Wait() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      finished_.wait(lock, [this] {
        return done_.load(std::memory_order_acquire) == n_;
      });
    }
    for (Status& st : results_) {
      if (!st.ok()) return std::move(st);
    }
    return Status::OK();
  }

 private:
  const size_t n_;
  const std::function<Status(size_t)>& fn_;
  std::vector<Status> results_ DISTME_LOCKFREE(
      "slot i is written only by the thread that claimed item i, and read "
      "by Wait() after done_ has counted it (acq_rel/acquire on done_)");
  std::atomic<size_t> next_{0};
  std::atomic<size_t> done_{0};
  std::mutex mutex_;
  std::condition_variable finished_;
};

}  // namespace

Status ParallelFor(size_t n, int max_threads,
                   const std::function<Status(size_t)>& fn) {
  const size_t num_threads =
      std::min(static_cast<size_t>(std::max(max_threads, 1)), n);
  auto job = std::make_shared<Job>(n, fn);
  // Helpers are detached: the call waits for the items, not for every
  // helper to be scheduled and exit. A helper that starts late finds no
  // item left and exits at once.
  for (size_t t = 1; t < num_threads; ++t) {
    std::thread([job] { job->Work(); }).detach();
  }
  job->Work();
  return job->Wait();
}

}  // namespace distme::engine
