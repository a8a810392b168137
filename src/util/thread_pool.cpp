#include "util/thread_pool.h"

#include "util/check.h"

namespace occ {

ThreadPool::ThreadPool(size_t shards) {
  OCC_CHECK(shards >= 1, "ThreadPool needs at least one shard");
  workers_.reserve(shards - 1);
  for (size_t s = 1; s < shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(ShardFn fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    ++generation_;
    pending_ = workers_.size();
    first_error_ = nullptr;
  }
  work_cv_.notify_all();
  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr error;
  {
    // Always drain the workers, even when shard 0 threw: they hold a
    // pointer to fn, which dies when this frame unwinds.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    error = caller_error ? caller_error : first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(size_t shard) {
  uint64_t seen = 0;
  for (;;) {
    const ShardFn* job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(shard);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error && !first_error_) first_error_ = error;
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace occ
