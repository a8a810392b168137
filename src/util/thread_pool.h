// Minimal persistent fork-join pool for sharded work.
//
// One pool serves many dispatches: run(fn) invokes fn(shard) for every
// shard in [0, shards()) concurrently and returns when all are done. The
// calling thread executes shard 0 itself, so a pool of N shards spawns
// only N-1 workers and `ThreadPool(1)` degenerates to a plain inline
// call with no synchronization at all. A dispatch allocates nothing:
// run() takes the callable by non-owning reference (ShardFn).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace occ {

/// Non-owning reference to a callable invoked as fn(shard). It stores
/// the callable's address and a call thunk, never a copy, so building
/// one from a capturing lambda allocates nothing however much the
/// lambda captures. The referenced callable must outlive every call;
/// ThreadPool::run blocks until all shards returned, so a lambda
/// temporary in the run() call's full expression qualifies.
class ShardFn {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ShardFn> &&
             std::is_invocable_v<F&, size_t>)
  ShardFn(F&& fn)  // implicit: run([&](size_t s) { ... }) call sites
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, size_t shard) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(shard);
        }) {}

  void operator()(size_t shard) const { call_(obj_, shard); }

 private:
  void* obj_;
  void (*call_)(void*, size_t);
};

class ThreadPool {
 public:
  /// `shards` >= 1; spawns `shards - 1` worker threads.
  explicit ThreadPool(size_t shards);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t shards() const { return workers_.size() + 1; }

  /// Runs fn(0), fn(1), ..., fn(shards()-1) concurrently; blocks until
  /// every invocation returned. fn must not itself call run() on the
  /// same pool (a dispatch on another pool is fine). If any
  /// invocation throws, one of the exceptions is rethrown here (after
  /// all shards finished), so pool users keep the ordinary
  /// throw-to-caller error contract.
  void run(ShardFn fn);

 private:
  void worker_loop(size_t shard);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const ShardFn* job_ = nullptr;
  uint64_t generation_ = 0;
  size_t pending_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace occ
