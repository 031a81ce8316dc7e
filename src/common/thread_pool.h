#ifndef MODELHUB_COMMON_THREAD_POOL_H_
#define MODELHUB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace modelhub {

/// Tracks completion of one batch of tasks on a shared ThreadPool.
///
/// ThreadPool::Wait() barriers on *every* in-flight task, so two callers
/// sharing one pool would block on each other's work. A WaitGroup counts
/// only its own batch: Schedule(&group, task) increments it before the
/// task is enqueued and decrements it when the task returns, and
/// WaitGroup::Wait() blocks until exactly this batch has drained. Tasks
/// may themselves schedule follow-up tasks against the same group (the
/// increment happens before the scheduling task's decrement, so the count
/// never transiently hits zero while work remains).
class WaitGroup {
 public:
  WaitGroup() = default;
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  /// Registers `n` pending completions.
  void Add(int n = 1);

  /// Marks one completion. Must balance a prior Add.
  void Done();

  /// Blocks until the count returns to zero. Reusable: a later Add starts
  /// a new batch.
  void Wait();

 private:
  std::mutex mutex_;
  std::condition_variable zero_;
  int count_ = 0;
};

/// A fixed-size worker pool. PAS's parallel retrieval schemes (Table III:
/// "accesses all matrices of a snapshot in parallel using multiple
/// threads") run per-vertex recreation tasks on this pool.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw.
  void Schedule(std::function<void()> task);

  /// Enqueues a task tracked by `group`: the group is incremented before
  /// the task is queued and decremented after it runs (the pool drains
  /// its queue before shutdown, so every queued task runs exactly once).
  /// `group` must outlive the task.
  void Schedule(WaitGroup* group, std::function<void()> task);

  /// Blocks until every scheduled task has finished — including tasks
  /// scheduled by other callers. Prefer per-batch WaitGroups on shared
  /// pools.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> queue_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0) .. fn(n - 1). With a pool, each index is one task tracked by
/// a per-call WaitGroup, so concurrent callers on a shared pool never wait
/// on each other's work; with a null pool the calls run inline, in index
/// order. Returns once every call has returned.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace modelhub

#endif  // MODELHUB_COMMON_THREAD_POOL_H_
