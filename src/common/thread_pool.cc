#include "common/thread_pool.h"

#include <algorithm>

#include "common/trace.h"

namespace modelhub {

void WaitGroup::Add(int n) {
  std::unique_lock<std::mutex> lock(mutex_);
  count_ += n;
}

void WaitGroup::Done() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (--count_ == 0) zero_.notify_all();
}

void WaitGroup::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  zero_.wait(lock, [this] { return count_ == 0; });
}

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Schedule(std::function<void()> task) {
  // Hand the scheduler's trace context to the worker so spans recorded on
  // pool threads (retrieval, PAS) keep the originating request's trace id
  // and parent to the span that was open at Schedule time.
  const TraceContext& ctx = CurrentTraceContext();
  if (ctx.active()) {
    TraceContext inherited = ctx;
    const uint64_t scheduler_span = CurrentSpanId();
    if (scheduler_span != 0) inherited.parent_span = scheduler_span;
    task = [inherited, inner = std::move(task)] {
      ScopedTraceContext scope(inherited);
      inner();
    };
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Schedule(WaitGroup* group, std::function<void()> task) {
  // The Add must precede enqueueing: once queued, the task (and its Done)
  // can run at any moment, and a Wait observing the pre-Add count would
  // return with the task still pending.
  group->Add(1);
  Schedule([group, task = std::move(task)] {
    task();
    group->Done();
  });
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  WaitGroup done;
  for (size_t i = 0; i < n; ++i) {
    pool->Schedule(&done, [&fn, i] { fn(i); });
  }
  done.Wait();
}

}  // namespace modelhub
