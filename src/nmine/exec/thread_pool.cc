#include "nmine/exec/thread_pool.h"

#include <utility>

#include "nmine/obs/trace_context.h"

namespace nmine {
namespace exec {

size_t HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

size_t ResolveNumThreads(size_t requested) {
  return requested == 0 ? HardwareThreads() : requested;
}

ThreadPool::ThreadPool(size_t num_workers) { EnsureWorkers(num_workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: mining code may run during static destruction
  // (e.g. a bench harness flushing results), and joining workers there
  // would deadlock or touch freed state.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::EnsureWorkers(size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (workers_.size() < n) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

size_t ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Trace-context propagation: every pool task carries the submitting
  // thread's request identity onto whichever worker runs it, so spans,
  // log lines, and flight events inside ParallelFor bodies attribute to
  // the right job even when two jobs share the pool. Inactive contexts
  // (process-level work, service loops) skip the wrapper entirely.
  const obs::TraceContext& ctx = obs::CurrentTraceContext();
  if (ctx.active()) {
    task = [ctx, inner = std::move(task)] {
      obs::ScopedTraceContext scope(ctx);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace exec
}  // namespace nmine
