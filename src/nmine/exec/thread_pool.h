#ifndef NMINE_EXEC_THREAD_POOL_H_
#define NMINE_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nmine {
namespace exec {

/// Number of hardware threads, never 0.
size_t HardwareThreads();

/// Resolves a num_threads knob: 0 means "use the hardware concurrency".
size_t ResolveNumThreads(size_t requested);

/// A growable pool of worker threads draining a shared task queue.
///
/// The process-wide instance (Shared()) is created lazily and leaked on
/// exit, like obs::Profiler::Global(), so tasks submitted from static
/// destructors never touch a destroyed pool. Workers are only ever
/// added, never removed: EnsureWorkers(n) grows the pool to at least n
/// threads, so a later request for more parallelism reuses the threads
/// already spawned. Callers that need completion semantics build them on
/// top of Submit (see ParallelFor).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool shared by all parallel scans. Starts empty;
  /// workers are spawned on first use via EnsureWorkers.
  static ThreadPool& Shared();

  /// Grows the pool to at least n worker threads. Never shrinks.
  /// Long-lived service loops (accept loops, server executors) run on
  /// threads their owners start and join, never on pool workers.
  void EnsureWorkers(size_t n);

  size_t num_workers() const;

  /// Enqueues a task for execution on some worker thread. Tasks must not
  /// block on other queued tasks (workers are a finite resource: a queued
  /// task may not start while every worker is busy). The shard reducers'
  /// helpers (exec/sharded_reduce.h) never wait: each counts published
  /// shards and gives its worker back when none is left. Their producer
  /// never waits for a helper that has not started: it counts the shards
  /// itself, and a helper that starts after its reduction ended leaves at
  /// once.
  ///
  /// If the submitting thread carries an active obs::TraceContext, the
  /// task is wrapped so the same context is installed on the worker for
  /// the task's duration — request attribution follows work across the
  /// pool (see obs/trace_context.h).
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace exec
}  // namespace nmine

#endif  // NMINE_EXEC_THREAD_POOL_H_
