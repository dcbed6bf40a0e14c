#ifndef RDFQL_UTIL_THREAD_POOL_H_
#define RDFQL_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/limits.h"
#include "util/profile_state.h"

namespace rdfql {

/// A fixed-size thread pool built for deterministic data parallelism: the
/// only entry point is a blocking ParallelFor whose tasks are claimed from
/// a shared atomic cursor (no work stealing, no per-thread deques). The
/// calling thread participates, so a pool constructed with `num_threads`
/// runs at most `num_threads` tasks concurrently while spawning only
/// `num_threads - 1` workers — and a pool of size 1 degenerates to a plain
/// serial loop with no threads at all.
///
/// Determinism contract: the pool never decides *what* the result is, only
/// *who* computes which task. Callers that want scheduling-independent
/// output must write task `i`'s results into slot `i` (or an
/// index-addressed chunk) and combine slots in index order after
/// ParallelFor returns — which is exactly how the evaluator's concurrent
/// subtrees (EvalBranches, EvalUnionSpine) use it.
///
/// ParallelFor is reentrant: a task may itself call ParallelFor on the
/// same pool (the evaluator does this when a concurrently evaluated
/// subtree has independent subtrees of its own). The nested call's tasks
/// are claimed by the nested caller and by any idle worker; a thread
/// blocked in ParallelFor has no in-progress task of its own, so waits
/// always target running threads and the nesting cannot deadlock.
///
/// Governance propagation: ParallelFor snapshots the calling thread's
/// ExecContext (cancellation token + resource accountant, both
/// thread-local) into the batch, and every thread that claims the batch's
/// tasks runs them under that context. A pool shared by concurrently
/// governed queries therefore routes each task's checkpoints and
/// allocation reports to the query that forked it, not to whichever query
/// installed its context last.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (clamped to at least 0). The pool
  /// must outlive every ParallelFor call issued against it.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum concurrency, workers plus the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs task(0), ..., task(num_tasks - 1), each exactly once, on the
  /// workers and the calling thread; returns when all have completed.
  /// Tasks must not throw (the engine's error discipline is Status/CHECK).
  void ParallelFor(size_t num_tasks, const std::function<void(size_t)>& task);

  /// Tasks ever submitted (fast-path serial loops included). Relaxed
  /// atomic — always on, independent of profiling.
  uint64_t tasks_total() const {
    return tasks_total_.load(std::memory_order_relaxed);
  }

  /// Unclaimed tasks across the in-flight batches right now (a scrape-time
  /// gauge; takes the pool mutex briefly).
  size_t QueueDepth() const;

  /// Publish→claim delay of every task run through a worker batch (the
  /// serial fast path has no queue and records nothing). Same power-of-two
  /// buckets as the metrics registry, so Engine::MetricsSnapshot injects
  /// these verbatim as pool.queue_delay_ns / pool.run_ns.
  const WaitStats& queue_delay_stats() const { return queue_delay_; }
  /// Per-task execution time of batch tasks.
  const WaitStats& run_time_stats() const { return run_time_; }

 private:
  /// One in-flight ParallelFor: a claim cursor, a completion count, and
  /// the caller's governance context (installed around each claimed task).
  struct Batch {
    const std::function<void(size_t)>* task = nullptr;
    size_t num_tasks = 0;
    ExecContext context;  // written before publication, read-only after
    uint64_t publish_ns = 0;  // submit timestamp for queue-delay accounting
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  void WorkerLoop();
  /// Runs tasks from `batch` until none are left to claim.
  void DrainBatch(Batch* batch);

  mutable std::mutex mu_;
  std::condition_variable cv_;  // woken on new work and batch completion
  std::vector<std::shared_ptr<Batch>> active_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> tasks_total_{0};
  WaitStats queue_delay_;
  WaitStats run_time_;
};

}  // namespace rdfql

#endif  // RDFQL_UTIL_THREAD_POOL_H_
