#include "util/thread_pool.h"

#include "util/clock.h"

namespace rdfql {

ThreadPool::ThreadPool(int num_threads) {
  int workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::DrainBatch(Batch* batch) {
  // Adopt the batch owner's governance context for the drain: workers pick
  // up the coordinating thread's token/accountant, the coordinator itself
  // re-installs its own (a no-op), and a worker hopping between batches of
  // different queries switches context with each batch.
  ExecContext saved = CurrentExecContext();
  CurrentExecContext() = batch->context;
  size_t i;
  while ((i = batch->next.fetch_add(1, std::memory_order_relaxed)) <
         batch->num_tasks) {
    // Queue delay (publish -> this claim) and run time are always
    // recorded: tasks are whole subtree evaluations (one side of an
    // AND/OPT/MINUS, one UNION disjunct), so two clock reads per task are
    // noise next to the task itself.
    uint64_t claim_ns = SteadyNowNs();
    queue_delay_.RecordWait(claim_ns - batch->publish_ns);
    {
      ProfileFrame frame("pool_task");
      (*batch->task)(i);
    }
    run_time_.RecordWait(SteadyNowNs() - claim_ns);
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch->num_tasks) {
      // Last task: wake the ParallelFor caller (and any idle worker).
      // Locking mu_ orders this notify against the caller's predicate
      // check, so the wakeup cannot be lost.
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
  }
  CurrentExecContext() = saved;
}

void ThreadPool::WorkerLoop() {
  // Register this worker with the profile-thread registry up front, so a
  // profiler started mid-run sees parked workers as "idle" samples.
  CurrentProfileSlot();
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Find a batch with unclaimed tasks.
    std::shared_ptr<Batch> batch;
    for (const std::shared_ptr<Batch>& b : active_) {
      if (b->next.load(std::memory_order_relaxed) < b->num_tasks) {
        batch = b;
        break;
      }
    }
    if (batch != nullptr) {
      lock.unlock();
      DrainBatch(batch.get());
      lock.lock();
      continue;
    }
    if (stopping_) return;
    cv_.wait(lock);
  }
}

size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t depth = 0;
  for (const std::shared_ptr<Batch>& b : active_) {
    size_t next = b->next.load(std::memory_order_relaxed);
    if (next < b->num_tasks) depth += b->num_tasks - next;
  }
  return depth;
}

void ThreadPool::ParallelFor(size_t num_tasks,
                             const std::function<void(size_t)>& task) {
  if (num_tasks == 0) return;
  tasks_total_.fetch_add(num_tasks, std::memory_order_relaxed);
  if (workers_.empty() || num_tasks == 1) {
    for (size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->task = &task;
  batch->num_tasks = num_tasks;
  batch->context = CurrentExecContext();
  batch->publish_ns = SteadyNowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(batch);
  }
  cv_.notify_all();
  // Participate: claim tasks until none are left, then wait for the ones
  // other threads claimed.
  DrainBatch(batch.get());
  {
    std::unique_lock<std::mutex> lock(mu_);
    // The caller has no task of its own while it waits for the tasks
    // other threads claimed — that is the pool barrier the profiler
    // attributes as pool_queue_wait.
    ProfileStateScope wait_state(ProfileThreadState::kPoolQueueWait);
    cv_.wait(lock, [&batch] {
      return batch->done.load(std::memory_order_acquire) == batch->num_tasks;
    });
    for (size_t i = 0; i < active_.size(); ++i) {
      if (active_[i] == batch) {
        active_.erase(active_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
}

}  // namespace rdfql
