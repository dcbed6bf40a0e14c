#ifndef RDFQL_UTIL_TIMED_LOCK_H_
#define RDFQL_UTIL_TIMED_LOCK_H_

#include "util/clock.h"
#include "util/profile_state.h"

namespace rdfql {

/// RAII mutex guards that attribute contention instead of hiding it. The
/// uncontended path is a bare try_lock — no clock read, no atomic bumps —
/// so wrapping a rarely contended mutex costs nothing measurable. On
/// contention the guard:
///
///   1. counts the acquisition in `stats` (lock.*_contended_total),
///   2. pushes `tag` onto the profiler tag stack and flips the thread to
///      `lock_wait` (both no-ops when profiling is off / tag is null),
///   3. blocks, then records the measured wait into the `stats` histogram
///      (lock.*_wait_ns).
///
/// `stats` may be null (pure profiling), `tag` may be null (pure metrics).
/// Works with std::mutex and the exclusive side of std::shared_mutex;
/// TimedSharedLock covers the shared side.
template <typename Mutex>
class TimedExclusiveLock {
 public:
  TimedExclusiveLock(Mutex& mu, WaitStats* stats, const char* tag) : mu_(mu) {
    if (mu_.try_lock()) return;  // spurious failure just takes the slow path
    uint64_t start = SteadyNowNs();
    {
      ProfileFrame frame(tag);
      ProfileStateScope state(ProfileThreadState::kLockWait);
      mu_.lock();
    }
    if (stats != nullptr) stats->RecordWait(SteadyNowNs() - start);
  }
  ~TimedExclusiveLock() { mu_.unlock(); }
  TimedExclusiveLock(const TimedExclusiveLock&) = delete;
  TimedExclusiveLock& operator=(const TimedExclusiveLock&) = delete;

 private:
  Mutex& mu_;
};

template <typename Mutex>
class TimedSharedLock {
 public:
  TimedSharedLock(Mutex& mu, WaitStats* stats, const char* tag) : mu_(mu) {
    if (mu_.try_lock_shared()) return;
    uint64_t start = SteadyNowNs();
    {
      ProfileFrame frame(tag);
      ProfileStateScope state(ProfileThreadState::kLockWait);
      mu_.lock_shared();
    }
    if (stats != nullptr) stats->RecordWait(SteadyNowNs() - start);
  }
  ~TimedSharedLock() { mu_.unlock_shared(); }
  TimedSharedLock(const TimedSharedLock&) = delete;
  TimedSharedLock& operator=(const TimedSharedLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace rdfql

#endif  // RDFQL_UTIL_TIMED_LOCK_H_
