#ifndef RDFQL_UTIL_PROFILE_STATE_H_
#define RDFQL_UTIL_PROFILE_STATE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <vector>

namespace rdfql {

/// What a registered thread is doing right now, as the sampling profiler
/// sees it. `kRunning` with a non-empty tag stack attributes the sample to
/// the stack; the wait states are set around blocking boundaries (pool
/// completion barriers, contended lock acquisitions, worker idle waits) so
/// a wall-clock sample lands on *why* the thread is not making progress —
/// the attribution the paper's blowup results make valuable (a Thm 5.1
/// query can be slow in eval or merely stuck behind a dictionary lock, and
/// on-CPU profiles cannot tell these apart).
enum class ProfileThreadState : uint8_t {
  kIdle = 0,
  kRunning = 1,
  kPoolQueueWait = 2,
  kLockWait = 3,
};

/// Folded-frame name of a state ("running", "lock_wait", ...).
const char* ProfileThreadStateName(ProfileThreadState s);

/// Process-wide master switch. Tag pushes on hot paths are gated on this
/// single relaxed load (the CooperativeCheckpoint discipline: one
/// predictable branch when profiling is off). Owned by the Profiler —
/// everything else only reads it.
bool ProfilingEnabled();
void SetProfilingEnabled(bool enabled);

/// Per-thread profile slot: a fixed-depth, lock-free tag stack plus the
/// thread's current state. The owning thread is the only writer; the
/// sampler reads concurrently with acquire/relaxed atomics. A torn read
/// (sampler racing a push/pop) can attribute one sample to a stale frame —
/// tags are interned, never-freed strings, so the race costs one sample of
/// attribution noise, never a dangling pointer.
class ProfileThreadSlot {
 public:
  static constexpr size_t kMaxDepth = 48;

  /// Writer side (owning thread only). Pushes past kMaxDepth still count
  /// depth (so pops stay balanced); the sampler clamps and marks the
  /// sample truncated.
  void Push(const char* tag) {
    uint32_t d = depth_.load(std::memory_order_relaxed);
    if (d < kMaxDepth) frames_[d].store(tag, std::memory_order_relaxed);
    depth_.store(d + 1, std::memory_order_release);
  }
  void Pop() {
    uint32_t d = depth_.load(std::memory_order_relaxed);
    if (d > 0) depth_.store(d - 1, std::memory_order_release);
  }
  void SetState(ProfileThreadState s) {
    state_.store(static_cast<uint8_t>(s), std::memory_order_relaxed);
  }

  /// Sampler side: copies up to `cap` frames into `out`, returns the
  /// clamped frame count and the unclamped depth (for truncation marking).
  size_t SnapshotStack(const char** out, size_t cap, uint32_t* raw_depth) const {
    uint32_t d = depth_.load(std::memory_order_acquire);
    *raw_depth = d;
    size_t n = d < kMaxDepth ? d : kMaxDepth;
    if (n > cap) n = cap;
    for (size_t i = 0; i < n; ++i) {
      out[i] = frames_[i].load(std::memory_order_relaxed);
    }
    return n;
  }
  ProfileThreadState state() const {
    return static_cast<ProfileThreadState>(
        state_.load(std::memory_order_relaxed));
  }

 private:
  std::array<std::atomic<const char*>, kMaxDepth> frames_ = {};
  std::atomic<uint32_t> depth_{0};
  std::atomic<uint8_t> state_{static_cast<uint8_t>(ProfileThreadState::kIdle)};
};

/// Process-global registry of live thread slots. Threads register lazily
/// on first profiling touch (CurrentProfileSlot) and unregister at thread
/// exit; the sampler iterates under the registry mutex, so a slot can
/// never be destroyed mid-sample. Leaky singleton, so it survives static
/// destruction order.
class ProfileThreadRegistry {
 public:
  static ProfileThreadRegistry& Instance();

  void Register(ProfileThreadSlot* slot);
  void Unregister(ProfileThreadSlot* slot);

  /// Calls `fn` for every registered slot under the registry mutex.
  void ForEach(const std::function<void(const ProfileThreadSlot&)>& fn) const;

  size_t size() const;

 private:
  ProfileThreadRegistry() = default;
  mutable std::mutex mu_;
  std::vector<ProfileThreadSlot*> slots_;
};

/// The calling thread's slot, registering it on first use. Never null; the
/// slot stays registered until the thread exits.
ProfileThreadSlot* CurrentProfileSlot();

/// Interns `tag` into a process-global, never-freed table and returns the
/// canonical pointer. Spaces and semicolons (the folded format's two
/// metacharacters) are rewritten to '_'; empty input interns as "?". Use
/// for dynamic tags (stage names, pattern ops); string literals passed to
/// ProfileFrame directly need no interning.
const char* InternProfileTag(std::string_view tag);

/// RAII tag-stack frame. A null tag or disabled profiling makes it a
/// complete no-op; the push/pop decision is latched at construction, so a
/// profiler toggled mid-scope still pops exactly what it pushed.
class ProfileFrame {
 public:
  explicit ProfileFrame(const char* tag) {
    if (tag != nullptr && ProfilingEnabled()) {
      slot_ = CurrentProfileSlot();
      slot_->Push(tag);
    }
  }
  ~ProfileFrame() {
    if (slot_ != nullptr) slot_->Pop();
  }
  ProfileFrame(const ProfileFrame&) = delete;
  ProfileFrame& operator=(const ProfileFrame&) = delete;

 private:
  ProfileThreadSlot* slot_ = nullptr;
};

/// RAII thread-state transition, restoring the previous state on exit.
/// Used only at blocking boundaries (cv waits, contended lock slow paths),
/// so the unconditional relaxed stores cost nothing measurable.
class ProfileStateScope {
 public:
  explicit ProfileStateScope(ProfileThreadState s)
      : slot_(CurrentProfileSlot()), saved_(slot_->state()) {
    slot_->SetState(s);
  }
  ~ProfileStateScope() { slot_->SetState(saved_); }
  ProfileStateScope(const ProfileStateScope&) = delete;
  ProfileStateScope& operator=(const ProfileStateScope&) = delete;

 private:
  ProfileThreadSlot* slot_;
  ProfileThreadState saved_;
};

/// Lock-contention statistics for one mutex site, kept in plain atomics so
/// the rdf layer (which must not depend on obs) can host them. Buckets use
/// the exact power-of-two boundaries of obs Histogram — bucket i counts
/// waits in [2^(i-1), 2^i) ns — so Engine::MetricsSnapshot can inject a
/// WaitStats verbatim as a registry histogram. `count`/`sum_ns` cover only
/// *contended* acquisitions (the uncontended fast path never reads a
/// clock), and `contended` == `count` by construction; it is kept separate
/// so the `lock.*_contended_total` counter reads naturally.
struct WaitStats {
  static constexpr int kNumBuckets = 40;

  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum_ns{0};
  std::atomic<uint64_t> contended{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets = {};

  void RecordWait(uint64_t ns);

  /// Accumulates this site's stats into plain totals (for summing several
  /// sites, e.g. all graphs' index locks, before snapshot injection).
  struct Totals {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    uint64_t contended = 0;
    std::array<uint64_t, kNumBuckets> buckets = {};
  };
  void AddTo(Totals* totals) const;
};

}  // namespace rdfql

#endif  // RDFQL_UTIL_PROFILE_STATE_H_
