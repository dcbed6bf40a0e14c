#include "util/profile_state.h"

#include <bit>
#include <string>
#include <unordered_set>

namespace rdfql {
namespace {

std::atomic<bool> g_profiling_enabled{false};

/// Registers the thread's slot on construction and removes it at thread
/// exit. Destruction order within a thread is irrelevant: the slot lives
/// inside this holder, and Unregister runs under the registry mutex, so
/// the sampler can never observe a destroyed slot.
struct SlotHolder {
  ProfileThreadSlot slot;
  SlotHolder() { ProfileThreadRegistry::Instance().Register(&slot); }
  ~SlotHolder() { ProfileThreadRegistry::Instance().Unregister(&slot); }
};

}  // namespace

const char* ProfileThreadStateName(ProfileThreadState s) {
  switch (s) {
    case ProfileThreadState::kIdle:
      return "idle";
    case ProfileThreadState::kRunning:
      return "running";
    case ProfileThreadState::kPoolQueueWait:
      return "pool_queue_wait";
    case ProfileThreadState::kLockWait:
      return "lock_wait";
  }
  return "unknown";
}

bool ProfilingEnabled() {
  return g_profiling_enabled.load(std::memory_order_relaxed);
}

void SetProfilingEnabled(bool enabled) {
  g_profiling_enabled.store(enabled, std::memory_order_relaxed);
}

ProfileThreadRegistry& ProfileThreadRegistry::Instance() {
  // Leaky on purpose: worker threads may unregister during static
  // destruction, after a function-local static would have been destroyed.
  static ProfileThreadRegistry* instance = new ProfileThreadRegistry();
  return *instance;
}

void ProfileThreadRegistry::Register(ProfileThreadSlot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(slot);
}

void ProfileThreadRegistry::Unregister(ProfileThreadSlot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == slot) {
      slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void ProfileThreadRegistry::ForEach(
    const std::function<void(const ProfileThreadSlot&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ProfileThreadSlot* slot : slots_) fn(*slot);
}

size_t ProfileThreadRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

ProfileThreadSlot* CurrentProfileSlot() {
  static thread_local SlotHolder holder;
  return &holder.slot;
}

const char* InternProfileTag(std::string_view tag) {
  std::string clean;
  clean.reserve(tag.size());
  for (char c : tag) {
    clean.push_back((c == ' ' || c == ';' || c == '\n') ? '_' : c);
  }
  if (clean.empty()) clean = "?";
  // Never-freed intern table: returned pointers must stay valid for the
  // life of the process (samples may be folded long after the tag's
  // creator is gone).
  static std::mutex* mu = new std::mutex();
  static std::unordered_set<std::string>* table =
      new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(*mu);
  return table->insert(std::move(clean)).first->c_str();
}

void WaitStats::RecordWait(uint64_t ns) {
  int bucket = ns == 0 ? 0 : 64 - std::countl_zero(ns);
  if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  buckets[static_cast<size_t>(bucket)].fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  sum_ns.fetch_add(ns, std::memory_order_relaxed);
  contended.fetch_add(1, std::memory_order_relaxed);
}

void WaitStats::AddTo(Totals* totals) const {
  totals->count += count.load(std::memory_order_relaxed);
  totals->sum_ns += sum_ns.load(std::memory_order_relaxed);
  totals->contended += contended.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    totals->buckets[static_cast<size_t>(i)] +=
        buckets[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
}

}  // namespace rdfql
