#ifndef RDFQL_OBS_INFLIGHT_H_
#define RDFQL_OBS_INFLIGHT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/accounting.h"
#include "util/limits.h"
#include "util/status.h"

namespace rdfql {

/// Where a registered query currently is. Updated at the engine's existing
/// phase boundaries (parse -> eval -> finish), so the registry shows "what
/// is this query doing" without new instrumentation inside the kernels.
enum class QueryPhase {
  kStarting = 0,
  kParsing,
  kEvaluating,
  kFinishing,
};

/// Short lowercase names for display, indexed by QueryPhase.
inline constexpr const char* kQueryPhaseNames[] = {"start", "parse", "eval",
                                                   "finish"};

/// kQueryPhaseNames[phase] ("parse", "eval", ...).
const char* QueryPhaseName(QueryPhase phase);

/// One row of an InflightSnapshot: the registry slot's identity plus live
/// figures read at snapshot time. Plain data, safe to hold after the query
/// finishes.
struct InflightQueryInfo {
  size_t slot = 0;
  uint64_t generation = 0;
  uint64_t correlation_id = 0;
  uint64_t query_hash = 0;
  std::string graph;
  std::string query;     // truncated to kMaxStoredQueryBytes
  std::string fragment;  // DescribeFragment(), set once parsed
  QueryPhase phase = QueryPhase::kStarting;
  uint64_t start_unix_ms = 0;
  uint64_t wall_ns = 0;  // elapsed at snapshot time
  uint64_t live_mappings = 0;
  uint64_t live_bytes = 0;
  uint64_t peak_bytes = 0;
  int threads = 1;
  bool watchdog_cancelled = false;

  /// Its JSON object in a telemetry snapshot (obs/json_util.h).
  template <class Self, class V>
  static void Fields(Self& q, V& v) {
    v("slot", q.slot);
    v("generation", q.generation);
    v("id", q.correlation_id);
    v("hash", q.query_hash);
    v("graph", q.graph);
    v("query", q.query);
    v("fragment", q.fragment);
    v.Enum("phase", q.phase, kQueryPhaseNames);
    v("start_unix_ms", q.start_unix_ms);
    v("wall_ns", q.wall_ns);
    v("live_mappings", q.live_mappings);
    v("live_bytes", q.live_bytes);
    v("peak_bytes", q.peak_bytes);
    v("threads", q.threads);
    v("watchdog_cancelled", q.watchdog_cancelled);
  }
};

/// A point-in-time view of the registry. Each row is internally consistent
/// (captured under its slot's mutex); rows are captured independently, so
/// the snapshot is a per-query-consistent sweep, not a global barrier.
struct InflightSnapshot {
  uint64_t unix_ms = 0;
  uint64_t registered_total = 0;
  uint64_t watchdog_cancelled_total = 0;
  std::vector<InflightQueryInfo> queries;

  /// Aligned `ps`-style table for the shell's `.ps` command and rdfql_top.
  std::string ToText() const;

  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("unix_ms", s.unix_ms);
    v("registered_total", s.registered_total);
    v("watchdog_cancelled_total", s.watchdog_cancelled_total);
    v("queries", s.queries);
  }
};

class InflightRegistry;

/// One registry slot. The engine talks to the slot it was handed (phase
/// updates, the slot-owned accountant/token); the watchdog reaches slots
/// only through InflightRegistry::WatchdogCancel, which revalidates the
/// generation under the slot mutex.
class InflightSlot {
 public:
  InflightSlot() = default;
  InflightSlot(const InflightSlot&) = delete;
  InflightSlot& operator=(const InflightSlot&) = delete;

  /// Phase transitions are relaxed atomics: the query thread writes, the
  /// snapshot thread reads, and a torn-free int is all consistency needs.
  void SetPhase(QueryPhase phase) {
    phase_.store(static_cast<int>(phase), std::memory_order_relaxed);
  }
  void SetCorrelationId(uint64_t id) {
    correlation_id_.store(id, std::memory_order_relaxed);
  }
  void SetThreads(int threads) {
    threads_.store(threads, std::memory_order_relaxed);
  }
  /// Set once the pattern is parsed and classified (locks the slot).
  void SetFragment(std::string_view fragment);

  /// The slot-owned accountant, Reset() on registration. Wire it into
  /// EvalOptions so the snapshot's live bytes/mappings track the query.
  ResourceAccountant* accountant() { return &accountant_; }
  /// The slot-owned token, fresh on registration. Wire it into EvalOptions
  /// so the watchdog can cancel the query. Valid until the slot is
  /// re-registered, which cannot happen before Unregister.
  CancellationToken* token() { return token_.get(); }

  /// True once the watchdog cancelled this registration — how the engine
  /// distinguishes a `watchdog_cancelled` outcome from an ordinary
  /// kCancelled without inventing a status code or parsing messages.
  bool watchdog_cancelled() const {
    return watchdog_cancelled_.load(std::memory_order_relaxed);
  }

 private:
  friend class InflightRegistry;

  /// Lock-free claim flag: Register scans with a CAS, Unregister releases.
  std::atomic<bool> claimed_{false};
  mutable std::mutex mu_;
  bool active_ = false;       // guarded by mu_
  uint64_t generation_ = 0;   // guarded by mu_; bumped on each Register
  std::string graph_;         // guarded by mu_
  std::string query_;         // guarded by mu_
  std::string fragment_;      // guarded by mu_
  uint64_t start_unix_ms_ = 0;   // guarded by mu_
  uint64_t start_steady_ns_ = 0; // guarded by mu_
  std::atomic<uint64_t> correlation_id_{0};
  std::atomic<uint64_t> query_hash_{0};
  std::atomic<int> phase_{0};
  std::atomic<int> threads_{1};
  std::atomic<bool> watchdog_cancelled_{false};
  ResourceAccountant accountant_;
  std::unique_ptr<CancellationToken> token_;  // replaced under mu_
};

/// The in-flight query registry: a fixed array of slots with lock-cheap
/// registration (one CAS to claim, one short slot-lock to initialize) and a
/// consistent Snapshot(). When every slot is busy Register returns null and
/// the query simply runs unmonitored — registration is observability, never
/// admission control.
class InflightRegistry {
 public:
  static constexpr size_t kMaxSlots = 64;
  /// Queries longer than this are truncated in the registry (the query log
  /// still records the full text).
  static constexpr size_t kMaxStoredQueryBytes = 256;

  InflightRegistry() = default;
  InflightRegistry(const InflightRegistry&) = delete;
  InflightRegistry& operator=(const InflightRegistry&) = delete;

  /// Claims a slot, resets its accountant, installs a fresh token, and
  /// returns it — or null when all slots are busy.
  InflightSlot* Register(std::string_view graph, std::string_view query,
                         uint64_t query_hash);
  void Unregister(InflightSlot* slot);

  InflightSnapshot Snapshot() const;

  /// Cancels the registration identified by (slot index, generation) with
  /// `reason`, marking it watchdog-cancelled. Returns false when the
  /// registration already ended (stale generation) — the reuse-safe way for
  /// a watchdog acting on an older Snapshot.
  bool WatchdogCancel(size_t slot_index, uint64_t generation, Status reason);

  size_t active() const { return active_.load(std::memory_order_relaxed); }
  uint64_t registered_total() const {
    return registered_total_.load(std::memory_order_relaxed);
  }
  uint64_t watchdog_cancelled_total() const {
    return watchdog_cancelled_total_.load(std::memory_order_relaxed);
  }

 private:
  std::array<InflightSlot, kMaxSlots> slots_;
  std::atomic<size_t> active_{0};
  std::atomic<size_t> next_hint_{0};  // round-robin scan start
  std::atomic<uint64_t> registered_total_{0};
  std::atomic<uint64_t> watchdog_cancelled_total_{0};
};

/// RAII registration used by the engine's query lifecycle, one per query.
/// Construction with a null registry is a no-op (monitoring disabled).
class InflightScope {
 public:
  InflightScope(InflightRegistry* registry, std::string_view graph,
                std::string_view query, uint64_t query_hash);
  ~InflightScope();
  InflightScope(const InflightScope&) = delete;
  InflightScope& operator=(const InflightScope&) = delete;

  /// The registered slot; null when monitoring is off or the registry was
  /// full.
  InflightSlot* slot() const { return slot_; }

 private:
  InflightRegistry* registry_ = nullptr;
  InflightSlot* slot_ = nullptr;
};

}  // namespace rdfql

#endif  // RDFQL_OBS_INFLIGHT_H_
