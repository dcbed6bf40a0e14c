#ifndef RDFQL_UTIL_LIMITS_H_
#define RDFQL_UTIL_LIMITS_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "util/status.h"

namespace rdfql {

class CancellationToken;
class ResourceAccountant;  // defined in obs/accounting.h

/// The per-thread governance context: which cancellation token the current
/// thread's cooperative checkpoints poll and which accountant its
/// mapping-set allocations report to. Thread-local, so concurrently running
/// queries on different threads are independently governed; ThreadPool
/// snapshots the calling thread's context into each batch it runs and
/// installs it on every thread that claims the batch's tasks, so pool
/// workers observe the coordinating thread's token and accountant for
/// exactly the duration of that batch.
struct ExecContext {
  CancellationToken* cancel = nullptr;
  ResourceAccountant* accountant = nullptr;
};

namespace internal {
/// Constant-initialized, so access is a plain TLS load with no init guard.
inline thread_local ExecContext tls_exec_context;
}  // namespace internal

/// The calling thread's governance context (mutable reference).
inline ExecContext& CurrentExecContext() {
  return internal::tls_exec_context;
}

/// Resource budgets for one query (or one translation pipeline). Every
/// field uses 0 as "unlimited", so a default-constructed ResourceLimits
/// enforces nothing and costs nothing.
struct ResourceLimits {
  /// Wall-clock budget from the start of the governed evaluation. Enforced
  /// cooperatively: the evaluators check at every operator and the kernels
  /// inside their loops (every 1,024 rows or probes in ⋈, ∖ and ⟕), so a
  /// runaway query stops soon after its budget, at any thread count.
  uint64_t max_wall_ms = 0;
  /// Cap on simultaneously live mappings across every intermediate set of
  /// the query (the ResourceAccountant's live_mappings figure).
  uint64_t max_live_mappings = 0;
  /// Cap on the approximate bytes of live mapping-set memory.
  uint64_t max_bytes = 0;
  /// Cap on the AST nodes a translation stage may materialize — the guard
  /// against the paper's double-exponential blowups (Thm 4.1, Thm 5.1).
  /// Stages pre-flight their output size and refuse before allocating.
  uint64_t max_ast_nodes = 0;

  bool Enforced() const {
    return (max_wall_ms | max_live_mappings | max_bytes | max_ast_nodes) != 0;
  }
};

/// A point on the steady clock after which work should stop. Default is
/// infinitely far away; copying is free (one integer).
class Deadline {
 public:
  Deadline() = default;

  /// `ms` from now. AfterMs(0) is already expired (useful in tests).
  static Deadline AfterMs(uint64_t ms);

  bool infinite() const { return ns_ == kInfiniteNs; }
  bool Expired() const;

  /// True when this deadline fires strictly before `other`.
  bool SoonerThan(const Deadline& other) const { return ns_ < other.ns_; }

 private:
  static constexpr uint64_t kInfiniteNs = ~0ull;

  uint64_t ns_ = kInfiniteNs;  // absolute steady-clock nanoseconds
};

/// A trip-once cancellation flag shared between the thread driving a query
/// and the pool workers evaluating its subtrees. Anyone may Cancel() it (an
/// operator deciding the deadline passed, the accountant seeing a cap
/// crossed, a watchdog acting on the in-flight registry, or an external
/// caller aborting the query); the first non-OK status latches and becomes
/// the query's error.
///
/// Like ResourceAccountant, the install point lives in the thread-local
/// ExecContext, so any number of governed queries may run concurrently —
/// one per coordinating thread — and ThreadPool hands each batch's workers
/// the coordinator's context (see docs/robustness.md).
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Trips the token. The first caller's status wins; later calls no-op.
  void Cancel(Status reason);

  bool cancelled() const { return tripped_.load(std::memory_order_acquire); }

  /// The latched reason; OK while not cancelled.
  Status status() const;

  /// Arms (or replaces) the deadline that Check() enforces.
  void ArmDeadline(Deadline deadline) { deadline_ = deadline; }

  /// The cooperative checkpoint: false once cancelled, tripping the token
  /// with kDeadlineExceeded first if the armed deadline has passed. Cost
  /// when armed: one atomic load plus one clock read.
  bool Check();

  /// The token installed for the current thread's scope, or null
  /// (ungoverned).
  static CancellationToken* Current() { return CurrentExecContext().cancel; }

 private:
  std::atomic<bool> tripped_{false};
  Deadline deadline_;  // written before workers start, read-only after
  mutable std::mutex mu_;
  Status reason_;  // guarded by mu_ until tripped_ is published
};

/// Installs a token for the enclosing scope on this thread, restoring the
/// previous one on destruction — the same idiom as ScopedAccounting. Null
/// uninstalls.
class ScopedCancellation {
 public:
  explicit ScopedCancellation(CancellationToken* token)
      : prev_(CurrentExecContext().cancel) {
    CurrentExecContext().cancel = token;
  }
  ~ScopedCancellation() { CurrentExecContext().cancel = prev_; }
  ScopedCancellation(const ScopedCancellation&) = delete;
  ScopedCancellation& operator=(const ScopedCancellation&) = delete;

 private:
  CancellationToken* prev_;
};

/// The one-liner the hot paths use: true when work may continue. With no
/// token installed — the ungoverned default — this is a thread-local load
/// and a null test.
inline bool CooperativeCheckpoint() {
  CancellationToken* token = CancellationToken::Current();
  return token == nullptr || token->Check();
}

}  // namespace rdfql

#endif  // RDFQL_UTIL_LIMITS_H_
