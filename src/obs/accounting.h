#ifndef RDFQL_OBS_ACCOUNTING_H_
#define RDFQL_OBS_ACCOUNTING_H_

#include <atomic>
#include <cstdint>

#include "util/limits.h"

namespace rdfql {

/// Tracks the mapping-set memory of one query: live and peak mapping counts
/// and approximate bytes, plus cumulative totals. MappingSet (and the NS
/// kernel's transient scratch) report allocations to whichever accountant
/// is installed via ScopedAccounting; with none installed — the common,
/// unobserved path — an insert pays one thread-local load and a branch.
///
/// A MappingSet reports in batches: one OnAdd per
/// MappingSet::kAccountingBatch rows it inserts, one when the operator that
/// built it returns it, and one before it gives its memory back. The live
/// and peak figures are therefore exact at every operator boundary, and
/// while a set is being filled they lag by fewer than kAccountingBatch rows
/// for that set. Armed caps are checked at each OnAdd, i.e. at each batch.
///
/// The install point lives in the thread-local ExecContext (util/limits.h):
/// each coordinating thread installs its own accountant, so concurrent
/// queries are counted independently, and ThreadPool installs the
/// coordinator's context on every worker that claims a batch's tasks,
/// so concurrently evaluated subtrees still report to the right accountant.
///
/// Epochs: a MappingSet that outlives the accountant's Reset must not
/// decrement counts it never incremented against the new epoch. Sets latch
/// (accountant, epoch) on first insert, compare the epoch at each report,
/// and silently stop reporting once it changed.
class ResourceAccountant {
 public:
  ResourceAccountant() = default;
  ResourceAccountant(const ResourceAccountant&) = delete;
  ResourceAccountant& operator=(const ResourceAccountant&) = delete;

  void OnAdd(uint64_t mappings, uint64_t bytes) {
    uint64_t live_m =
        live_mappings_.fetch_add(mappings, std::memory_order_relaxed) +
        mappings;
    uint64_t live_b =
        live_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    total_mappings_.fetch_add(mappings, std::memory_order_relaxed);
    total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    RaiseMax(&peak_mappings_, live_m);
    RaiseMax(&peak_bytes_, live_b);
    CancellationToken* token = cap_token_.load(std::memory_order_relaxed);
    if (token != nullptr) [[unlikely]] {
      MaybeTripCaps(live_m, live_b, token);
    }
  }

  void OnRemove(uint64_t mappings, uint64_t bytes) {
    live_mappings_.fetch_sub(mappings, std::memory_order_relaxed);
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t live_mappings() const {
    return live_mappings_.load(std::memory_order_relaxed);
  }
  uint64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t peak_mappings() const {
    return peak_mappings_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t total_mappings() const {
    return total_mappings_.load(std::memory_order_relaxed);
  }
  uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  /// Zeroes all counts and advances the epoch, so sets surviving from
  /// before the reset stop reporting against the fresh numbers.
  void Reset() {
    live_mappings_.store(0, std::memory_order_relaxed);
    live_bytes_.store(0, std::memory_order_relaxed);
    peak_mappings_.store(0, std::memory_order_relaxed);
    peak_bytes_.store(0, std::memory_order_relaxed);
    total_mappings_.store(0, std::memory_order_relaxed);
    total_bytes_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Turns the passive accountant into an enforcer: once armed, any OnAdd
  /// (a batch of rows, see above) that pushes the live figures past a
  /// non-zero cap cancels `token` with kResourceExhausted. Arm before
  /// evaluation starts (the fields are read concurrently by pool workers but
  /// only written here); disarm after.
  void ArmCaps(uint64_t max_live_mappings, uint64_t max_live_bytes,
               CancellationToken* token) {
    cap_mappings_.store(max_live_mappings, std::memory_order_relaxed);
    cap_bytes_.store(max_live_bytes, std::memory_order_relaxed);
    cap_token_.store(token, std::memory_order_relaxed);
  }
  void DisarmCaps() { cap_token_.store(nullptr, std::memory_order_relaxed); }

  /// The accountant installed on this thread, or null (the uncounted case).
  static ResourceAccountant* Current() {
    return CurrentExecContext().accountant;
  }

 private:
  static void RaiseMax(std::atomic<uint64_t>* target, uint64_t candidate) {
    uint64_t seen = target->load(std::memory_order_relaxed);
    while (candidate > seen &&
           !target->compare_exchange_weak(seen, candidate,
                                          std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> live_mappings_{0};
  std::atomic<uint64_t> live_bytes_{0};
  std::atomic<uint64_t> peak_mappings_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> total_mappings_{0};
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<uint64_t> epoch_{0};

  /// Cold path of the cap check (out of line to keep OnAdd tiny).
  void MaybeTripCaps(uint64_t live_mappings, uint64_t live_bytes,
                     CancellationToken* token);

  std::atomic<uint64_t> cap_mappings_{0};
  std::atomic<uint64_t> cap_bytes_{0};
  std::atomic<CancellationToken*> cap_token_{nullptr};
};

/// Installs an accountant for the enclosing scope on this thread, restoring
/// the previous one on destruction. Null is a valid argument (uninstalls
/// for the scope).
class ScopedAccounting {
 public:
  explicit ScopedAccounting(ResourceAccountant* acct)
      : prev_(CurrentExecContext().accountant) {
    CurrentExecContext().accountant = acct;
  }
  ~ScopedAccounting() { CurrentExecContext().accountant = prev_; }
  ScopedAccounting(const ScopedAccounting&) = delete;
  ScopedAccounting& operator=(const ScopedAccounting&) = delete;

 private:
  ResourceAccountant* prev_;
};

}  // namespace rdfql

#endif  // RDFQL_OBS_ACCOUNTING_H_
