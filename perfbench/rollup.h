#ifndef RDFQL_PERFBENCH_ROLLUP_H_
#define RDFQL_PERFBENCH_ROLLUP_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/explain.h"

namespace perfbench {

/// The operator kinds, in the order the ledger prints them. Names come from
/// rdfql::PatternOpName, so the ledger and EXPLAIN share one vocabulary.
inline constexpr int kNumOps = 8;
const std::array<std::string, kNumOps>& OpNames();

/// Per-operator totals over every plan added to a PlanRollup.
struct OpTotals {
  uint64_t self_ns = 0;  // node wall time minus its children's
  uint64_t rows_out = 0;
  uint64_t join_probes = 0;
  uint64_t index_probes = 0;
  uint64_t ns_pairs_compared = 0;
  uint64_t filter_evals = 0;
};

/// One AND node's input sizes and the probes its join made.
struct JoinShape {
  uint64_t left = 0;
  uint64_t right = 0;
  uint64_t probes = 0;
  uint64_t pairs() const { return left * right; }
};

/// Rolls EXPLAIN ANALYZE plan trees up by operator kind. Self time is the
/// only timing used: it comes from the plan's own spans, not a second timer.
class PlanRollup {
 public:
  void Add(const rdfql::PlanNode& node);

  /// Totals for operator `op` (an entry of OpNames()).
  const OpTotals& op(int index) const { return ops_[index]; }

  /// A work counter summed over every operator kind.
  uint64_t CounterTotal(const std::string& name) const;

  /// Σ |left|·|right| over every AND node (the nested-loop pair count).
  uint64_t and_pairs() const { return and_pairs_; }
  /// The AND node with the most left×right pairs.
  const JoinShape& largest_and() const { return largest_and_; }

 private:
  std::array<OpTotals, kNumOps> ops_{};
  uint64_t and_pairs_ = 0;
  JoinShape largest_and_;
};

/// q-quantile (0 ≤ q ≤ 1) by nearest rank; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // RDFQL_PERFBENCH_ROLLUP_H_
