#include "rollup.h"

#include <algorithm>
#include <cmath>

#include "eval/evaluator.h"

namespace perfbench {

namespace {

constexpr rdfql::PatternKind kKinds[kNumOps] = {
    rdfql::PatternKind::kTriple, rdfql::PatternKind::kAnd,
    rdfql::PatternKind::kUnion,  rdfql::PatternKind::kOpt,
    rdfql::PatternKind::kFilter, rdfql::PatternKind::kSelect,
    rdfql::PatternKind::kNs,     rdfql::PatternKind::kMinus,
};

// Index of a plan label's operator ("TRIPLE (?x p ?y)" -> TRIPLE), or -1.
int OpIndex(const std::string& label) {
  std::string op = label.substr(0, label.find(' '));
  const auto& names = OpNames();
  for (int i = 0; i < kNumOps; ++i) {
    if (names[i] == op) return i;
  }
  return -1;
}

}  // namespace

const std::array<std::string, kNumOps>& OpNames() {
  static const std::array<std::string, kNumOps> names = [] {
    std::array<std::string, kNumOps> out;
    for (int i = 0; i < kNumOps; ++i) out[i] = rdfql::PatternOpName(kKinds[i]);
    return out;
  }();
  return names;
}

void PlanRollup::Add(const rdfql::PlanNode& node) {
  uint64_t children_ns = 0;
  for (const auto& child : node.children) {
    children_ns += child->wall_ns;
    Add(*child);
  }
  int index = OpIndex(node.label);
  if (index < 0) return;
  OpTotals& t = ops_[index];
  t.self_ns += node.wall_ns > children_ns ? node.wall_ns - children_ns : 0;
  t.rows_out += node.cardinality;
  t.join_probes += node.GetCounter("join_probes");
  t.index_probes += node.GetCounter("index_probes");
  t.ns_pairs_compared += node.GetCounter("ns_pairs_compared");
  t.filter_evals += node.GetCounter("filter_evals");
  if (OpNames()[index] == "AND" && node.children.size() == 2) {
    JoinShape shape{node.children[0]->cardinality,
                    node.children[1]->cardinality,
                    node.GetCounter("join_probes")};
    and_pairs_ += shape.pairs();
    if (shape.pairs() >= largest_and_.pairs()) largest_and_ = shape;
  }
}

uint64_t PlanRollup::CounterTotal(const std::string& name) const {
  uint64_t total = 0;
  for (const OpTotals& t : ops_) {
    if (name == "join_probes") total += t.join_probes;
    if (name == "index_probes") total += t.index_probes;
    if (name == "ns_pairs_compared") total += t.ns_pairs_compared;
    if (name == "filter_evals") total += t.filter_evals;
  }
  return total;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[rank == 0 ? 0 : rank - 1];
}

}  // namespace perfbench
