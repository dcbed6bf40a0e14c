#include "eval/explain.h"

#include "obs/tracer.h"
#include "util/check.h"
#include "util/string_util.h"

namespace rdfql {
namespace {

size_t Total(const PlanNode& node) {
  size_t n = node.cardinality;
  for (const auto& c : node.children) n += Total(*c);
  return n;
}

void Render(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.label + " [" + std::to_string(node.cardinality) + "]";
  *out += " (t=";
  *out += FormatNs(node.wall_ns);
  for (const auto& [name, value] : node.counters) {
    if (name == "mappings_out" || value == 0) continue;
    *out += " " + name + "=" + std::to_string(value);
  }
  *out += ")\n";
  for (const auto& c : node.children) Render(*c, depth + 1, out);
}

}  // namespace

uint64_t PlanNode::GetCounter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::unique_ptr<PlanNode> PlanFromSpan(const TraceSpan& span) {
  auto node = std::make_unique<PlanNode>();
  node->label =
      span.detail.empty() ? span.op : span.op + " " + span.detail;
  node->cardinality = span.GetCounter("mappings_out");
  node->wall_ns = span.duration_ns;
  node->counters = span.counters;
  for (const auto& child : span.children) {
    node->children.push_back(PlanFromSpan(*child));
  }
  return node;
}

size_t Explanation::TotalIntermediate() const {
  return plan == nullptr ? 0 : Total(*plan);
}

std::string Explanation::ToString() const {
  std::string out;
  if (plan != nullptr) Render(*plan, 0, &out);
  return out;
}

Explanation ExplainEval(const Graph& graph, const PatternPtr& pattern,
                        const Dictionary& dict, EvalOptions options) {
  RDFQL_CHECK(pattern != nullptr);
  Tracer tracer;
  options.tracer = &tracer;
  options.trace_dict = &dict;
  Evaluator evaluator(&graph, options);
  Explanation explanation;
  explanation.result = evaluator.Eval(pattern);
  RDFQL_CHECK(tracer.root() != nullptr);
  explanation.plan = PlanFromSpan(*tracer.root());
  return explanation;
}

}  // namespace rdfql
