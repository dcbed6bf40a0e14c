#include "obs/tracer.h"

#include <cstdio>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace rdfql {
namespace {

void RenderTree(const TraceSpan& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += span.op;
  if (!span.detail.empty()) *out += " " + span.detail;
  *out += " t=" + FormatNs(span.duration_ns);
  for (const auto& [name, value] : span.counters) {
    *out += " " + name + "=" + std::to_string(value);
  }
  *out += "\n";
  for (const auto& child : span.children) {
    RenderTree(*child, depth + 1, out);
  }
}

void RenderChromeEvent(const TraceSpan& span, bool* first, std::string* out) {
  if (!*first) *out += ",\n";
  *first = false;
  // A complete event ("ph":"X"); ts/dur are in microseconds per the format.
  *out += "{\"name\":\"";
  AppendJsonEscaped(span.op, out);
  if (!span.detail.empty()) {
    *out += " ";
    AppendJsonEscaped(span.detail, out);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\",\"cat\":\"eval\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"pid\":1,\"tid\":1",
                static_cast<double>(span.start_ns) / 1e3,
                static_cast<double>(span.duration_ns) / 1e3);
  *out += buf;
  if (!span.counters.empty()) {
    *out += ",\"args\":{";
    bool cfirst = true;
    for (const auto& [name, value] : span.counters) {
      if (!cfirst) *out += ",";
      cfirst = false;
      *out += "\"";
      AppendJsonEscaped(name, out);
      *out += "\":" + std::to_string(value);
    }
    *out += "}";
  }
  *out += "}";
  for (const auto& child : span.children) {
    RenderChromeEvent(*child, first, out);
  }
}

}  // namespace

void TraceSpan::AddCounter(std::string_view name, uint64_t delta) {
  for (auto& [n, v] : counters) {
    if (n == name) {
      v += delta;
      return;
    }
  }
  counters.emplace_back(std::string(name), delta);
}

uint64_t TraceSpan::GetCounter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

void OpCounters::MergeFrom(const OpCounters& other) {
  join_probes += other.join_probes;
  index_probes += other.index_probes;
  ns_pairs_compared += other.ns_pairs_compared;
  filter_evals += other.filter_evals;
  mappings_out += other.mappings_out;
}

void OpCounters::AttachTo(ScopedSpan* span) const {
  span->AddCounter("join_probes", join_probes);
  span->AddCounter("index_probes", index_probes);
  span->AddCounter("ns_pairs_compared", ns_pairs_compared);
  span->AddCounter("filter_evals", filter_evals);
  span->AddCounter("mappings_out", mappings_out);
}

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceSpan* Tracer::StartSpan(std::string op, std::string detail) {
  auto span = std::make_unique<TraceSpan>();
  span->op = std::move(op);
  span->detail = std::move(detail);
  span->start_ns = NowNs();
  TraceSpan* raw = span.get();
  if (open_.empty()) {
    roots_.push_back(std::move(span));
  } else {
    open_.back()->children.push_back(std::move(span));
  }
  open_.push_back(raw);
  return raw;
}

void Tracer::EndSpan(TraceSpan* span) {
  // Tolerate out-of-order ends (e.g. a moved-from guard) by unwinding to
  // the given span; in correct RAII usage the loop body runs once.
  while (!open_.empty()) {
    TraceSpan* top = open_.back();
    open_.pop_back();
    top->duration_ns = NowNs() - top->start_ns;
    if (top == span) break;
  }
}

std::string Tracer::ToTreeString() const {
  std::string out;
  for (const auto& root : roots_) RenderTree(*root, 0, &out);
  return out;
}

std::string Tracer::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& root : roots_) RenderChromeEvent(*root, &first, &out);
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace rdfql
