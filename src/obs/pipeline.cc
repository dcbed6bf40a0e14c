#include "obs/pipeline.h"

#include <cstdio>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace rdfql {
namespace {

void AppendShapeJson(const PatternShape& s, std::string* out) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"nodes\":%llu,\"vars\":%llu,\"union_width\":%llu}",
                static_cast<unsigned long long>(s.nodes),
                static_cast<unsigned long long>(s.vars),
                static_cast<unsigned long long>(s.union_width));
  *out += buf;
}

}  // namespace

void PipelineReport::AddStage(PipelineStage stage) {
  stages_.push_back(std::move(stage));
}

const PipelineStage* PipelineReport::Find(std::string_view name) const {
  for (const PipelineStage& s : stages_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

uint64_t PipelineReport::TotalNs() const {
  uint64_t total = 0;
  for (const PipelineStage& s : stages_) total += s.wall_ns;
  return total;
}

bool PipelineReport::AllOk() const {
  for (const PipelineStage& s : stages_) {
    if (!s.ok) return false;
  }
  return true;
}

std::string PipelineReport::ToText() const {
  std::string out;
  char buf[160];
  for (const PipelineStage& s : stages_) {
    out += s.name;
    out += "  ";
    out += FormatNs(s.wall_ns);
    if (!s.ok) {
      out += "  FAILED: " + s.error;
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  nodes %llu -> %llu (x%.2f)  vars %llu -> %llu"
                    "  width %llu -> %llu",
                    static_cast<unsigned long long>(s.in.nodes),
                    static_cast<unsigned long long>(s.out.nodes),
                    s.NodeBlowup(),
                    static_cast<unsigned long long>(s.in.vars),
                    static_cast<unsigned long long>(s.out.vars),
                    static_cast<unsigned long long>(s.in.union_width),
                    static_cast<unsigned long long>(s.out.union_width));
      out += buf;
    }
    if (!s.detail.empty()) {
      out += "  [";
      out += s.detail;
      out += "]";
    }
    out += "\n";
  }
  return out;
}

std::string PipelineReport::ToJson() const {
  std::string out = "{\"total_ns\":";
  out += std::to_string(TotalNs());
  out += ",\"stages\":[";
  bool first = true;
  char buf[64];
  for (const PipelineStage& s : stages_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(s.name, &out);
    out += "\",\"wall_ns\":";
    out += std::to_string(s.wall_ns);
    out += ",\"ok\":";
    out += s.ok ? "true" : "false";
    if (!s.detail.empty()) {
      out += ",\"detail\":\"";
      AppendJsonEscaped(s.detail, &out);
      out += "\"";
    }
    if (!s.ok) {
      out += ",\"error\":\"";
      AppendJsonEscaped(s.error, &out);
      out += "\"";
    }
    out += ",\"in\":";
    AppendShapeJson(s.in, &out);
    out += ",\"out\":";
    AppendShapeJson(s.out, &out);
    std::snprintf(buf, sizeof(buf), ",\"node_blowup\":%.6g}", s.NodeBlowup());
    out += buf;
  }
  out += "]}";
  return out;
}

ScopedStage::ScopedStage(PipelineReport* report, std::string name,
                         PatternShape in)
    : report_(report),
      profile_frame_(report != nullptr && ProfilingEnabled()
                         ? InternProfileTag(name)
                         : nullptr) {
  if (report_ == nullptr) return;
  stage_.name = std::move(name);
  stage_.in = in;
  start_ns_ = SteadyNowNs();
  if (Tracer* tracer = report_->tracer()) {
    // The span nests naturally: an instrumented transform that calls
    // another instrumented transform opens the inner span inside this one.
    span_ = tracer->StartSpan("STAGE", stage_.name);
  }
}

ScopedStage::~ScopedStage() {
  if (report_ == nullptr) return;
  stage_.wall_ns = SteadyNowNs() - start_ns_;
  if (span_ != nullptr) {
    span_->AddCounter("nodes_in", stage_.in.nodes);
    span_->AddCounter("nodes_out", stage_.out.nodes);
    span_->AddCounter("union_width_out", stage_.out.union_width);
    report_->tracer()->EndSpan(span_);
  }
  report_->AddStage(std::move(stage_));
}

}  // namespace rdfql
