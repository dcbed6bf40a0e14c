#include "bench_reporting.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string_view>

#include "obs/metrics.h"

// Stamped into every emitted BENCH_*.json; the build provides both via
// target_compile_definitions (see bench/CMakeLists.txt).
#ifndef RDFQL_GIT_SHA
#define RDFQL_GIT_SHA "unknown"
#endif
#ifndef RDFQL_BUILD_TYPE
#define RDFQL_BUILD_TYPE "unknown"
#endif

namespace rdfql {
namespace bench {
namespace {

std::string IsoTimestampUtc() {
  std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

void AppendDouble(double v, std::string* out) {
  char buf[40];
  // Enough digits to round-trip timings; integers print exactly.
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

bool IsInteger(std::string_view s) {
  if (s.empty()) return false;
  size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// Collects finished runs for the JSON document while delegating the usual
/// console rendering to the base class.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(std::vector<BenchCase>* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred ||
          r.report_big_o || r.report_rms) {
        continue;
      }
      BenchCase c;
      c.name = r.benchmark_name();
      std::string_view rest = c.name;
      size_t slash = rest.find('/');
      c.family = std::string(rest.substr(0, slash));
      while (slash != std::string_view::npos) {
        rest = rest.substr(slash + 1);
        slash = rest.find('/');
        std::string_view seg = rest.substr(0, slash);
        if (IsInteger(seg)) {
          c.args.push_back(std::strtoll(std::string(seg).c_str(), nullptr, 10));
        }
      }
      c.iterations = static_cast<int64_t>(r.iterations);
      double iters = r.iterations == 0 ? 1.0 : static_cast<double>(r.iterations);
      c.real_ns = r.real_accumulated_time / iters * 1e9;
      c.cpu_ns = r.cpu_accumulated_time / iters * 1e9;
      for (const auto& [name, counter] : r.counters) {
        c.counters.emplace_back(name, static_cast<double>(counter));
      }
      sink_->push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  std::vector<BenchCase>* sink_;
};

// --- A minimal JSON reader for the validator (objects, arrays, strings,
// numbers, bools, null — no surrogate handling; our emitters stay ASCII).

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    bool ok = ParseValue(out) && (SkipWs(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = "JSON parse error near offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->obj.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->arr.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out->push_back(esc);
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
          case 'f':
            out->push_back(' ');
            break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;  // keep validation simple: skip the code point
            out->push_back('?');
            break;
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                              nullptr);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Metrics attached to cases by name while the benchmark runs; folded into
/// the emitted document by BenchMain.
std::map<std::string, std::vector<std::pair<std::string, double>>>&
CaseMetricsStore() {
  static std::map<std::string, std::vector<std::pair<std::string, double>>>
      store;
  return store;
}

}  // namespace

void SetCaseMetrics(const std::string& case_name,
                    const RegistrySnapshot& snapshot) {
  std::vector<std::pair<std::string, double>> flat;
  for (const auto& [name, value] : snapshot.counters) {
    flat.emplace_back(name, static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    flat.emplace_back(name, static_cast<double>(value));
  }
  for (const auto& [name, h] : snapshot.histograms) {
    flat.emplace_back(name + ".count", static_cast<double>(h.count));
    flat.emplace_back(name + ".sum", static_cast<double>(h.sum));
    flat.emplace_back(name + ".p50", h.Percentile(0.5));
    flat.emplace_back(name + ".p90", h.Percentile(0.9));
    flat.emplace_back(name + ".p99", h.Percentile(0.99));
  }
  CaseMetricsStore()[case_name] = std::move(flat);
}

void AddCaseMetric(const std::string& case_name, const std::string& metric,
                   double value) {
  auto& flat = CaseMetricsStore()[case_name];
  for (auto& [name, v] : flat) {
    if (name == metric) {
      v = value;
      return;
    }
  }
  flat.emplace_back(metric, value);
}

std::string RenderBenchJson(const std::string& bench_name,
                            const std::vector<BenchCase>& cases) {
  std::string out = "{\"schema\":\"";
  out += kBenchJsonSchema;
  out += "\",\"bench\":\"";
  AppendJsonEscaped(bench_name, &out);
  out += "\",\"git_sha\":\"";
  AppendJsonEscaped(RDFQL_GIT_SHA, &out);
  out += "\",\"build_type\":\"";
  AppendJsonEscaped(RDFQL_BUILD_TYPE, &out);
  out += "\",\"timestamp\":\"";
  AppendJsonEscaped(IsoTimestampUtc(), &out);
  out += "\",\"cases\":[\n";
  bool first = true;
  for (const BenchCase& c : cases) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"name\":\"";
    AppendJsonEscaped(c.name, &out);
    out += "\",\"family\":\"";
    AppendJsonEscaped(c.family, &out);
    out += "\",\"args\":[";
    for (size_t i = 0; i < c.args.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(c.args[i]);
    }
    out += "],\"iterations\":" + std::to_string(c.iterations) +
           ",\"real_ns\":";
    AppendDouble(c.real_ns, &out);
    out += ",\"cpu_ns\":";
    AppendDouble(c.cpu_ns, &out);
    out += ",\"threads\":" + std::to_string(c.threads);
    out += ",\"counters\":{";
    for (size_t i = 0; i < c.counters.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      AppendJsonEscaped(c.counters[i].first, &out);
      out += "\":";
      AppendDouble(c.counters[i].second, &out);
    }
    out += "},\"metrics\":{";
    for (size_t i = 0; i < c.metrics.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"";
      AppendJsonEscaped(c.metrics[i].first, &out);
      out += "\":";
      AppendDouble(c.metrics[i].second, &out);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool ParseBenchJson(const std::string& json, ParsedBenchDoc* out,
                    std::string* error) {
  out->schema.clear();
  out->bench.clear();
  out->cases.clear();
  JsonValue root;
  JsonParser parser(json);
  if (!parser.Parse(&root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
    return Fail(error, "top level is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString ||
      (schema->str != kBenchJsonSchema &&
       schema->str != kBenchJsonSchemaV2)) {
    return Fail(error, std::string("missing or wrong \"schema\" (want ") +
                           kBenchJsonSchema + " or " + kBenchJsonSchemaV2 +
                           ")");
  }
  out->schema = schema->str;
  const JsonValue* bench = root.Find("bench");
  if (bench == nullptr || bench->type != JsonValue::Type::kString ||
      bench->str.empty()) {
    return Fail(error, "missing \"bench\" name");
  }
  out->bench = bench->str;
  // The provenance stamp is mandatory from v3 on; v2 baselines predate it.
  for (const auto& [key, field] :
       {std::pair<const char*, std::string*>{"git_sha", &out->git_sha},
        {"build_type", &out->build_type},
        {"timestamp", &out->timestamp}}) {
    const JsonValue* v = root.Find(key);
    if (v != nullptr && v->type == JsonValue::Type::kString) {
      *field = v->str;
    } else if (out->schema == kBenchJsonSchema) {
      return Fail(error, std::string("missing \"") + key + "\" stamp");
    }
  }
  const JsonValue* cases = root.Find("cases");
  if (cases == nullptr || cases->type != JsonValue::Type::kArray) {
    return Fail(error, "missing \"cases\" array");
  }
  if (cases->arr.empty()) return Fail(error, "\"cases\" is empty");

  for (size_t i = 0; i < cases->arr.size(); ++i) {
    const JsonValue& c = cases->arr[i];
    std::string at = "case " + std::to_string(i) + ": ";
    if (c.type != JsonValue::Type::kObject) {
      return Fail(error, at + "not an object");
    }
    BenchCase parsed;
    const JsonValue* name = c.Find("name");
    if (name == nullptr || name->type != JsonValue::Type::kString ||
        name->str.empty()) {
      return Fail(error, at + "missing \"name\"");
    }
    parsed.name = name->str;
    at = "case \"" + name->str + "\": ";
    const JsonValue* family = c.Find("family");
    if (family == nullptr || family->type != JsonValue::Type::kString ||
        family->str.empty()) {
      return Fail(error, at + "missing \"family\"");
    }
    parsed.family = family->str;
    const JsonValue* args = c.Find("args");
    if (args == nullptr || args->type != JsonValue::Type::kArray) {
      return Fail(error, at + "missing \"args\"");
    }
    for (const JsonValue& a : args->arr) {
      if (a.type != JsonValue::Type::kNumber) {
        return Fail(error, at + "non-numeric arg");
      }
      parsed.args.push_back(static_cast<int64_t>(a.number));
    }
    const JsonValue* iterations = c.Find("iterations");
    if (iterations == nullptr ||
        iterations->type != JsonValue::Type::kNumber ||
        iterations->number <= 0) {
      return Fail(error, at + "missing or non-positive \"iterations\"");
    }
    parsed.iterations = static_cast<int64_t>(iterations->number);
    const JsonValue* real_ns = c.Find("real_ns");
    if (real_ns == nullptr || real_ns->type != JsonValue::Type::kNumber ||
        real_ns->number < 0) {
      return Fail(error, at + "missing or negative \"real_ns\"");
    }
    parsed.real_ns = real_ns->number;
    const JsonValue* cpu_ns = c.Find("cpu_ns");
    if (cpu_ns == nullptr || cpu_ns->type != JsonValue::Type::kNumber) {
      return Fail(error, at + "missing \"cpu_ns\"");
    }
    parsed.cpu_ns = cpu_ns->number;
    const JsonValue* threads = c.Find("threads");
    if (threads == nullptr || threads->type != JsonValue::Type::kNumber ||
        threads->number < 1) {
      return Fail(error, at + "missing or non-positive \"threads\"");
    }
    parsed.threads = static_cast<int>(threads->number);
    const JsonValue* counters = c.Find("counters");
    if (counters == nullptr || counters->type != JsonValue::Type::kObject) {
      return Fail(error, at + "missing \"counters\" object");
    }
    for (const auto& [cname, cvalue] : counters->obj) {
      if (cvalue.type != JsonValue::Type::kNumber) {
        return Fail(error, at + "counter \"" + cname + "\" not numeric");
      }
      parsed.counters.emplace_back(cname, cvalue.number);
    }
    const JsonValue* metrics = c.Find("metrics");
    if (metrics == nullptr || metrics->type != JsonValue::Type::kObject) {
      return Fail(error, at + "missing \"metrics\" object");
    }
    for (const auto& [mname, mvalue] : metrics->obj) {
      if (mvalue.type != JsonValue::Type::kNumber) {
        return Fail(error, at + "metric \"" + mname + "\" not numeric");
      }
      parsed.metrics.emplace_back(mname, mvalue.number);
    }
    out->cases.push_back(std::move(parsed));
  }
  return true;
}

bool ValidateBenchJson(const std::string& json, bool expect_growth,
                       std::string* error) {
  ParsedBenchDoc doc;
  if (!ParseBenchJson(json, &doc, error)) return false;
  if (!expect_growth) return true;

  // family -> (arg, work count), only for single-argument cases.
  std::map<std::string, std::vector<std::pair<int64_t, double>>> by_family;
  for (const BenchCase& c : doc.cases) {
    if (c.args.size() != 1) continue;
    auto work = std::find_if(
        c.counters.begin(), c.counters.end(),
        [](const auto& counter) { return counter.first == kGrowthCounter; });
    if (work == c.counters.end()) {
      return Fail(error, "case \"" + c.name + "\": no \"" +
                             kGrowthCounter + "\" counter to check growth on");
    }
    by_family[c.family].emplace_back(c.args[0], work->second);
  }

  for (auto& [family, points] : by_family) {
    std::sort(points.begin(), points.end());
    for (size_t i = 1; i < points.size(); ++i) {
      if (points[i].first != points[i - 1].first &&
          points[i].second <= points[i - 1].second) {
        return Fail(error, "family \"" + family + "\": " + kGrowthCounter +
                               " does not grow at arg " +
                               std::to_string(points[i].first));
      }
    }
  }
  return true;
}

namespace {
int cli_threads = 1;
uint64_t cli_timeout_ms = 0;
uint64_t cli_max_mb = 0;
bool cli_warm_cache = false;
std::string cli_query_log_path;
std::unique_ptr<QueryLog> cli_query_log;
}  // namespace

int CliThreads() { return cli_threads; }

uint64_t CliTimeoutMs() { return cli_timeout_ms; }

uint64_t CliMaxMb() { return cli_max_mb; }

bool CliWarmCache() { return cli_warm_cache; }

const std::string& CliQueryLogPath() { return cli_query_log_path; }

QueryLog* CliQueryLog() { return cli_query_log.get(); }

int BenchMain(int argc, char** argv, const char* bench_name) {
  bool emit_json = false;
  std::string json_path = std::string("BENCH_") + bench_name + ".json";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--json") {
      emit_json = true;
    } else if (a.rfind("--json=", 0) == 0) {
      emit_json = true;
      json_path = std::string(a.substr(7));
    } else if (a.rfind("--threads=", 0) == 0) {
      cli_threads =
          static_cast<int>(std::strtol(std::string(a.substr(10)).c_str(),
                                       nullptr, 10));
      if (cli_threads < 1) cli_threads = 1;
    } else if (a.rfind("--timeout-ms=", 0) == 0) {
      cli_timeout_ms =
          std::strtoull(std::string(a.substr(13)).c_str(), nullptr, 10);
    } else if (a.rfind("--max-mb=", 0) == 0) {
      cli_max_mb =
          std::strtoull(std::string(a.substr(9)).c_str(), nullptr, 10);
    } else if (a == "--warm-cache") {
      cli_warm_cache = true;
    } else if (a.rfind("--query-log=", 0) == 0) {
      cli_query_log_path = std::string(a.substr(12));
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!cli_query_log_path.empty()) {
    QueryLogOptions log_options;
    log_options.path = cli_query_log_path;
    cli_query_log = std::make_unique<QueryLog>(log_options);
    if (!cli_query_log->ok()) {
      std::fprintf(stderr, "%s\n", cli_query_log->error().c_str());
      return 1;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&filtered_argc, args.data());

  std::vector<BenchCase> cases;
  CollectingReporter reporter(&cases);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (emit_json) {
    const auto& store = CaseMetricsStore();
    for (BenchCase& c : cases) {
      c.threads = cli_threads;
      auto it = store.find(c.name);
      if (it != store.end()) c.metrics = it->second;
    }
    std::string doc = RenderBenchJson(bench_name, cases);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu cases)\n", json_path.c_str(),
                 cases.size());
  }
  return 0;
}

}  // namespace bench
}  // namespace rdfql
