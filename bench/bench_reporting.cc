#include "bench_reporting.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <string_view>

#include "obs/json_util.h"
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

using jsonutil::Fail;

std::string IsoTimestampUtc() {
  std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
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
  ParsedBenchDoc doc{kBenchJsonSchema, bench_name,        RDFQL_GIT_SHA,
                     RDFQL_BUILD_TYPE, IsoTimestampUtc(), cases};
  return jsonutil::ToJson(doc) + "\n";
}

bool ParseBenchJson(const std::string& json, ParsedBenchDoc* out,
                    std::string* error) {
  if (!jsonutil::FromJson(json, out, error)) return false;
  if (out->schema != kBenchJsonSchema && out->schema != kBenchJsonSchemaV2) {
    return Fail(error, std::string("wrong \"schema\" (want ") +
                           kBenchJsonSchema + " or " + kBenchJsonSchemaV2 +
                           ")");
  }
  if (out->bench.empty()) return Fail(error, "empty \"bench\" name");
  // The provenance stamp is mandatory from v3 on; v2 baselines predate it.
  if (out->schema == kBenchJsonSchema &&
      (out->git_sha.empty() || out->build_type.empty() ||
       out->timestamp.empty())) {
    return Fail(error, "missing git_sha/build_type/timestamp stamp");
  }
  if (out->cases.empty()) return Fail(error, "\"cases\" is empty");
  for (const BenchCase& c : out->cases) {
    std::string at = "case \"" + c.name + "\": ";
    if (c.name.empty() || c.family.empty()) {
      return Fail(error, at + "empty \"name\" or \"family\"");
    }
    if (c.iterations <= 0) return Fail(error, at + "non-positive iterations");
    if (c.real_ns < 0) return Fail(error, at + "negative real_ns");
    if (c.threads < 1) return Fail(error, at + "non-positive threads");
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
