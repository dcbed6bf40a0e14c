#ifndef RDFQL_BENCH_BENCH_REPORTING_H_
#define RDFQL_BENCH_BENCH_REPORTING_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/query_log.h"

namespace rdfql {
namespace bench {

/// One benchmark case as emitted into BENCH_<name>.json.
struct BenchCase {
  std::string name;    // full google-benchmark name, e.g. "BM_Foo/64"
  std::string family;  // name up to the first '/', e.g. "BM_Foo"
  std::vector<int64_t> args;  // numeric '/'-segments, e.g. [64]
  int64_t iterations = 0;
  double real_ns = 0;  // wall time per iteration
  double cpu_ns = 0;   // cpu time per iteration
  int threads = 1;     // the --threads=N the binary ran under
  std::vector<std::pair<std::string, double>> counters;
  /// Flattened engine-metrics snapshot attached via SetCaseMetrics:
  /// counters and gauges by name, histograms as <name>.count/<name>.sum/
  /// <name>.p50/<name>.p90/<name>.p99 (interpolated percentiles).
  std::vector<std::pair<std::string, double>> metrics;

  /// Its JSON object (obs/json_util.h).
  template <class Self, class V>
  static void Fields(Self& c, V& v) {
    v("name", c.name);
    v("family", c.family);
    v("args", c.args);
    v("iterations", c.iterations);
    v("real_ns", c.real_ns);
    v("cpu_ns", c.cpu_ns);
    v("threads", c.threads);
    v("counters", c.counters);
    v("metrics", c.metrics);
  }
};

/// The schema tag every emitted file carries; bump on breaking change.
/// v2 added the per-case "threads" and "metrics" fields; v3 the top-level
/// provenance stamp ("git_sha"/"build_type"/"timestamp") so BENCH_*.json
/// history tracks the perf trajectory across commits.
inline constexpr char kBenchJsonSchema[] = "rdfql-bench-v3";
/// Still accepted by ParseBenchJson, so baselines committed before the
/// stamp (bench/baselines/*.json) keep diffing clean.
inline constexpr char kBenchJsonSchemaV2[] = "rdfql-bench-v2";

/// Renders the shared BENCH_<name>.json document:
///   {"schema":"rdfql-bench-v3","bench":"<name>","git_sha":..,
///    "build_type":..,"timestamp":"<ISO-8601 UTC>","cases":[
///     {"name":..,"family":..,"args":[..],"iterations":..,
///      "real_ns":..,"cpu_ns":..,"threads":..,"counters":{..},
///      "metrics":{..}}, ...]}
std::string RenderBenchJson(const std::string& bench_name,
                            const std::vector<BenchCase>& cases);

/// A parsed BENCH_*.json document (the inverse of RenderBenchJson), shared
/// by the validator and the bench_diff regression tool.
struct ParsedBenchDoc {
  std::string schema;
  std::string bench;
  /// Provenance stamp; empty for v2 documents.
  std::string git_sha;
  std::string build_type;
  std::string timestamp;
  std::vector<BenchCase> cases;

  /// The document RenderBenchJson writes, one case per line
  /// (obs/json_util.h).
  template <class Self, class V>
  static void Fields(Self& d, V& v) {
    v("schema", d.schema);
    v("bench", d.bench);
    v("git_sha", d.git_sha, !d.git_sha.empty());
    v("build_type", d.build_type, !d.build_type.empty());
    v("timestamp", d.timestamp, !d.timestamp.empty());
    v.Lines("cases", d.cases);
  }
};

/// Parses and field-checks a BENCH_*.json document, keys in any order.
/// Returns true on success; otherwise fills *error with the first
/// violation.
bool ParseBenchJson(const std::string& json, ParsedBenchDoc* out,
                    std::string* error);

/// Associates a flattened metrics snapshot with the named case (full
/// google-benchmark name, e.g. "BM_Foo/64"); BenchMain embeds it into that
/// case's "metrics" JSON object when emitting. Call from inside the bench
/// function after the timing loop; the last call per name wins.
void SetCaseMetrics(const std::string& case_name,
                    const RegistrySnapshot& snapshot);

/// Adds a single metric to the named case's snapshot (e.g. a blowup ratio
/// measured from a PipelineReport) without replacing metrics already set.
void AddCaseMetric(const std::string& case_name, const std::string& metric,
                   double value);

/// The per-case counter `--expect-growth` reads: a deterministic work count
/// (mappings materialized by one evaluation of the case's instance).
inline constexpr const char* kGrowthCounter = "total_mappings";

/// Validates `json` against the schema above. With `expect_growth`, also
/// asserts that within every family whose cases carry a single numeric
/// argument, each case carries the kGrowthCounter work count and that it
/// grows strictly with the argument — the empirical shadow of the
/// Thm 7.1–7.4 scaling claims, decided on a count rather than on wall time
/// so timing noise cannot fail it. Returns true on success; otherwise
/// fills *error.
bool ValidateBenchJson(const std::string& json, bool expect_growth,
                       std::string* error);

/// Shared main for every bench binary:
///  - strips `--json[=path]` from argv (default path: BENCH_<name>.json in
///    the current directory),
///  - strips `--threads=N`, exposed to cases via CliThreads() so any bench
///    can be rerun parallel and its BENCH_<name>.json diffed against the
///    serial run (same cases, serial-vs-parallel real_ns),
///  - runs google-benchmark as usual (console output preserved),
///  - when --json was given, additionally writes the schema file above.
/// Returns the process exit code.
int BenchMain(int argc, char** argv, const char* bench_name);

/// The `--threads=N` value BenchMain parsed, 1 when absent. Benches that
/// evaluate queries put this into EvalOptions::threads (and typically echo
/// it back as a `threads` case counter).
int CliThreads();

/// The `--timeout-ms=N` value BenchMain parsed, 0 (unlimited) when absent.
/// Benches put this into ResourceLimits::max_wall_ms so a runaway workload
/// fails typed instead of hanging the bench job.
uint64_t CliTimeoutMs();

/// The `--max-mb=N` value BenchMain parsed, 0 (unlimited) when absent; maps
/// to ResourceLimits::max_bytes (decimal megabytes).
uint64_t CliMaxMb();

/// Whether `--warm-cache` was passed. Benches that evaluate through an
/// Engine attach a QueryCache and pre-run their workload once before the
/// timing loop, so the emitted numbers measure the cache-hit path; diff the
/// resulting BENCH_*.json against a run without the flag to read the warm
/// speedup off a real workload.
bool CliWarmCache();

/// The `--query-log=PATH` value BenchMain parsed; empty when absent.
const std::string& CliQueryLogPath();

/// The JSONL QueryLog sink BenchMain opened at CliQueryLogPath(), or null
/// when the flag is absent. Benches that evaluate through an Engine pass
/// it to Engine::SetQueryLog so a bench run leaves an rdfql_stats-readable
/// trail next to its BENCH_*.json. Owned by bench_reporting; valid for the
/// rest of the process.
QueryLog* CliQueryLog();

}  // namespace bench
}  // namespace rdfql

/// Drop-in replacement for BENCHMARK_MAIN() with JSON emission.
#define RDFQL_BENCH_MAIN(bench_name)                      \
  int main(int argc, char** argv) {                       \
    return rdfql::bench::BenchMain(argc, argv, bench_name); \
  }

#endif  // RDFQL_BENCH_BENCH_REPORTING_H_
