// What do the cooperative cancellation checkpoints cost? Three variants of
// the full university query mix (2 universities):
//
//   BM_MixUngoverned        plain Evaluator::Eval — no token installed, so
//                           every checkpoint is one relaxed load + null
//                           test. This is the path every caller without
//                           limits takes.
//   BM_MixGovernedDisabled  EvalChecked with all-zero limits — must match
//                           the ungoverned run (it resolves to the same
//                           path); proves governance is free until opted
//                           into.
//   BM_MixGovernedArmed     EvalChecked under generous limits — token
//                           installed, caps armed on an accountant, every
//                           checkpoint pays an atomic load (plus a clock
//                           read at operator granularity).
//
// Before google-benchmark runs, a paired pre-pass interleaves the three
// variants and prints their relative overheads to stderr; the per-sweep
// medians are attached to the emitted JSON as `paired_*_ns` metrics
// (timing-named, so bench_diff skips them across machines).
// docs/robustness.md records the measured figures; the budget for the
// disabled path is <2%.
//
// A second pair does the same for the query log at the Engine::Query
// level: BM_MixQueryLogOff (no log attached — the query lifecycle copies,
// hashes and times nothing for the log) vs BM_MixQueryLogOn (ring-only
// QueryLog recording every query). The paired medians land in the JSON as
// `paired_log_*_ns`; the budget for the disabled path is <2%
// (docs/observability.md).
//
// A third pair does the same for live monitoring: BM_MixMonitorOff (the
// in-flight registry disabled — the lifecycle registers nothing) vs
// BM_MixMonitorOn (every query claims a registry slot, carries the slot's
// accountant and token, and runs the checkpointed path). Medians land as
// `paired_monitor_*_ns`; the budget for the disabled path is <2%
// (docs/observability.md, "Live monitoring").
//
// A fourth pair covers the sampling profiler: BM_MixProfileOff (profiler
// detached — every ProfileFrame is one relaxed flag load) vs
// BM_MixProfileOn (profiler running at the default 97 Hz, every frame
// push/pop live, the sampler walking thread stacks in the background).
// Medians land as `paired_profile_*_ns`; budgets: off <2%, on at 97 Hz
// <5% (docs/observability.md, "Profiling").
//
// A fifth pair covers the metrics history ring + alert engine:
// BM_MixAlertsOff (no rules installed, metrics collection off — the
// pre-history path, byte for byte) vs BM_MixAlertsOn (a three-rule set
// including a fragment-scoped p99 rule, history recording and rule
// evaluation on a live 1 s telemetry tick). Medians land as
// `paired_alerts_*_ns`; budgets: off <2%, on at a 1 s tick <5%
// (docs/observability.md, "Alerting & SLOs").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/rdfql.h"
#include "util/check.h"
#include "workload/university_generator.h"

#include "bench_reporting.h"

namespace rdfql {
namespace {

struct Mix {
  Graph graph;
  std::vector<PatternPtr> patterns;
};

Engine& SharedEngine() {
  static Engine engine;
  return engine;
}

const Mix& SharedMix() {
  static Mix mix = [] {
    Mix m;
    UniversitySpec spec;
    spec.num_universities = 2;
    m.graph = GenerateUniversityGraph(spec, SharedEngine().dict());
    for (const NamedUniversityQuery& q : UniversityQueryMix()) {
      Result<PatternPtr> p = SharedEngine().Parse(q.text);
      RDFQL_CHECK(p.ok());
      m.patterns.push_back(p.value());
    }
    return m;
  }();
  return mix;
}

EvalOptions ArmedOptions() {
  EvalOptions options;
  options.limits.max_wall_ms = 600'000;
  options.limits.max_live_mappings = 1ull << 40;
  options.limits.max_bytes = 1ull << 40;
  return options;
}

size_t RunMixPlain(const Evaluator& evaluator) {
  size_t answers = 0;
  for (const PatternPtr& p : SharedMix().patterns) {
    answers += evaluator.Eval(p).size();
  }
  return answers;
}

size_t RunMixChecked(const Evaluator& evaluator) {
  size_t answers = 0;
  for (const PatternPtr& p : SharedMix().patterns) {
    Result<MappingSet> r = evaluator.EvalChecked(p);
    RDFQL_CHECK(r.ok());
    answers += r->size();
  }
  return answers;
}

void BM_MixUngoverned(benchmark::State& state) {
  Evaluator evaluator(&SharedMix().graph);
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixPlain(evaluator);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixUngoverned)->Unit(benchmark::kMillisecond);

void BM_MixGovernedDisabled(benchmark::State& state) {
  Evaluator evaluator(&SharedMix().graph);
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixChecked(evaluator);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixGovernedDisabled)->Unit(benchmark::kMillisecond);

void BM_MixGovernedArmed(benchmark::State& state) {
  Evaluator evaluator(&SharedMix().graph, ArmedOptions());
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixChecked(evaluator);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixGovernedArmed)->Unit(benchmark::kMillisecond);

// --- Query-log overhead, measured at the Engine::Query level (the log
// hooks live there, not in the evaluator) ---

void EnsureMixGraph() {
  static bool registered = [] {
    SharedEngine().PutGraph("mix", SharedMix().graph);
    return true;
  }();
  (void)registered;
}

size_t RunMixEngine() {
  size_t answers = 0;
  for (const NamedUniversityQuery& q : UniversityQueryMix()) {
    Result<MappingSet> r = SharedEngine().Query("mix", q.text);
    RDFQL_CHECK(r.ok());
    answers += r->size();
  }
  return answers;
}

QueryLog& RingOnlyLog() {
  static QueryLog log;  // no path: ring buffer only, no file I/O
  return log;
}

void BM_MixQueryLogOff(benchmark::State& state) {
  EnsureMixGraph();
  SharedEngine().SetQueryLog(nullptr);
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixEngine();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixQueryLogOff)->Unit(benchmark::kMillisecond);

void BM_MixQueryLogOn(benchmark::State& state) {
  EnsureMixGraph();
  SharedEngine().SetQueryLog(&RingOnlyLog());
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixEngine();
    benchmark::DoNotOptimize(answers);
  }
  SharedEngine().SetQueryLog(nullptr);
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixQueryLogOn)->Unit(benchmark::kMillisecond);

void BM_MixMonitorOff(benchmark::State& state) {
  EnsureMixGraph();
  SharedEngine().EnableLiveMonitoring(false);
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixEngine();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixMonitorOff)->Unit(benchmark::kMillisecond);

void BM_MixMonitorOn(benchmark::State& state) {
  EnsureMixGraph();
  SharedEngine().EnableLiveMonitoring(true);
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixEngine();
    benchmark::DoNotOptimize(answers);
  }
  SharedEngine().EnableLiveMonitoring(false);
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixMonitorOn)->Unit(benchmark::kMillisecond);

void BM_MixProfileOff(benchmark::State& state) {
  EnsureMixGraph();
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixEngine();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixProfileOff)->Unit(benchmark::kMillisecond);

void BM_MixProfileOn(benchmark::State& state) {
  EnsureMixGraph();
  RDFQL_CHECK(SharedEngine().EnableProfiling(97).ok());
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixEngine();
    benchmark::DoNotOptimize(answers);
  }
  SharedEngine().DisableProfiling();
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixProfileOn)->Unit(benchmark::kMillisecond);

// Rules that evaluate every tick but never fire: a global rate ceiling, a
// fragment-scoped latency objective (exercises the per-fragment histogram
// observation on the query path), and a multi-window burn rate.
const char kAlertRules[] = R"({"version":1,"rules":[
  {"name":"qps-ceiling","agg":"rate","metric":"engine.queries",
   "op":">","threshold":1e15,"windows":["30s","5m"]},
  {"name":"and-p99","agg":"p99","metric":"engine.eval_ns",
   "fragment":"SPARQL[A]","op":">","threshold":"1h","windows":["30s"],
   "for":"10s"},
  {"name":"reject-burn","agg":"burn_rate",
   "metric":"engine.queries_rejected","denominator":"engine.queries",
   "objective":0.01,"op":">","threshold":1e6,"windows":["1m","10m"]}]})";

void AlertsOff() {
  if (SharedEngine().telemetry() != nullptr) SharedEngine().StopTelemetry();
  if (SharedEngine().alerts() != nullptr) {
    RDFQL_CHECK(SharedEngine().ClearAlertRules().ok());
  }
  SharedEngine().EnableMetrics(false);
}

void AlertsOn() {
  RDFQL_CHECK(SharedEngine().SetAlertRules(kAlertRules).ok());
  TelemetryOptions options;
  options.interval_ms = 1000;  // the live tick the budget is stated for
  RDFQL_CHECK(SharedEngine().StartTelemetry(options).ok());
}

void BM_MixAlertsOff(benchmark::State& state) {
  EnsureMixGraph();
  AlertsOff();
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixEngine();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixAlertsOff)->Unit(benchmark::kMillisecond);

void BM_MixAlertsOn(benchmark::State& state) {
  EnsureMixGraph();
  AlertsOn();
  size_t answers = 0;
  for (auto _ : state) {
    answers = RunMixEngine();
    benchmark::DoNotOptimize(answers);
  }
  AlertsOff();
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_MixAlertsOn)->Unit(benchmark::kMillisecond);

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Median(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Paired pre-pass: interleave the three variants so they share the same
// cache/frequency conditions, then compare medians.
void ReportPairedOverhead() {
  Evaluator plain(&SharedMix().graph);
  Evaluator armed(&SharedMix().graph, ArmedOptions());
  // Warm up graph indexes and allocator.
  RunMixPlain(plain);
  RunMixChecked(armed);
  constexpr int kReps = 11;
  std::vector<uint64_t> ungoverned, disabled, armed_ns;
  for (int i = 0; i < kReps; ++i) {
    uint64_t t0 = NowNs();
    size_t a = RunMixPlain(plain);
    uint64_t t1 = NowNs();
    size_t b = RunMixChecked(plain);
    uint64_t t2 = NowNs();
    size_t c = RunMixChecked(armed);
    uint64_t t3 = NowNs();
    RDFQL_CHECK(a == b && b == c);
    ungoverned.push_back(t1 - t0);
    disabled.push_back(t2 - t1);
    armed_ns.push_back(t3 - t2);
  }
  double u = static_cast<double>(Median(ungoverned));
  double d = static_cast<double>(Median(disabled));
  double g = static_cast<double>(Median(armed_ns));
  std::fprintf(stderr,
               "limits-overhead (paired medians over %d mix sweeps): "
               "ungoverned=%.2fms disabled=%.2fms (%+.2f%%) "
               "armed=%.2fms (%+.2f%%); budget for disabled: <2%%\n",
               kReps, u / 1e6, d / 1e6, (d / u - 1.0) * 100, g / 1e6,
               (g / u - 1.0) * 100);
  for (const char* name :
       {"BM_MixUngoverned", "BM_MixGovernedDisabled", "BM_MixGovernedArmed"}) {
    bench::AddCaseMetric(name, "paired_ungoverned_ns", u);
    bench::AddCaseMetric(name, "paired_disabled_ns", d);
    bench::AddCaseMetric(name, "paired_armed_ns", g);
  }
}

// Same discipline for the query log: interleaved engine-level sweeps with
// the log detached vs attached (ring-only), medians to stderr and JSON.
void ReportQueryLogOverhead() {
  EnsureMixGraph();
  SharedEngine().SetQueryLog(nullptr);
  RunMixEngine();  // warm up
  constexpr int kReps = 11;
  std::vector<uint64_t> off_ns, on_ns;
  for (int i = 0; i < kReps; ++i) {
    SharedEngine().SetQueryLog(nullptr);
    uint64_t t0 = NowNs();
    size_t a = RunMixEngine();
    uint64_t t1 = NowNs();
    SharedEngine().SetQueryLog(&RingOnlyLog());
    size_t b = RunMixEngine();
    uint64_t t2 = NowNs();
    SharedEngine().SetQueryLog(nullptr);
    RDFQL_CHECK(a == b);
    off_ns.push_back(t1 - t0);
    on_ns.push_back(t2 - t1);
  }
  double off = static_cast<double>(Median(off_ns));
  double on = static_cast<double>(Median(on_ns));
  std::fprintf(stderr,
               "query-log overhead (paired medians over %d mix sweeps): "
               "off=%.2fms on=%.2fms (%+.2f%%); budget for off (vs the "
               "pre-log path): <2%% — off is the lifecycle with no log\n",
               kReps, off / 1e6, on / 1e6, (on / off - 1.0) * 100);
  for (const char* name : {"BM_MixQueryLogOff", "BM_MixQueryLogOn"}) {
    bench::AddCaseMetric(name, "paired_log_off_ns", off);
    bench::AddCaseMetric(name, "paired_log_on_ns", on);
  }
}

// And for live monitoring: registry off (no registration) vs on
// (slot registration + slot-wired accountant/token per query).
void ReportMonitorOverhead() {
  EnsureMixGraph();
  SharedEngine().EnableLiveMonitoring(false);
  RunMixEngine();  // warm up
  constexpr int kReps = 11;
  std::vector<uint64_t> off_ns, on_ns;
  for (int i = 0; i < kReps; ++i) {
    SharedEngine().EnableLiveMonitoring(false);
    uint64_t t0 = NowNs();
    size_t a = RunMixEngine();
    uint64_t t1 = NowNs();
    SharedEngine().EnableLiveMonitoring(true);
    size_t b = RunMixEngine();
    uint64_t t2 = NowNs();
    SharedEngine().EnableLiveMonitoring(false);
    RDFQL_CHECK(a == b);
    off_ns.push_back(t1 - t0);
    on_ns.push_back(t2 - t1);
  }
  double off = static_cast<double>(Median(off_ns));
  double on = static_cast<double>(Median(on_ns));
  std::fprintf(stderr,
               "live-monitoring overhead (paired medians over %d mix "
               "sweeps): off=%.2fms on=%.2fms (%+.2f%%); budget for off (vs "
               "the pre-registry path): <2%% — off is the lifecycle with no "
               "registration\n",
               kReps, off / 1e6, on / 1e6, (on / off - 1.0) * 100);
  for (const char* name : {"BM_MixMonitorOff", "BM_MixMonitorOn"}) {
    bench::AddCaseMetric(name, "paired_monitor_off_ns", off);
    bench::AddCaseMetric(name, "paired_monitor_on_ns", on);
  }
}

// And for the profiler: detached (the pre-profiler path — one relaxed
// flag load per would-be frame) vs running at the default 97 Hz (frames
// pushed/popped for real, the sampler thread walking stacks behind the
// queries).
void ReportProfilerOverhead() {
  EnsureMixGraph();
  RunMixEngine();  // warm up
  constexpr int kReps = 11;
  std::vector<uint64_t> off_ns, on_ns;
  for (int i = 0; i < kReps; ++i) {
    uint64_t t0 = NowNs();
    size_t a = RunMixEngine();
    uint64_t t1 = NowNs();
    RDFQL_CHECK(SharedEngine().EnableProfiling(97).ok());
    size_t b = RunMixEngine();
    SharedEngine().DisableProfiling();
    uint64_t t2 = NowNs();
    RDFQL_CHECK(a == b);
    off_ns.push_back(t1 - t0);
    on_ns.push_back(t2 - t1);
  }
  double off = static_cast<double>(Median(off_ns));
  double on = static_cast<double>(Median(on_ns));
  std::fprintf(stderr,
               "profiler overhead (paired medians over %d mix sweeps): "
               "off=%.2fms on@97Hz=%.2fms (%+.2f%%); budgets: off (vs the "
               "pre-profiler path) <2%% — off IS the pre-profiler path; "
               "on <5%%\n",
               kReps, off / 1e6, on / 1e6, (on / off - 1.0) * 100);
  for (const char* name : {"BM_MixProfileOff", "BM_MixProfileOn"}) {
    bench::AddCaseMetric(name, "paired_profile_off_ns", off);
    bench::AddCaseMetric(name, "paired_profile_on_ns", on);
  }
}

// And for history + alerting: rules detached and metrics off (the
// pre-history path) vs the three-rule set evaluated on a live 1 s
// telemetry tick, with per-fragment latency observation on the query path.
void ReportAlertsOverhead() {
  EnsureMixGraph();
  AlertsOff();
  RunMixEngine();  // warm up
  constexpr int kReps = 11;
  std::vector<uint64_t> off_ns, on_ns;
  for (int i = 0; i < kReps; ++i) {
    AlertsOff();
    uint64_t t0 = NowNs();
    size_t a = RunMixEngine();
    uint64_t t1 = NowNs();
    AlertsOn();
    size_t b = RunMixEngine();
    uint64_t t2 = NowNs();
    AlertsOff();
    RDFQL_CHECK(a == b);  // alerting must not change query results
    off_ns.push_back(t1 - t0);
    on_ns.push_back(t2 - t1);
  }
  double off = static_cast<double>(Median(off_ns));
  double on = static_cast<double>(Median(on_ns));
  std::fprintf(stderr,
               "alerts overhead (paired medians over %d mix sweeps): "
               "off=%.2fms on@1s-tick=%.2fms (%+.2f%%); budgets: off (vs "
               "the pre-history path) <2%% — off IS the pre-history path; "
               "on <5%%\n",
               kReps, off / 1e6, on / 1e6, (on / off - 1.0) * 100);
  for (const char* name : {"BM_MixAlertsOff", "BM_MixAlertsOn"}) {
    bench::AddCaseMetric(name, "paired_alerts_off_ns", off);
    bench::AddCaseMetric(name, "paired_alerts_on_ns", on);
  }
}

}  // namespace
}  // namespace rdfql

int main(int argc, char** argv) {
  rdfql::ReportPairedOverhead();
  rdfql::ReportQueryLogOverhead();
  rdfql::ReportMonitorOverhead();
  rdfql::ReportProfilerOverhead();
  rdfql::ReportAlertsOverhead();
  return rdfql::bench::BenchMain(argc, argv, "bench_limits_overhead");
}
