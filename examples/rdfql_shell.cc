// An interactive / scriptable shell over the Engine façade.
//
// Commands (one per line, `#` starts a comment):
//   load <graph> <file>        load simplified N-Triples from a file
//   triple <graph> s p o       insert one triple
//   query <graph> <pattern>    evaluate and print the result table
//   ask <graph> <pattern>      print yes/no
//   csv <graph> <pattern>      evaluate, print CSV
//   json <graph> <pattern>     evaluate, print W3C-style JSON
//   construct <graph> <query>  evaluate a CONSTRUCT query, print triples
//   insertwhere <graph> <q>    CONSTRUCT-shaped update: insert instantiations
//   deletewhere <graph> <q>    CONSTRUCT-shaped update: delete instantiations
//   classify <pattern>         run the paper's classifiers
//   optimize <graph> <pattern> show the optimized form for that graph
//   explain <graph> <pattern>  evaluate with a per-operator trace
//   dot <graph>                print the graph in Graphviz DOT
//   graphs                     list loaded graphs
//   spawn <graph> <pattern>    run a query on a background thread (a job)
//   .jobs                      list spawned jobs and their outcomes
//   .wait                      join every spawned job and print outcomes
//   .sleep <ms>                pause the script (lets jobs make progress)
//   .ps                        in-flight query table (live registry)
//   .stats                     workload report over this session's queries
//   .metrics                   engine metrics in OpenMetrics text format
//   .cache                     query-cache hit/miss/size counters
//   .cache clear               drop all cached plans and results
//   .prof [N]                  top-N hot tags from the sampling profiler
//   .trace FILE                re-run the last query traced, write Chrome JSON
//   .alerts                    alert rule states (with --alert-rules)
//   quit
//
// With no stdin redirection it reads interactively; a built-in demo script
// runs when invoked with `--demo`.
//
// Flags: `--timeout-ms=N` and `--max-mb=N` set engine-wide resource limits
// (wall clock / live mapping memory) for every query in the session; a
// query that trips one prints the typed error and the REPL continues.
// Telemetry flags: `--query-log=PATH` appends one JSONL record per query
// (analyze offline with tools/rdfql_stats), `--slow-ms=N` marks queries
// past N ms as slow and captures their EXPLAIN ANALYZE into the log,
// `--sample=N` keeps every Nth successful record (slow/failed always
// kept), `--metrics-out=PATH` writes the OpenMetrics exposition at exit.
// Live monitoring: `--watchdog-wall-ms=N` / `--watchdog-max-mb=N` arm the
// slow-query watchdog (offenders are cancelled mid-flight and logged as
// watchdog_cancelled), `--telemetry-out=PATH` has the sampler rewrite a
// TelemetrySnapshot JSON file every tick (watch it with tools/rdfql_top),
// `--telemetry-interval-ms=N` sets the tick period (default 1000).
// Alerting (docs/observability.md, "Alerting & SLOs"): `--alert-rules=FILE`
// installs a declarative rule set (JSON) evaluated by the telemetry tick
// against the metrics history ring — it implies telemetry, so combine it
// with `--telemetry-interval-ms=N` to control the evaluation cadence;
// `--alert-log=PATH` appends one JSONL record per state transition
// (summarize offline with rdfql_stats --alerts), and `.alerts` shows the
// live rule states.
// Caching: the shell attaches a query cache by default (plans + results;
// see docs/performance.md, "Query caching") so repeated queries hit warm;
// `--no-cache` runs the session without one, and `.cache` inspects it.
// Profiling (docs/observability.md, "Profiling"): `--profile-hz=N` starts
// the engine's sampling profiler at N Hz, `--profile-out=FILE` writes the
// folded-stack profile at exit (either flag enables the profiler; the
// default rate is a phase-lock-avoiding 97 Hz), and `.prof [N]` prints the
// hottest tags mid-session. Tracing: `--trace-out=FILE` attaches one
// session tracer to every foreground query and writes the combined Chrome
// trace_event JSON at exit; `.trace FILE` re-runs the most recent query
// under a fresh tracer and writes its trace immediately.
// `--threads=N` sets the engine's default per-query parallelism.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rdfql.h"
#include "obs/openmetrics.h"
#include "obs/query_log.h"
#include "obs/tracer.h"
#include "util/string_util.h"

namespace {

using rdfql::Engine;

/// One `spawn`ed background query. The worker writes `outcome` then
/// releases `done`; readers check `done` (acquire) before touching it.
struct Job {
  int id = 0;
  std::string query;
  std::thread thread;
  std::atomic<bool> done{false};
  std::string outcome;
};

std::vector<std::unique_ptr<Job>>& Jobs() {
  static std::vector<std::unique_ptr<Job>> jobs;
  return jobs;
}

void JoinJobs(bool print) {
  for (std::unique_ptr<Job>& job : Jobs()) {
    if (job->thread.joinable()) job->thread.join();
    if (print) {
      std::printf("job %d: %s  # %s\n", job->id, job->outcome.c_str(),
                  job->query.c_str());
    }
  }
}

/// Session state the command loop mutates: the optional session tracer
/// (--trace-out) and the last foreground query, which `.trace FILE` re-runs.
struct ShellSession {
  rdfql::Tracer* tracer = nullptr;
  std::string last_graph;
  std::string last_query;
};

ShellSession& Session() {
  static ShellSession session;
  return session;
}

void DoQuery(Engine* engine, const std::string& graph,
             const std::string& text) {
  rdfql::EvalOptions options;
  // The span tree is single-threaded by contract, so only foreground
  // queries feed the session tracer (spawned jobs never do).
  options.tracer = Session().tracer;
  rdfql::Result<rdfql::MappingSet> r = engine->Query(graph, text, options);
  if (!r.ok()) {
    std::printf("error: %s\n", r.status().ToString().c_str());
    return;
  }
  std::printf("%s", rdfql::MappingTable(*r, *engine->dict()).c_str());
}

void DoConstruct(Engine* engine, const std::string& graph,
                 const std::string& text) {
  rdfql::Result<rdfql::ConstructQuery> q =
      engine->ParseConstructQuery(text);
  if (!q.ok()) {
    std::printf("error: %s\n", q.status().ToString().c_str());
    return;
  }
  rdfql::Result<const rdfql::Graph*> g = engine->GetGraph(graph);
  if (!g.ok()) {
    std::printf("error: %s\n", g.status().ToString().c_str());
    return;
  }
  std::printf("%s",
              rdfql::WriteNTriples(q->Answer(**g), *engine->dict()).c_str());
}

void DoClassify(Engine* engine, const std::string& text) {
  rdfql::Result<rdfql::PatternPtr> p = engine->Parse(text);
  if (!p.ok()) {
    std::printf("error: %s\n", p.status().ToString().c_str());
    return;
  }
  rdfql::PatternReport r = engine->Classify(p.value());
  std::printf(
      "fragment=%s wd=%d uwd=%d simple=%d ns=%d wm*=%d mono*=%d sf*=%d\n",
      r.fragment.c_str(), r.well_designed, r.union_well_designed,
      r.simple_pattern, r.ns_pattern, r.looks_weakly_monotone,
      r.looks_monotone, r.looks_subsumption_free);
}

void DoOptimize(Engine* engine, const std::string& graph,
                const std::string& text) {
  rdfql::Result<rdfql::PatternPtr> p = engine->Parse(text);
  if (!p.ok()) {
    std::printf("error: %s\n", p.status().ToString().c_str());
    return;
  }
  rdfql::Result<const rdfql::Graph*> g = engine->GetGraph(graph);
  if (!g.ok()) {
    std::printf("error: %s\n", g.status().ToString().c_str());
    return;
  }
  rdfql::GraphStats stats = rdfql::GraphStats::Collect(**g);
  rdfql::Optimizer opt(&stats);
  std::printf("%s\n",
              rdfql::PatternToString(opt.Optimize(p.value()),
                                     *engine->dict())
                  .c_str());
}

bool HandleLine(Engine* engine, const std::string& raw) {
  std::string line(rdfql::StripWhitespace(raw));
  if (line.empty() || line[0] == '#') return true;
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == "quit" || cmd == "exit") return false;
  if (cmd == ".stats") {
    rdfql::QueryLog* log = engine->query_log();
    if (log == nullptr) {
      std::printf("no query log attached\n");
    } else {
      rdfql::QueryLogAggregator agg;
      for (const rdfql::QueryLogRecord& r : log->Snapshot()) agg.Add(r);
      std::printf("%s", agg.ToText().c_str());
    }
    return true;
  }
  if (cmd == ".metrics") {
    std::printf("%s",
                rdfql::RenderOpenMetrics(engine->MetricsSnapshot()).c_str());
    return true;
  }
  if (cmd == ".ps") {
    std::printf("%s", engine->InflightSnapshot().ToText().c_str());
    return true;
  }
  if (cmd == ".alerts") {
    if (engine->alerts() == nullptr) {
      std::printf("no alert rules installed (start with --alert-rules=FILE)\n");
    } else {
      std::printf("%s", engine->AlertSnapshot().ToText().c_str());
    }
    return true;
  }
  if (cmd == ".cache") {
    rdfql::QueryCache* cache = engine->query_cache();
    if (cache == nullptr) {
      std::printf("no query cache attached (started with --no-cache)\n");
      return true;
    }
    std::string sub;
    in >> sub;
    if (sub == "clear") {
      cache->Clear();
      std::printf("cache cleared\n");
      return true;
    }
    rdfql::QueryCacheStats s = cache->Stats();
    std::printf(
        "plan:   %llu hits, %llu misses, %llu evictions, %zu entries\n"
        "result: %llu hits, %llu misses, %llu evictions, %llu oversize, "
        "%zu entries, %zu bytes\n"
        "bypasses: %llu\n",
        static_cast<unsigned long long>(s.plan_hits),
        static_cast<unsigned long long>(s.plan_misses),
        static_cast<unsigned long long>(s.plan_evictions), s.plan_entries,
        static_cast<unsigned long long>(s.result_hits),
        static_cast<unsigned long long>(s.result_misses),
        static_cast<unsigned long long>(s.result_evictions),
        static_cast<unsigned long long>(s.result_oversize), s.result_entries,
        s.result_bytes, static_cast<unsigned long long>(s.bypasses));
    return true;
  }
  if (cmd == ".prof") {
    rdfql::Profiler* prof = engine->profiler();
    if (prof == nullptr) {
      std::printf("profiler not enabled (start with --profile-hz=N)\n");
      return true;
    }
    size_t n = 10;
    in >> n;
    if (n == 0) n = 10;
    std::printf("ticks=%llu samples=%llu\n",
                static_cast<unsigned long long>(prof->ticks()),
                static_cast<unsigned long long>(prof->samples()));
    std::printf("%-28s %10s %10s\n", "tag", "self", "total");
    for (const rdfql::ProfileTagTotal& t : prof->TopTags(n)) {
      std::printf("%-28s %10llu %10llu\n", t.tag.c_str(),
                  static_cast<unsigned long long>(t.self),
                  static_cast<unsigned long long>(t.total));
    }
    return true;
  }
  if (cmd == ".trace") {
    std::string file;
    in >> file;
    if (file.empty()) {
      std::printf("usage: .trace FILE\n");
      return true;
    }
    if (Session().last_query.empty()) {
      std::printf("no query to trace yet (run `query` first)\n");
      return true;
    }
    rdfql::Tracer tracer;
    rdfql::EvalOptions options;
    options.tracer = &tracer;
    // A cached result would leave nothing to trace; force a live run.
    options.use_result_cache = rdfql::CacheMode::kOff;
    rdfql::Result<rdfql::MappingSet> r =
        engine->Query(Session().last_graph, Session().last_query, options);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return true;
    }
    std::ofstream out(file);
    if (!out) {
      std::printf("error: cannot write %s\n", file.c_str());
      return true;
    }
    out << tracer.ToChromeTraceJson();
    std::printf("trace of `%s` (%zu rows) written to %s\n",
                Session().last_query.c_str(), r->size(), file.c_str());
    return true;
  }
  if (cmd == ".jobs") {
    for (const std::unique_ptr<Job>& job : Jobs()) {
      bool done = job->done.load(std::memory_order_acquire);
      std::printf("job %d: %s  # %s\n", job->id,
                  done ? job->outcome.c_str() : "running",
                  job->query.c_str());
    }
    return true;
  }
  if (cmd == ".wait") {
    JoinJobs(/*print=*/true);
    return true;
  }
  if (cmd == ".sleep") {
    uint64_t ms = 0;
    in >> ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return true;
  }
  if (cmd == "dot") {
    std::string graph_name;
    in >> graph_name;
    rdfql::Result<const rdfql::Graph*> gr = engine->GetGraph(graph_name);
    if (!gr.ok()) {
      std::printf("error: %s\n", gr.status().ToString().c_str());
    } else {
      std::printf("%s", rdfql::WriteDot(**gr, *engine->dict()).c_str());
    }
    return true;
  }
  if (cmd == "graphs") {
    std::printf("(use load/triple to create graphs)\n");
    return true;
  }
  std::string graph;
  if (cmd == "load") {
    std::string file;
    in >> graph >> file;
    std::ifstream f(file);
    if (!f) {
      std::printf("error: cannot open %s\n", file.c_str());
      return true;
    }
    std::stringstream buffer;
    buffer << f.rdbuf();
    rdfql::Status st = engine->LoadGraphText(graph, buffer.str());
    std::printf("%s\n", st.ok() ? "ok" : st.ToString().c_str());
    return true;
  }
  if (cmd == "triple") {
    std::string s, p, o;
    in >> graph >> s >> p >> o;
    rdfql::Status st = engine->LoadGraphText(graph, s + " " + p + " " + o);
    std::printf("%s\n", st.ok() ? "ok" : st.ToString().c_str());
    return true;
  }
  std::string rest;
  if (cmd == "classify") {
    std::getline(in, rest);
    DoClassify(engine, rest);
    return true;
  }
  in >> graph;
  std::getline(in, rest);
  if (cmd == "spawn") {
    auto job = std::make_unique<Job>();
    job->id = static_cast<int>(Jobs().size()) + 1;
    job->query = std::string(rdfql::StripWhitespace(rest));
    Job* j = job.get();
    std::string graph_copy = graph;
    std::string text = job->query;
    // The job's query pins the graph version current when it starts, so
    // the graph-writing commands may run while it does.
    job->thread = std::thread([engine, j, graph_copy, text] {
      rdfql::Result<rdfql::MappingSet> r = engine->Query(graph_copy, text);
      j->outcome = r.ok() ? "ok rows=" + std::to_string(r->size())
                          : r.status().ToString();
      j->done.store(true, std::memory_order_release);
    });
    std::printf("job %d spawned\n", j->id);
    Jobs().push_back(std::move(job));
    return true;
  }
  if (cmd == "query") {
    Session().last_graph = graph;
    Session().last_query = std::string(rdfql::StripWhitespace(rest));
    DoQuery(engine, graph, rest);
  } else if (cmd == "ask") {
    rdfql::Result<bool> r = engine->Ask(graph, rest);
    std::printf("%s\n", r.ok() ? (*r ? "yes" : "no")
                                : r.status().ToString().c_str());
  } else if (cmd == "csv") {
    rdfql::Result<std::string> r = engine->QueryCsv(graph, rest);
    std::printf("%s", r.ok() ? r->c_str() : r.status().ToString().c_str());
  } else if (cmd == "json") {
    rdfql::Result<std::string> r = engine->QueryJson(graph, rest);
    std::printf("%s\n", r.ok() ? r->c_str()
                                : r.status().ToString().c_str());
  } else if (cmd == "explain") {
    rdfql::Result<rdfql::QueryExplanation> e =
        engine->QueryExplained(graph, rest);
    if (!e.ok()) {
      std::printf("error: %s\n", e.status().ToString().c_str());
    } else {
      std::printf("%s(%zu results, %zu intermediate mappings)\n",
                  e->ToString().c_str(), e->result().size(),
                  e->explanation.TotalIntermediate());
    }
  } else if (cmd == "construct") {
    DoConstruct(engine, graph, rest);
  } else if (cmd == "insertwhere" || cmd == "deletewhere") {
    rdfql::Result<rdfql::ConstructQuery> q =
        engine->ParseConstructQuery(rest);
    rdfql::Result<const rdfql::Graph*> gr = engine->GetGraph(graph);
    if (!q.ok() || !gr.ok()) {
      std::printf("error: %s\n",
                  (!q.ok() ? q.status() : gr.status()).ToString().c_str());
    } else {
      rdfql::Graph mutated = **gr;
      size_t changed =
          cmd == "insertwhere"
              ? rdfql::InsertWhere(&mutated, q->templ(), q->pattern())
              : rdfql::DeleteWhere(&mutated, q->templ(), q->pattern());
      engine->PutGraph(graph, std::move(mutated));
      std::printf("%zu triples %s\n", changed,
                  cmd == "insertwhere" ? "inserted" : "deleted");
    }
  } else if (cmd == "optimize") {
    DoOptimize(engine, graph, rest);
  } else {
    std::printf("unknown command: %s\n", cmd.c_str());
  }
  return true;
}

int RunDemo(Engine* engine) {
  const char* script[] = {
      "triple g Juan was_born_in Chile",
      "triple g Juan email juan@puc.cl",
      "triple g Ana was_born_in Chile",
      "query g (?x was_born_in Chile) OPT (?x email ?e)",
      "classify (?x was_born_in Chile) OPT (?x email ?e)",
      "query g NS((?x was_born_in Chile) UNION ((?x was_born_in Chile) AND "
      "(?x email ?e)))",
      "construct g CONSTRUCT { (?x reachable ?e) } WHERE (?x email ?e)",
      "ask g (Juan email ?e)",
      "csv g (?x was_born_in ?c)",
      "explain g ((?x was_born_in Chile) AND (?x email ?e)) FILTER ?x = "
      "Juan",
      "optimize g ((?x was_born_in Chile) AND (?x email ?e)) FILTER ?x = "
      "Juan",
  };
  for (const char* line : script) {
    std::printf("rdfql> %s\n", line);
    HandleLine(engine, line);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Engine engine;
  bool demo = false;
  bool no_cache = false;
  rdfql::ResourceLimits limits;
  rdfql::QueryLogOptions log_options;
  rdfql::TelemetryOptions telemetry_options;
  bool want_telemetry = false;
  std::string alert_rules_path;
  std::string alert_log_path;
  std::string metrics_out;
  std::string profile_out;
  std::string trace_out;
  uint64_t profile_hz = 0;
  bool want_profiler = false;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      limits.max_wall_ms = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--max-mb=", 0) == 0) {
      limits.max_bytes =
          std::strtoull(arg.c_str() + 9, nullptr, 10) * 1'000'000ull;
    } else if (arg.rfind("--query-log=", 0) == 0) {
      log_options.path = arg.substr(12);
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      log_options.slow_ms = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--sample=", 0) == 0) {
      log_options.sample_every = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg.rfind("--watchdog-wall-ms=", 0) == 0) {
      telemetry_options.watchdog.defaults.max_wall_ms =
          std::strtoull(arg.c_str() + 19, nullptr, 10);
      want_telemetry = true;
    } else if (arg.rfind("--watchdog-max-mb=", 0) == 0) {
      telemetry_options.watchdog.defaults.max_live_bytes =
          std::strtoull(arg.c_str() + 18, nullptr, 10) * 1'000'000ull;
      want_telemetry = true;
    } else if (arg.rfind("--telemetry-out=", 0) == 0) {
      telemetry_options.snapshot_path = arg.substr(16);
      want_telemetry = true;
    } else if (arg.rfind("--telemetry-interval-ms=", 0) == 0) {
      telemetry_options.interval_ms =
          std::strtoull(arg.c_str() + 24, nullptr, 10);
      want_telemetry = true;
    } else if (arg.rfind("--alert-rules=", 0) == 0) {
      alert_rules_path = arg.substr(14);
      want_telemetry = true;
    } else if (arg.rfind("--alert-log=", 0) == 0) {
      alert_log_path = arg.substr(12);
    } else if (arg.rfind("--profile-hz=", 0) == 0) {
      profile_hz = std::strtoull(arg.c_str() + 13, nullptr, 10);
      want_profiler = true;
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      profile_out = arg.substr(14);
      want_profiler = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<int>(std::strtol(arg.c_str() + 10, nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s (try --demo --no-cache --timeout-ms=N "
                   "--max-mb=N --query-log=PATH --slow-ms=N --sample=N "
                   "--metrics-out=PATH --watchdog-wall-ms=N "
                   "--watchdog-max-mb=N --telemetry-out=PATH "
                   "--telemetry-interval-ms=N --alert-rules=FILE "
                   "--alert-log=PATH --profile-hz=N "
                   "--profile-out=FILE --trace-out=FILE --threads=N)\n",
                   arg.c_str());
      return 1;
    }
  }
  engine.SetDefaultLimits(limits);
  // The shell always keeps a session log (ring-only without --query-log, so
  // `.stats` works out of the box) and always collects metrics for
  // `.metrics` — interactive convenience over the last few percent of
  // throughput; embedders wanting the zero-overhead path leave both off.
  rdfql::QueryLog query_log(log_options);
  if (!query_log.ok()) {
    std::fprintf(stderr, "error: %s\n", query_log.error().c_str());
    return 1;
  }
  engine.SetQueryLog(&query_log);
  engine.EnableMetrics();
  // Same convenience-over-throughput call as the log/metrics: repeated
  // queries in a session hit warm unless --no-cache opted out.
  rdfql::QueryCache query_cache{rdfql::QueryCacheOptions{}};
  if (!no_cache) engine.SetQueryCache(&query_cache);
  // `.ps` works out of the box; the sampler/watchdog thread only starts
  // when a telemetry or watchdog flag asked for it.
  engine.EnableLiveMonitoring();
  if (threads > 0) engine.SetDefaultThreads(threads);
  if (want_profiler) {
    rdfql::Status st =
        profile_hz != 0 ? engine.EnableProfiling(profile_hz)
                        : engine.EnableProfiling();
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  rdfql::Tracer session_tracer;
  if (!trace_out.empty()) Session().tracer = &session_tracer;
  if (!alert_rules_path.empty()) {
    std::ifstream rules_in(alert_rules_path);
    if (!rules_in) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   alert_rules_path.c_str());
      return 1;
    }
    std::stringstream rules_buf;
    rules_buf << rules_in.rdbuf();
    rdfql::AlertLogOptions alert_log_options;
    alert_log_options.path = alert_log_path;
    rdfql::Status st =
        engine.SetAlertRules(rules_buf.str(), alert_log_options);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  } else if (!alert_log_path.empty()) {
    std::fprintf(stderr, "error: --alert-log needs --alert-rules=FILE\n");
    return 1;
  }
  if (want_telemetry) {
    rdfql::Status st = engine.StartTelemetry(telemetry_options);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  int rc = 0;
  if (demo) {
    rc = RunDemo(&engine);
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!HandleLine(&engine, line)) break;
    }
  }
  JoinJobs(/*print=*/false);
  // Final tick lands the end-state snapshot in --telemetry-out.
  engine.StopTelemetry();
  if (want_profiler) {
    engine.DisableProfiling();
    if (!profile_out.empty()) {
      std::ofstream out(profile_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", profile_out.c_str());
        return 1;
      }
      out << engine.DumpProfile();
    }
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    out << session_tracer.ToChromeTraceJson();
  }
  if (!metrics_out.empty()) {
    std::string text = rdfql::RenderOpenMetrics(engine.MetricsSnapshot());
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    out << text;
  }
  engine.SetQueryLog(nullptr);
  engine.SetQueryCache(nullptr);
  return rc;
}
