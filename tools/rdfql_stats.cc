// Offline workload analysis over JSONL query logs (see
// docs/observability.md, "Query log"):
//
//   rdfql_stats queries.jsonl              # text report
//   rdfql_stats --json a.jsonl b.jsonl     # same report as JSON
//   rdfql_stats --check queries.jsonl      # validate every line, count
//   rdfql_stats --top=10 queries.jsonl     # widen the top-N tables
//   rdfql_stats --top-hashes=10 q.jsonl    # most-repeated query hashes
//   rdfql_stats --since=2026-08-07T12:00:00Z q.jsonl   # drop older records
//   rdfql_stats --last=500 q.jsonl         # only the final 500 records
//   rdfql_stats --lint-openmetrics=metrics.txt
//   rdfql_stats --alerts=alerts.jsonl      # summarize an alert log
//
// --since keeps records whose start time is at or after the given UTC
// instant (ISO 8601, date-only or date+time with optional trailing Z);
// --last keeps the final N records across all files in read order. Both
// compose with every report mode, so "what changed in the last hour" is
// one flag away.
//
// --top-hashes=N replaces the report with the N most-repeated canonical
// query hashes (count, eval p50/p99, example text) — the workload's
// cache-hit potential at a glance; combine with --json for machines.
//
// --check and --lint-openmetrics exit non-zero on the first violation, so
// CI can gate on them. Aggregation uses the same power-of-two-bucket
// histograms as the engine's metrics registry: the per-fragment latency
// percentiles reported here are exactly the ones Engine::MetricsSnapshot
// computes for the same workload.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/alerts.h"
#include "obs/json_util.h"
#include "obs/openmetrics.h"
#include "obs/query_log.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--check] [--json] [--top=N] [--top-hashes=N] "
               "[--since=ISO8601] [--last=N] "
               "[--lint-openmetrics=FILE] [--alerts=FILE] "
               "LOG.jsonl [LOG.jsonl ...]\n",
               argv0);
  return 2;
}

/// Parses "YYYY-MM-DD" or "YYYY-MM-DD[T ]HH:MM:SS[Z]" as a UTC instant into
/// milliseconds since the epoch. Returns false on any other shape. The
/// civil-to-days conversion is the classic Howard Hinnant formula, so the
/// tool needs no non-portable timegm().
bool ParseIso8601Ms(const std::string& text, uint64_t* out_ms) {
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, sec = 0;
  char sep = 'T';
  int n = std::sscanf(text.c_str(), "%d-%d-%d%c%d:%d:%d", &y, &mo, &d, &sep,
                      &h, &mi, &sec);
  if (n != 3 && n != 7) return false;
  if (n == 7 && sep != 'T' && sep != ' ') return false;
  if (n == 7 && text.size() > 19 && !(text.size() == 20 && text[19] == 'Z')) {
    return false;
  }
  if (mo < 1 || mo > 12 || d < 1 || d > 31 || h > 23 || mi > 59 || sec > 60) {
    return false;
  }
  y -= mo <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (mo + (mo > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  const int64_t days = era * 146097LL + doe - 719468;
  int64_t secs = days * 86400 + h * 3600 + mi * 60 + sec;
  if (secs < 0) return false;
  *out_ms = static_cast<uint64_t>(secs) * 1000;
  return true;
}

/// Reads one JSONL file into `records`, dropping records older than
/// `since_ms` (0 = keep all). In check mode every record is still parsed
/// (so --check can double as a dry-run of the report); a malformed line
/// fails immediately either way — a query log with garbage in it should
/// never aggregate silently.
bool ReadLogFile(const std::string& path, uint64_t since_ms,
                 std::deque<rdfql::QueryLogRecord>* records,
                 uint64_t* lines_read) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rdfql_stats: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    rdfql::QueryLogRecord record;
    std::string error;
    if (!rdfql::ParseQueryLogLine(line, &record, &error)) {
      std::fprintf(stderr, "rdfql_stats: %s:%llu: %s\n", path.c_str(),
                   static_cast<unsigned long long>(line_no), error.c_str());
      return false;
    }
    ++*lines_read;
    if (since_ms != 0 && record.unix_ms < since_ms) continue;
    records->push_back(std::move(record));
  }
  return true;
}

bool LintFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rdfql_stats: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string error;
  if (!rdfql::LintOpenMetrics(text, &error)) {
    std::fprintf(stderr, "rdfql_stats: %s: openmetrics lint: %s\n",
                 path.c_str(), error.c_str());
    return false;
  }
  std::printf("%s: openmetrics OK\n", path.c_str());
  return true;
}

/// Per-rule roll-up of an alert log (--alerts).
struct AlertRuleAgg {
  std::string rule;
  std::string severity;
  std::string fragment;
  uint64_t pending = 0;
  uint64_t firing = 0;
  uint64_t resolved = 0;
  std::string last_state;
  uint64_t last_unix_ms = 0;
  double last_value = 0;
  double threshold = 0;

  template <class Self, class V>
  static void Fields(Self& a, V& v) {
    v("rule", a.rule);
    v("severity", a.severity);
    v("fragment", a.fragment);
    v("pending", a.pending);
    v("firing", a.firing);
    v("resolved", a.resolved);
    v("last_state", a.last_state);
    v("last_unix_ms", a.last_unix_ms);
    v("last_value", a.last_value);
    v("threshold", a.threshold);
  }
};

/// The --alerts --json document.
struct AlertsSummary {
  uint64_t transitions = 0;
  uint64_t pending = 0;
  uint64_t firing = 0;
  uint64_t resolved = 0;
  std::vector<AlertRuleAgg> rules;

  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("transitions", s.transitions);
    v("pending", s.pending);
    v("firing", s.firing);
    v("resolved", s.resolved);
    v("rules", s.rules);
  }
};

/// Reads alert-transition JSONL files and prints the roll-up: totals by
/// state, then one row per rule. A malformed line fails immediately, same
/// policy as the query-log reader.
bool AlertsReport(const std::vector<std::string>& paths, bool json,
                  uint64_t since_ms) {
  std::vector<rdfql::AlertTransition> transitions;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "rdfql_stats: cannot open '%s'\n", path.c_str());
      return false;
    }
    std::string line;
    uint64_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      rdfql::AlertTransition t;
      std::string error;
      if (!rdfql::ParseAlertLogLine(line, &t, &error)) {
        std::fprintf(stderr, "rdfql_stats: %s:%llu: %s\n", path.c_str(),
                     static_cast<unsigned long long>(line_no), error.c_str());
        return false;
      }
      if (since_ms != 0 && t.unix_ms < since_ms) continue;
      transitions.push_back(std::move(t));
    }
  }
  uint64_t pending = 0, firing = 0, resolved = 0;
  std::map<std::string, AlertRuleAgg> rules;
  for (const rdfql::AlertTransition& t : transitions) {
    AlertRuleAgg& agg = rules[t.rule];
    agg.rule = t.rule;
    agg.severity = t.severity;
    agg.fragment = t.fragment;
    agg.threshold = t.threshold;
    if (t.state == "pending") {
      ++agg.pending;
      ++pending;
    } else if (t.state == "firing") {
      ++agg.firing;
      ++firing;
    } else if (t.state == "resolved") {
      ++agg.resolved;
      ++resolved;
    }
    agg.last_state = t.state;
    agg.last_unix_ms = t.unix_ms;
    agg.last_value = t.value;
  }
  if (json) {
    AlertsSummary summary{transitions.size(), pending, firing, resolved, {}};
    for (const auto& [name, agg] : rules) summary.rules.push_back(agg);
    std::printf("%s\n", rdfql::jsonutil::ToJson(summary).c_str());
    return true;
  }
  std::printf("alerts: %llu transition(s), %llu rule(s) | pending=%llu "
              "firing=%llu resolved=%llu\n",
              static_cast<unsigned long long>(transitions.size()),
              static_cast<unsigned long long>(rules.size()),
              static_cast<unsigned long long>(pending),
              static_cast<unsigned long long>(firing),
              static_cast<unsigned long long>(resolved));
  if (!rules.empty()) {
    std::printf("  %-28s %-8s %5s %5s %5s  %-9s %10s %10s\n", "rule", "sev",
                "pend", "fire", "res", "last", "value", "threshold");
    for (const auto& [name, agg] : rules) {
      std::string label = name;
      if (!agg.fragment.empty()) label += "{" + agg.fragment + "}";
      std::printf("  %-28s %-8s %5llu %5llu %5llu  %-9s %10.4g %10.4g\n",
                  label.c_str(), agg.severity.c_str(),
                  static_cast<unsigned long long>(agg.pending),
                  static_cast<unsigned long long>(agg.firing),
                  static_cast<unsigned long long>(agg.resolved),
                  agg.last_state.c_str(), agg.last_value, agg.threshold);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool json = false;
  bool top_hashes = false;
  size_t top_n = 5;
  size_t top_hashes_n = 10;
  uint64_t since_ms = 0;
  uint64_t last_n = 0;
  std::vector<std::string> log_paths;
  std::vector<std::string> lint_paths;
  std::vector<std::string> alert_paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--top=", 0) == 0) {
      top_n = static_cast<size_t>(std::strtoull(arg.c_str() + 6, nullptr, 10));
    } else if (arg.rfind("--top-hashes=", 0) == 0) {
      top_hashes = true;
      top_hashes_n = static_cast<size_t>(
          std::strtoull(arg.c_str() + std::strlen("--top-hashes="), nullptr,
                        10));
    } else if (arg.rfind("--since=", 0) == 0) {
      std::string value = arg.substr(std::strlen("--since="));
      if (!ParseIso8601Ms(value, &since_ms) || since_ms == 0) {
        std::fprintf(stderr,
                     "rdfql_stats: --since wants ISO 8601 UTC "
                     "(e.g. 2026-08-07T12:00:00Z), got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (arg.rfind("--last=", 0) == 0) {
      last_n = std::strtoull(arg.c_str() + std::strlen("--last="), nullptr, 10);
      if (last_n == 0) {
        std::fprintf(stderr, "rdfql_stats: --last wants a positive count\n");
        return 2;
      }
    } else if (arg.rfind("--lint-openmetrics=", 0) == 0) {
      lint_paths.push_back(arg.substr(std::strlen("--lint-openmetrics=")));
    } else if (arg.rfind("--alerts=", 0) == 0) {
      alert_paths.push_back(arg.substr(std::strlen("--alerts=")));
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "rdfql_stats: unknown flag '%s'\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      log_paths.push_back(arg);
    }
  }
  if (log_paths.empty() && lint_paths.empty() && alert_paths.empty()) {
    return Usage(argv[0]);
  }

  for (const std::string& path : lint_paths) {
    if (!LintFile(path)) return 1;
  }
  if (!alert_paths.empty() && !AlertsReport(alert_paths, json, since_ms)) {
    return 1;
  }

  if (log_paths.empty()) return 0;
  std::deque<rdfql::QueryLogRecord> records;
  uint64_t lines = 0;
  for (const std::string& path : log_paths) {
    if (!ReadLogFile(path, since_ms, &records, &lines)) return 1;
  }
  if (last_n != 0) {
    while (records.size() > last_n) records.pop_front();
  }
  if (check) {
    std::printf("%llu record(s) OK", static_cast<unsigned long long>(lines));
    if (since_ms != 0 || last_n != 0) {
      std::printf(", %llu selected",
                  static_cast<unsigned long long>(records.size()));
    }
    std::printf("\n");
    return 0;
  }
  rdfql::QueryLogAggregator agg;
  for (const rdfql::QueryLogRecord& record : records) {
    agg.Add(record);
  }
  std::string report =
      top_hashes ? (json ? agg.TopHashesJson(top_hashes_n)
                         : agg.TopHashesText(top_hashes_n))
                 : (json ? agg.ToJson(top_n) : agg.ToText(top_n));
  std::fwrite(report.data(), 1, report.size(), stdout);
  if (json) std::fputc('\n', stdout);
  return 0;
}
