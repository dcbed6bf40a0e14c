#ifndef RDFQL_OBS_ALERTS_H_
#define RDFQL_OBS_ALERTS_H_

// Declarative SLO/alerting over the metrics history ring (obs/history.h).
//
// Rules are data — a JSON file, no expression language, no dependencies.
// Each rule names an aggregation over a metric, a comparison, and one or
// more trailing windows; the rule breaches only when EVERY window breaches,
// which is the standard multi-window burn-rate guard against paging on a
// transient spike (short window: "it is bad right now"; long window: "it
// has been bad long enough to matter"). Because the paper's fragments sit
// in different complexity classes (well-designed patterns are coNP-complete
// while full OPT patterns are PSPACE-complete), a single global latency
// threshold is meaningless — rules carry an optional `fragment` key, and
// the engine records a per-fragment latency histogram for every fragment
// named by some rule, so `p99{fragment=SPARQL[AO]} > 50ms` is expressible.
//
// Rule file shape (key order inside an object is free):
//
//   {"version":1,"rules":[
//     {"name":"opt-p99",
//      "agg":"p99",                    // value|rate|delta|p50|p90|p99|
//                                      // burn_rate
//      "metric":"engine.eval_ns",
//      "fragment":"SPARQL[AO]",        // optional; keys the histogram
//      "op":">",                       // ">" or "<"
//      "threshold":"50ms",             // number (raw units) or duration
//      "windows":["30s","5m"],         // ALL must breach
//      "for":"10s",                    // pending this long before firing
//      "keep":"30s",                   // clear this long before resolving
//      "severity":"page",              // free-form label, default "warn"
//      "escalate_watchdog_wall_ms":100 // optional escalation hook
//     },
//     {"name":"rejection-burn","agg":"burn_rate",
//      "metric":"engine.queries_rejected","denominator":"engine.queries",
//      "objective":0.01,"op":">","threshold":2,"windows":["1m","10m"]}]}
//
// `burn_rate` computes (rate(metric)/rate(denominator))/objective — how
// many times faster than budget the error budget is burning; a threshold
// of 1 means "exactly on budget".
//
// The state machine per rule is pending → firing → resolved: a breach
// moves an idle rule to pending (and straight to firing once it has held
// for `for`); while firing, the condition must stay clear for `keep`
// (hysteresis) before the rule resolves. Every transition appends one JSONL
// record to the alert log, the same ring-plus-JSONL sink the query log
// writes through (obs/jsonl_sink.h).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/history.h"
#include "obs/jsonl_sink.h"

namespace rdfql {

/// The registry name of the per-fragment latency histogram the engine
/// observes for fragments named by alert rules, e.g.
/// "engine.eval_ns.fragment.SPARQL[AO]".
std::string FragmentMetricName(std::string_view metric,
                               std::string_view fragment);

/// Parses "500ms" / "30s" / "5m" / "1h" (or a bare number of milliseconds)
/// into milliseconds. Returns false on any other shape, and when the number
/// or the milliseconds overflow 64 bits.
bool ParseDurationMs(std::string_view text, uint64_t* out_ms);

struct AlertCondition {
  enum class Agg {
    kValue,     // latest gauge value
    kRate,      // counter increments per second over the window
    kDelta,     // counter increments over the window
    kP50,       // interpolated histogram quantiles over the window
    kP90,
    kP99,
    kBurnRate,  // (rate(metric)/rate(denominator))/objective
  };
  Agg agg = Agg::kRate;
  std::string metric;
  std::string denominator;  // burn_rate only
  double objective = 0;     // burn_rate only: allowed bad fraction
  std::string fragment;     // optional; rewrites metric per fragment
  char op = '>';
  double threshold = 0;
  std::vector<uint64_t> windows_ms;  // every window must breach
};

struct AlertRule {
  std::string name;
  std::string severity = "warn";
  AlertCondition condition;
  uint64_t for_ms = 0;   // breach must hold this long before firing
  uint64_t keep_ms = 0;  // hysteresis: clear this long before resolving
  /// When non-zero, a firing rule with a fragment asks the telemetry
  /// watchdog to tighten that fragment's wall budget to this many ms.
  uint64_t escalate_watchdog_wall_ms = 0;
};

/// Parses a rule file (shape documented above). Returns false and fills
/// *error on the first violation (unknown key, duplicate rule name, missing
/// required field, malformed duration, ...).
bool ParseAlertRules(std::string_view json, std::vector<AlertRule>* out,
                     std::string* error);

/// One state transition, as logged to the alert JSONL log:
///   {"v":1,"unix_ms":..,"rule":..,"state":"pending|firing|resolved",
///    "severity":..,"fragment":..,"value":..,"threshold":..,
///    "windows_ms":[..]}
struct AlertTransition {
  uint64_t unix_ms = 0;
  std::string rule;
  std::string state;
  std::string severity;
  std::string fragment;
  double value = 0;
  double threshold = 0;
  std::vector<uint64_t> windows_ms;

  std::string ToJson() const;

  /// The JSONL format above (obs/json_util.h).
  template <class Self, class V>
  static void Fields(Self& t, V& v) {
    v.Version(1);
    v("unix_ms", t.unix_ms);
    v("rule", t.rule);
    v("state", t.state);
    v("severity", t.severity);
    v("fragment", t.fragment);
    v("value", t.value);
    v("threshold", t.threshold);
    v("windows_ms", t.windows_ms);
  }
};

/// Parses one line of an alert log (inverse of AlertTransition::ToJson).
bool ParseAlertLogLine(std::string_view line, AlertTransition* out,
                       std::string* error);

struct AlertLogOptions {
  std::string path;  // empty: in-memory ring only
  bool append = true;
  size_t ring_capacity = 256;
};

/// JSONL sink for alert transitions: the latest transitions in a bounded
/// ring for live introspection, every one in the file (a JsonlSink, like
/// QueryLog).
class AlertLog {
 public:
  explicit AlertLog(AlertLogOptions options = AlertLogOptions());
  AlertLog(const AlertLog&) = delete;
  AlertLog& operator=(const AlertLog&) = delete;

  bool ok() const { return sink_.error().empty(); }
  const std::string& error() const { return sink_.error(); }
  const AlertLogOptions& options() const { return options_; }

  void Record(const AlertTransition& transition);
  std::vector<AlertTransition> Snapshot() const { return sink_.Snapshot(); }
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  void Flush() { sink_.Flush(); }

 private:
  const AlertLogOptions options_;
  JsonlSink<AlertTransition> sink_;
  std::atomic<uint64_t> recorded_{0};
};

/// Point-in-time view of every rule's state.
struct AlertRuleStatus {
  std::string name;
  std::string severity;
  std::string state;     // "ok" | "pending" | "firing" | "resolved"
  std::string fragment;  // empty unless the rule is fragment-scoped
  double value = 0;      // last evaluation of the first window
  double threshold = 0;
  uint64_t since_unix_ms = 0;  // when the current state was entered
  uint64_t fires = 0;          // times this rule has fired

  template <class Self, class V>
  static void Fields(Self& r, V& v) {
    v("name", r.name);
    v("severity", r.severity);
    v("state", r.state);
    v("fragment", r.fragment);
    v("value", r.value);
    v("threshold", r.threshold);
    v("since_unix_ms", r.since_unix_ms);
    v("fires", r.fires);
  }
};

struct AlertSnapshot {
  uint64_t unix_ms = 0;
  uint64_t pending_total = 0;
  uint64_t firing_total = 0;
  uint64_t resolved_total = 0;
  std::vector<AlertRuleStatus> rules;

  size_t FiringNow() const;
  std::string ToText() const;
  std::string ToJson() const;

  /// The JSON object ToJson writes, also embedded in the telemetry
  /// snapshot (obs/json_util.h).
  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("unix_ms", s.unix_ms);
    v("pending_total", s.pending_total);
    v("firing_total", s.firing_total);
    v("resolved_total", s.resolved_total);
    v("rules", s.rules);
  }
};

/// Evaluates a fixed rule set against a MetricsHistory once per telemetry
/// tick and drives the per-rule state machines. Rules are immutable after
/// construction (lock-free reads from query threads via WantsFragment);
/// per-rule state is guarded by a mutex so Snapshot() may race Evaluate().
class AlertEngine {
 public:
  explicit AlertEngine(std::vector<AlertRule> rules,
                       AlertLogOptions log_options = AlertLogOptions());

  const std::vector<AlertRule>& rules() const { return rules_; }
  bool log_ok() const { return log_.ok(); }
  const std::string& log_error() const { return log_.error(); }
  AlertLog* log() { return &log_; }

  /// True when some rule is scoped to `fragment` — the engine observes the
  /// per-fragment latency histogram only for those.
  bool WantsFragment(std::string_view fragment) const;
  bool wants_fragments() const { return !fragments_.empty(); }
  /// Every fragment some rule is scoped to.
  const std::set<std::string, std::less<>>& fragments() const {
    return fragments_;
  }

  /// Evaluates every rule against `history` at `now_ms`, advancing state
  /// machines and logging transitions. Called by the telemetry tick.
  void Evaluate(const MetricsHistory& history, uint64_t now_ms);

  AlertSnapshot Snapshot() const;

  uint64_t pending_total() const {
    return pending_total_.load(std::memory_order_relaxed);
  }
  uint64_t firing_total() const {
    return firing_total_.load(std::memory_order_relaxed);
  }
  uint64_t resolved_total() const {
    return resolved_total_.load(std::memory_order_relaxed);
  }
  int64_t firing_now() const {
    return firing_now_.load(std::memory_order_relaxed);
  }

  /// (fragment, wall_ms) for every firing rule with an escalation budget —
  /// the telemetry sampler folds these into its effective watchdog policy
  /// and drops them again once the rule resolves.
  std::vector<std::pair<std::string, uint64_t>> WatchdogEscalations() const;

 private:
  enum class State { kOk, kPending, kFiring, kResolved };
  struct RuleState {
    State state = State::kOk;
    uint64_t since_unix_ms = 0;    // entered current state
    uint64_t pending_since = 0;    // breach onset (pending/firing)
    uint64_t clear_since = 0;      // 0 = breaching; else first clear eval
    double value = 0;
    uint64_t fires = 0;
  };

  static const char* StateName(State s);
  void TransitionLocked(size_t i, State to, uint64_t now_ms,
                        std::vector<AlertTransition>* out);

  const std::vector<AlertRule> rules_;
  const std::set<std::string, std::less<>> fragments_;
  AlertLog log_;

  std::atomic<uint64_t> pending_total_{0};
  std::atomic<uint64_t> firing_total_{0};
  std::atomic<uint64_t> resolved_total_{0};
  std::atomic<int64_t> firing_now_{0};

  mutable std::mutex mu_;
  std::vector<RuleState> states_;
  uint64_t last_eval_unix_ms_ = 0;
};

}  // namespace rdfql

#endif  // RDFQL_OBS_ALERTS_H_
