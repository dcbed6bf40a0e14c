#include "obs/alerts.h"

#include <cctype>
#include <cstdio>
#include <utility>

#include "obs/json_util.h"

namespace rdfql {

namespace {

using jsonutil::JsonParser;

bool AggFromName(std::string_view name, AlertCondition::Agg* out) {
  if (name == "value") *out = AlertCondition::Agg::kValue;
  else if (name == "rate") *out = AlertCondition::Agg::kRate;
  else if (name == "delta") *out = AlertCondition::Agg::kDelta;
  else if (name == "p50") *out = AlertCondition::Agg::kP50;
  else if (name == "p90") *out = AlertCondition::Agg::kP90;
  else if (name == "p99") *out = AlertCondition::Agg::kP99;
  else if (name == "burn_rate") *out = AlertCondition::Agg::kBurnRate;
  else return false;
  return true;
}

/// Parses one rule object at the cursor. Keys may appear in any order —
/// this is the one obs format humans write by hand.
bool ParseRuleObject(JsonParser* p, AlertRule* rule, std::string* error) {
  if (!p->Eat('{')) return p->Fail(error, "expected rule object");
  bool saw_agg = false;
  if (!p->Eat('}')) {
    do {
      std::string key;
      if (!p->NextKey(&key)) return p->Fail(error, "expected rule key");
      if (key == "name") {
        if (!p->ParseString(&rule->name)) {
          return p->Fail(error, "name wants a string");
        }
      } else if (key == "severity") {
        if (!p->ParseString(&rule->severity)) {
          return p->Fail(error, "severity wants a string");
        }
      } else if (key == "agg") {
        std::string agg;
        if (!p->ParseString(&agg) || !AggFromName(agg, &rule->condition.agg)) {
          return p->Fail(error,
                         "agg wants one of value|rate|delta|p50|p90|p99|"
                         "burn_rate");
        }
        saw_agg = true;
      } else if (key == "metric") {
        if (!p->ParseString(&rule->condition.metric)) {
          return p->Fail(error, "metric wants a string");
        }
      } else if (key == "denominator") {
        if (!p->ParseString(&rule->condition.denominator)) {
          return p->Fail(error, "denominator wants a string");
        }
      } else if (key == "fragment") {
        if (!p->ParseString(&rule->condition.fragment)) {
          return p->Fail(error, "fragment wants a string");
        }
      } else if (key == "objective") {
        if (!p->ParseDouble(&rule->condition.objective)) {
          return p->Fail(error, "objective wants a number");
        }
      } else if (key == "op") {
        std::string op;
        if (!p->ParseString(&op) || (op != ">" && op != "<")) {
          return p->Fail(error, "op wants \">\" or \"<\"");
        }
        rule->condition.op = op[0];
      } else if (key == "threshold") {
        // A bare number is raw metric units; a duration string converts to
        // nanoseconds (the unit of every *_ns histogram).
        if (p->Peek('"')) {
          std::string text;
          uint64_t ms = 0;
          if (!p->ParseString(&text) || !ParseDurationMs(text, &ms)) {
            return p->Fail(error, "threshold duration wants e.g. \"50ms\"");
          }
          rule->condition.threshold = static_cast<double>(ms) * 1e6;
        } else if (!p->ParseDouble(&rule->condition.threshold)) {
          return p->Fail(error, "threshold wants a number or duration");
        }
      } else if (key == "windows") {
        if (!p->Eat('[')) return p->Fail(error, "windows wants an array");
        if (!p->Eat(']')) {
          do {
            uint64_t ms = 0;
            if (p->Peek('"')) {
              std::string text;
              if (!p->ParseString(&text) || !ParseDurationMs(text, &ms)) {
                return p->Fail(error, "window wants e.g. \"5m\"");
              }
            } else if (!p->ParseUint(&ms)) {
              return p->Fail(error, "window wants a duration");
            }
            rule->condition.windows_ms.push_back(ms);
          } while (p->Eat(','));
          if (!p->Eat(']')) return p->Fail(error, "unterminated windows");
        }
      } else if (key == "for" || key == "keep") {
        uint64_t ms = 0;
        if (p->Peek('"')) {
          std::string text;
          if (!p->ParseString(&text) || !ParseDurationMs(text, &ms)) {
            return p->Fail(error, key + " wants a duration");
          }
        } else if (!p->ParseUint(&ms)) {
          return p->Fail(error, key + " wants a duration");
        }
        (key == "for" ? rule->for_ms : rule->keep_ms) = ms;
      } else if (key == "escalate_watchdog_wall_ms") {
        if (!p->ParseUint(&rule->escalate_watchdog_wall_ms)) {
          return p->Fail(error, "escalate_watchdog_wall_ms wants an integer");
        }
      } else {
        return p->Fail(error, "unknown rule key '" + key + "'");
      }
    } while (p->Eat(','));
    if (!p->Eat('}')) return p->Fail(error, "unterminated rule object");
  }
  if (rule->name.empty()) return p->Fail(error, "rule is missing a name");
  if (rule->condition.metric.empty()) {
    return p->Fail(error, "rule '" + rule->name + "' is missing a metric");
  }
  if (!saw_agg) {
    return p->Fail(error, "rule '" + rule->name + "' is missing agg");
  }
  if (rule->condition.agg == AlertCondition::Agg::kBurnRate) {
    if (rule->condition.denominator.empty()) {
      return p->Fail(error,
                     "burn_rate rule '" + rule->name +
                         "' wants a denominator counter");
    }
    if (rule->condition.objective <= 0) {
      return p->Fail(error, "burn_rate rule '" + rule->name +
                                "' wants an objective > 0");
    }
  }
  if (rule->condition.windows_ms.empty()) {
    if (rule->condition.agg == AlertCondition::Agg::kValue) {
      rule->condition.windows_ms.push_back(0);  // gauges ignore the window
    } else {
      return p->Fail(error,
                     "rule '" + rule->name + "' wants at least one window");
    }
  }
  return true;
}

double EvalWindow(const AlertCondition& c, const MetricsHistory& history,
                  uint64_t window_ms, uint64_t now_ms) {
  const std::string metric =
      c.fragment.empty() ? c.metric : FragmentMetricName(c.metric, c.fragment);
  switch (c.agg) {
    case AlertCondition::Agg::kValue: {
      int64_t v = 0;
      return history.LatestGauge(metric, &v) ? static_cast<double>(v) : 0.0;
    }
    case AlertCondition::Agg::kRate:
      return history.RateOver(metric, window_ms, now_ms);
    case AlertCondition::Agg::kDelta:
      return static_cast<double>(history.DeltaOver(metric, window_ms, now_ms));
    case AlertCondition::Agg::kP50:
      return history.PercentileOver(metric, 0.50, window_ms, now_ms);
    case AlertCondition::Agg::kP90:
      return history.PercentileOver(metric, 0.90, window_ms, now_ms);
    case AlertCondition::Agg::kP99:
      return history.PercentileOver(metric, 0.99, window_ms, now_ms);
    case AlertCondition::Agg::kBurnRate: {
      double bad = history.RateOver(metric, window_ms, now_ms);
      double total = history.RateOver(c.denominator, window_ms, now_ms);
      if (total <= 0 || c.objective <= 0) return 0.0;
      return (bad / total) / c.objective;
    }
  }
  return 0.0;
}

bool Breaches(const AlertCondition& c, double value) {
  return c.op == '>' ? value > c.threshold : value < c.threshold;
}

std::set<std::string, std::less<>> CollectFragments(
    const std::vector<AlertRule>& rules) {
  std::set<std::string, std::less<>> out;
  for (const AlertRule& rule : rules) {
    if (!rule.condition.fragment.empty()) out.insert(rule.condition.fragment);
  }
  return out;
}

}  // namespace

std::string FragmentMetricName(std::string_view metric,
                               std::string_view fragment) {
  std::string out(metric);
  out += ".fragment.";
  out += fragment;
  return out;
}

bool ParseDurationMs(std::string_view text, uint64_t* out_ms) {
  size_t i = 0;
  uint64_t v = 0;
  bool digits = false;
  while (i < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i]))) {
    if (__builtin_mul_overflow(v, 10, &v) ||
        __builtin_add_overflow(v, static_cast<uint64_t>(text[i++] - '0'),
                               &v)) {
      return false;
    }
    digits = true;
  }
  if (!digits) return false;
  std::string_view unit = text.substr(i);
  uint64_t scale = 0;
  if (unit.empty() || unit == "ms") scale = 1;
  else if (unit == "s") scale = 1000;
  else if (unit == "m") scale = 60 * 1000;
  else if (unit == "h") scale = 60 * 60 * 1000;
  else return false;
  return !__builtin_mul_overflow(v, scale, out_ms);
}

bool ParseAlertRules(std::string_view json, std::vector<AlertRule>* out,
                     std::string* error) {
  out->clear();
  JsonParser p(json);
  // 0 until seen: a rule file must say which grammar it speaks.
  uint64_t version = 0;
  bool saw_rules = false;
  if (!p.Eat('{')) return p.Fail(error, "expected a rule-file object");
  if (!p.Eat('}')) {
    do {
      std::string key;
      if (!p.NextKey(&key)) return p.Fail(error, "expected key");
      if (key == "version") {
        if (!p.ParseUint(&version)) {
          return p.Fail(error, "version wants an integer");
        }
      } else if (key == "rules") {
        saw_rules = true;
        if (!p.Eat('[')) return p.Fail(error, "rules wants an array");
        if (!p.Eat(']')) {
          do {
            AlertRule rule;
            if (!ParseRuleObject(&p, &rule, error)) return false;
            out->push_back(std::move(rule));
          } while (p.Eat(','));
          if (!p.Eat(']')) return p.Fail(error, "unterminated rules array");
        }
      } else {
        return p.Fail(error, "unknown key '" + key + "'");
      }
    } while (p.Eat(','));
    if (!p.Eat('}')) return p.Fail(error, "unterminated rule-file object");
  }
  if (!p.AtEnd()) return p.Fail(error, "trailing content");
  if (version != 1) return p.Fail(error, "unsupported rules version");
  if (!saw_rules) return p.Fail(error, "missing \"rules\"");
  std::set<std::string> names;
  for (const AlertRule& rule : *out) {
    if (!names.insert(rule.name).second) {
      return p.Fail(error, "duplicate rule name '" + rule.name + "'");
    }
  }
  return true;
}

std::string AlertTransition::ToJson() const {
  return jsonutil::ToJson(*this);
}

bool ParseAlertLogLine(std::string_view line, AlertTransition* out,
                       std::string* error) {
  if (!jsonutil::FromJson(line, out, error)) return false;
  if (out->state != "pending" && out->state != "firing" &&
      out->state != "resolved") {
    return jsonutil::Fail(error, "unknown state '" + out->state + "'");
  }
  return true;
}

AlertLog::AlertLog(AlertLogOptions options)
    : options_(std::move(options)),
      sink_(options_.path, options_.append, options_.ring_capacity,
            "alert log") {}

void AlertLog::Record(const AlertTransition& transition) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  std::string line;
  if (sink_.has_file()) {
    line = transition.ToJson();
    line.push_back('\n');
  }
  sink_.Append(transition, line);
}

size_t AlertSnapshot::FiringNow() const {
  size_t n = 0;
  for (const AlertRuleStatus& r : rules) {
    if (r.state == "firing") ++n;
  }
  return n;
}

std::string AlertSnapshot::ToText() const {
  size_t pending = 0, firing = 0;
  for (const AlertRuleStatus& r : rules) {
    if (r.state == "pending") ++pending;
    if (r.state == "firing") ++firing;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "alerts (%zu rule%s): %zu firing, %zu pending | fired %llu, "
                "resolved %llu all-time\n",
                rules.size(), rules.size() == 1 ? "" : "s", firing, pending,
                static_cast<unsigned long long>(firing_total),
                static_cast<unsigned long long>(resolved_total));
  std::string out = buf;
  // Firing rules first — they are why anyone is looking at this panel —
  // then the rest in rule-file order.
  std::vector<const AlertRuleStatus*> ordered;
  ordered.reserve(rules.size());
  for (const AlertRuleStatus& r : rules) {
    if (r.state == "firing") ordered.push_back(&r);
  }
  for (const AlertRuleStatus& r : rules) {
    if (r.state != "firing") ordered.push_back(&r);
  }
  for (const AlertRuleStatus* r : ordered) {
    std::snprintf(buf, sizeof(buf),
                  "  %-8s %-24s value %.4g threshold %.4g severity %s",
                  r->state.c_str(), r->name.c_str(), r->value, r->threshold,
                  r->severity.c_str());
    out += buf;
    if (!r->fragment.empty()) {
      out += " fragment ";
      out += r->fragment;
    }
    if (r->fires > 0) {
      std::snprintf(buf, sizeof(buf), " fires %llu",
                    static_cast<unsigned long long>(r->fires));
      out += buf;
    }
    out.push_back('\n');
  }
  return out;
}

std::string AlertSnapshot::ToJson() const { return jsonutil::ToJson(*this); }

AlertEngine::AlertEngine(std::vector<AlertRule> rules,
                         AlertLogOptions log_options)
    : rules_(std::move(rules)),
      fragments_(CollectFragments(rules_)),
      log_(std::move(log_options)),
      states_(rules_.size()) {}

bool AlertEngine::WantsFragment(std::string_view fragment) const {
  return fragments_.count(fragment) != 0;
}

const char* AlertEngine::StateName(State s) {
  switch (s) {
    case State::kOk: return "ok";
    case State::kPending: return "pending";
    case State::kFiring: return "firing";
    case State::kResolved: return "resolved";
  }
  return "ok";
}

void AlertEngine::TransitionLocked(size_t i, State to, uint64_t now_ms,
                                   std::vector<AlertTransition>* out) {
  RuleState& st = states_[i];
  if (st.state == State::kFiring && to != State::kFiring) {
    firing_now_.fetch_sub(1, std::memory_order_relaxed);
  }
  switch (to) {
    case State::kPending:
      pending_total_.fetch_add(1, std::memory_order_relaxed);
      break;
    case State::kFiring:
      firing_total_.fetch_add(1, std::memory_order_relaxed);
      firing_now_.fetch_add(1, std::memory_order_relaxed);
      ++st.fires;
      break;
    case State::kResolved:
      resolved_total_.fetch_add(1, std::memory_order_relaxed);
      break;
    case State::kOk:
      break;
  }
  st.state = to;
  st.since_unix_ms = now_ms;
  if (to != State::kOk) {
    const AlertRule& rule = rules_[i];
    AlertTransition t;
    t.unix_ms = now_ms;
    t.rule = rule.name;
    t.state = StateName(to);
    t.severity = rule.severity;
    t.fragment = rule.condition.fragment;
    t.value = st.value;
    t.threshold = rule.condition.threshold;
    t.windows_ms = rule.condition.windows_ms;
    out->push_back(std::move(t));
  }
}

void AlertEngine::Evaluate(const MetricsHistory& history, uint64_t now_ms) {
  // Evaluate every condition before taking the state lock: history has its
  // own mutex and Snapshot() readers should never wait on window math.
  std::vector<bool> breach(rules_.size(), false);
  std::vector<double> value(rules_.size(), 0.0);
  for (size_t i = 0; i < rules_.size(); ++i) {
    const AlertCondition& c = rules_[i].condition;
    bool all = true;
    for (size_t w = 0; w < c.windows_ms.size(); ++w) {
      double v = EvalWindow(c, history, c.windows_ms[w], now_ms);
      if (w == 0) value[i] = v;  // the shortest window is the reported value
      if (!Breaches(c, v)) {
        all = false;
        break;
      }
    }
    breach[i] = all;
  }

  std::vector<AlertTransition> transitions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_eval_unix_ms_ = now_ms;
    for (size_t i = 0; i < rules_.size(); ++i) {
      const AlertRule& rule = rules_[i];
      RuleState& st = states_[i];
      st.value = value[i];
      if (breach[i]) {
        st.clear_since = 0;
        if (st.state == State::kOk || st.state == State::kResolved) {
          st.pending_since = now_ms;
          TransitionLocked(i, State::kPending, now_ms, &transitions);
        }
        if (st.state == State::kPending &&
            now_ms - st.pending_since >= rule.for_ms) {
          TransitionLocked(i, State::kFiring, now_ms, &transitions);
        }
      } else {
        switch (st.state) {
          case State::kPending:
            // The breach cleared before `for` elapsed — never fired, so
            // nothing to resolve; fall quietly back to ok.
            TransitionLocked(i, State::kOk, now_ms, &transitions);
            break;
          case State::kFiring:
            if (st.clear_since == 0) st.clear_since = now_ms;
            if (now_ms - st.clear_since >= rule.keep_ms) {
              TransitionLocked(i, State::kResolved, now_ms, &transitions);
            }
            break;
          case State::kOk:
          case State::kResolved:
            st.clear_since = 0;
            break;
        }
      }
    }
  }
  for (const AlertTransition& t : transitions) log_.Record(t);
}

AlertSnapshot AlertEngine::Snapshot() const {
  AlertSnapshot snap;
  snap.pending_total = pending_total();
  snap.firing_total = firing_total();
  snap.resolved_total = resolved_total();
  std::lock_guard<std::mutex> lock(mu_);
  snap.unix_ms = last_eval_unix_ms_;
  snap.rules.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    const RuleState& st = states_[i];
    AlertRuleStatus status;
    status.name = rule.name;
    status.severity = rule.severity;
    status.state = StateName(st.state);
    status.fragment = rule.condition.fragment;
    status.value = st.value;
    status.threshold = rule.condition.threshold;
    status.since_unix_ms = st.since_unix_ms;
    status.fires = st.fires;
    snap.rules.push_back(std::move(status));
  }
  return snap;
}

std::vector<std::pair<std::string, uint64_t>> AlertEngine::WatchdogEscalations()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    if (states_[i].state != State::kFiring) continue;
    if (rule.escalate_watchdog_wall_ms == 0) continue;
    if (rule.condition.fragment.empty()) continue;
    out.emplace_back(rule.condition.fragment, rule.escalate_watchdog_wall_ms);
  }
  return out;
}

}  // namespace rdfql
