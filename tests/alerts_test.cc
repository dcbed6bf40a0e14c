#include "obs/alerts.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "obs/history.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/random.h"
#include "workload/graph_generator.h"

namespace rdfql {
namespace {

// ---------------------------------------------------------------------------
// Rule-file grammar
// ---------------------------------------------------------------------------

TEST(AlertsTest, FragmentMetricNameComposes) {
  EXPECT_EQ(FragmentMetricName("engine.eval_ns", "SPARQL[AO]"),
            "engine.eval_ns.fragment.SPARQL[AO]");
}

TEST(AlertsTest, ParseDurationMs) {
  struct Case {
    const char* text;
    uint64_t want;
  };
  const Case good[] = {{"500", 500},     {"500ms", 500}, {"0", 0},
                       {"30s", 30000},   {"5m", 300000}, {"1h", 3600000},
                       {"90s", 90000},
                       {"18446744073709551615ms", UINT64_MAX}};
  for (const Case& c : good) {
    uint64_t ms = 0;
    EXPECT_TRUE(ParseDurationMs(c.text, &ms)) << c.text;
    EXPECT_EQ(ms, c.want) << c.text;
  }
  const char* bad[] = {"", "ms", "s", "5x", "-5s", "5 s", "1.5s", "s5",
                       // 64-bit overflow: in the digits (2^64 + 1, 2^64) or
                       // in the conversion to milliseconds.
                       "18446744073709551617ms", "18446744073709551616",
                       "5124095576030432h", "18446744073709551615s"};
  for (const char* text : bad) {
    uint64_t ms = 0;
    EXPECT_FALSE(ParseDurationMs(text, &ms)) << text;
  }
}

TEST(AlertsTest, ParseRulesAcceptsFullGrammarInAnyKeyOrder) {
  // The doc example with keys deliberately shuffled per rule.
  const std::string json = R"({"version":1,"rules":[
    {"windows":["30s","5m"],"severity":"page","agg":"p99",
     "metric":"engine.eval_ns","name":"opt-p99","fragment":"SPARQL[AO]",
     "op":">","threshold":"50ms","for":"10s","keep":"30s",
     "escalate_watchdog_wall_ms":100},
    {"name":"rejection-burn","agg":"burn_rate",
     "metric":"engine.queries_rejected","denominator":"engine.queries",
     "objective":0.01,"op":">","threshold":2,"windows":[60000,"10m"]}]})";
  std::vector<AlertRule> rules;
  std::string error;
  ASSERT_TRUE(ParseAlertRules(json, &rules, &error)) << error;
  ASSERT_EQ(rules.size(), 2u);

  const AlertRule& r0 = rules[0];
  EXPECT_EQ(r0.name, "opt-p99");
  EXPECT_EQ(r0.severity, "page");
  EXPECT_EQ(r0.condition.agg, AlertCondition::Agg::kP99);
  EXPECT_EQ(r0.condition.metric, "engine.eval_ns");
  EXPECT_EQ(r0.condition.fragment, "SPARQL[AO]");
  EXPECT_EQ(r0.condition.op, '>');
  // "50ms" in a *_ns threshold position converts to nanoseconds.
  EXPECT_DOUBLE_EQ(r0.condition.threshold, 50e6);
  EXPECT_EQ(r0.condition.windows_ms, (std::vector<uint64_t>{30000, 300000}));
  EXPECT_EQ(r0.for_ms, 10000u);
  EXPECT_EQ(r0.keep_ms, 30000u);
  EXPECT_EQ(r0.escalate_watchdog_wall_ms, 100u);

  const AlertRule& r1 = rules[1];
  EXPECT_EQ(r1.severity, "warn");  // default
  EXPECT_EQ(r1.condition.agg, AlertCondition::Agg::kBurnRate);
  EXPECT_EQ(r1.condition.denominator, "engine.queries");
  EXPECT_DOUBLE_EQ(r1.condition.objective, 0.01);
  EXPECT_DOUBLE_EQ(r1.condition.threshold, 2.0);
  EXPECT_EQ(r1.condition.windows_ms, (std::vector<uint64_t>{60000, 600000}));
  EXPECT_EQ(r1.for_ms, 0u);
  EXPECT_EQ(r1.keep_ms, 0u);
}

TEST(AlertsTest, ValueRuleDefaultsToWindowlessEvaluation) {
  std::vector<AlertRule> rules;
  std::string error;
  ASSERT_TRUE(ParseAlertRules(
      R"({"version":1,"rules":[{"name":"g","agg":"value",
          "metric":"engine.graph_bytes","op":">","threshold":1000}]})",
      &rules, &error))
      << error;
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].condition.windows_ms, (std::vector<uint64_t>{0}));
}

TEST(AlertsTest, ParseRulesRejectsMalformedFiles) {
  struct Case {
    const char* json;
    const char* want_error;
  };
  const Case cases[] = {
      {R"({"version":2,"rules":[]})", "unsupported rules version"},
      {R"({"rules":[]})", "unsupported rules version"},
      {R"({"version":1})", "missing \"rules\""},
      {R"({"version":1,"zzz":[],"rules":[]})", "unknown key"},
      {R"({"version":1,"rules":[{"agg":"rate","metric":"m",
           "windows":["1m"]}]})",
       "missing a name"},
      {R"({"version":1,"rules":[{"name":"r","agg":"rate",
           "windows":["1m"]}]})",
       "missing a metric"},
      {R"({"version":1,"rules":[{"name":"r","metric":"m",
           "windows":["1m"]}]})",
       "missing agg"},
      {R"({"version":1,"rules":[{"name":"r","agg":"rate","metric":"m",
           "windows":["1m"],"zzz":1}]})",
       "unknown rule key 'zzz'"},
      {R"({"version":1,"rules":[{"name":"r","agg":"rate","metric":"m"}]})",
       "at least one window"},
      {R"({"version":1,"rules":[{"name":"r","agg":"burn_rate","metric":"m",
           "objective":0.1,"windows":["1m"]}]})",
       "denominator"},
      {R"({"version":1,"rules":[{"name":"r","agg":"burn_rate","metric":"m",
           "denominator":"d","windows":["1m"]}]})",
       "objective"},
      {R"({"version":1,"rules":[
           {"name":"r","agg":"rate","metric":"m","windows":["1m"]},
           {"name":"r","agg":"rate","metric":"m","windows":["1m"]}]})",
       "duplicate rule name 'r'"},
      {R"({"version":1,"rules":[{"name":"r","agg":"rate","metric":"m",
           "windows":["1m"],"op":">="}]})",
       "op wants"},
      {R"({"version":1,"rules":[{"name":"r","agg":"mean","metric":"m",
           "windows":["1m"]}]})",
       "agg wants"},
      {R"({"version":1,"rules":[{"name":"r","agg":"rate","metric":"m",
           "windows":["1q"]}]})",
       "window"},
      {R"({"version":1,"rules":[{"name":"r","agg":"rate","metric":"m",
           "windows":["18446744073709551617ms"]}]})",
       "window"},
      {R"({"version":1,"rules":[{"name":"r","agg":"rate","metric":"m",
           "windows":["1m"],"threshold":"fast"}]})",
       "threshold"},
  };
  for (const Case& c : cases) {
    std::vector<AlertRule> rules;
    std::string error;
    EXPECT_FALSE(ParseAlertRules(c.json, &rules, &error)) << c.json;
    EXPECT_NE(error.find(c.want_error), std::string::npos)
        << "got '" << error << "', want substring '" << c.want_error << "'";
  }
}

// ---------------------------------------------------------------------------
// Alert log
// ---------------------------------------------------------------------------

AlertTransition SampleTransition() {
  AlertTransition t;
  t.unix_ms = 1700000002000;
  t.rule = "opt-p99";
  t.state = "firing";
  t.severity = "page";
  t.fragment = "SPARQL[AO]";
  t.value = 81.5e6;
  t.threshold = 50e6;
  t.windows_ms = {30000, 300000};
  return t;
}

TEST(AlertsTest, TransitionJsonRoundTrips) {
  AlertTransition t = SampleTransition();
  std::string json = t.ToJson();
  AlertTransition parsed;
  std::string error;
  ASSERT_TRUE(ParseAlertLogLine(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.unix_ms, t.unix_ms);
  EXPECT_EQ(parsed.rule, t.rule);
  EXPECT_EQ(parsed.state, t.state);
  EXPECT_EQ(parsed.severity, t.severity);
  EXPECT_EQ(parsed.fragment, t.fragment);
  EXPECT_DOUBLE_EQ(parsed.value, t.value);
  EXPECT_DOUBLE_EQ(parsed.threshold, t.threshold);
  EXPECT_EQ(parsed.windows_ms, t.windows_ms);
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(AlertsTest, ParseAlertLogLineRejectsMalformedRecords) {
  AlertTransition t = SampleTransition();
  t.state = "exploded";
  // A well-formed record whose unix_ms is 2^64: out of range, so it must
  // not wrap to 0.
  std::string overflow = SampleTransition().ToJson();
  overflow.replace(overflow.find("1700000002000"), 13, "18446744073709551616");
  std::vector<std::string> cases = {
      "",
      "{}",
      t.ToJson(),  // unknown state
      SampleTransition().ToJson().substr(0, 30),
      SampleTransition().ToJson() + "x",
      overflow,
  };
  for (const std::string& line : cases) {
    AlertTransition parsed;
    std::string error;
    EXPECT_FALSE(ParseAlertLogLine(line, &parsed, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(AlertsTest, LogKeepsBoundedRingAndAppendsToFile) {
  std::string path = ::testing::TempDir() + "/alerts_test_log.jsonl";
  std::remove(path.c_str());
  AlertLogOptions options;
  options.path = path;
  options.append = false;
  options.ring_capacity = 2;
  AlertLog log(options);
  ASSERT_TRUE(log.ok()) << log.error();
  for (int i = 0; i < 3; ++i) {
    AlertTransition t = SampleTransition();
    t.unix_ms = 1000 + static_cast<uint64_t>(i);
    log.Record(t);
  }
  EXPECT_EQ(log.recorded(), 3u);
  std::vector<AlertTransition> ring = log.Snapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].unix_ms, 1001u);
  EXPECT_EQ(ring[1].unix_ms, 1002u);
  log.Flush();
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    AlertTransition parsed;
    std::string error;
    EXPECT_TRUE(ParseAlertLogLine(line, &parsed, &error)) << error;
    ++lines;
  }
  EXPECT_EQ(lines, 3u);  // the file keeps everything; only the ring is bounded
  std::remove(path.c_str());
}

TEST(AlertsTest, LogReportsOpenFailure) {
  AlertLogOptions options;
  options.path = "/nonexistent-dir-zzz/alerts.jsonl";
  AlertLog log(options);
  EXPECT_FALSE(log.ok());
  EXPECT_FALSE(log.error().empty());
}

// ---------------------------------------------------------------------------
// State machine
// ---------------------------------------------------------------------------

/// Drives an AlertEngine with a synthetic clock: each Tick increments the
/// "err" counter by `inc`, records the registry into the history, and
/// evaluates the rules at `t`.
struct AlertHarness {
  MetricsRegistry reg;
  MetricsHistory history;

  void Tick(AlertEngine* engine, uint64_t inc, uint64_t t) {
    if (inc != 0) reg.GetCounter("err")->Inc(inc);
    history.Record(reg.Snapshot(), t);
    engine->Evaluate(history, t);
  }
};

std::vector<AlertRule> MustParse(const std::string& json) {
  std::vector<AlertRule> rules;
  std::string error;
  EXPECT_TRUE(ParseAlertRules(json, &rules, &error)) << error;
  return rules;
}

std::string RuleState(const AlertEngine& engine, size_t i = 0) {
  AlertSnapshot snap = engine.Snapshot();
  return i < snap.rules.size() ? snap.rules[i].state : "<missing>";
}

TEST(AlertStateMachineTest, PendingFiringResolvedWithForAndKeep) {
  AlertEngine engine(MustParse(
      R"({"version":1,"rules":[{"name":"err-rate","agg":"rate",
          "metric":"err","op":">","threshold":50,"windows":["2s"],
          "for":"2s","keep":"3s","severity":"page"}]})"));
  AlertHarness h;

  h.Tick(&engine, 0, 1000);  // baseline
  EXPECT_EQ(RuleState(engine), "ok");

  h.Tick(&engine, 100, 2000);  // rate 100/s > 50: breach begins
  EXPECT_EQ(RuleState(engine), "pending");
  EXPECT_EQ(engine.pending_total(), 1u);
  h.Tick(&engine, 100, 3000);  // held 1s < for: still pending
  EXPECT_EQ(RuleState(engine), "pending");
  h.Tick(&engine, 100, 4000);  // held 2s >= for: fires
  EXPECT_EQ(RuleState(engine), "firing");
  EXPECT_EQ(engine.firing_total(), 1u);
  EXPECT_EQ(engine.firing_now(), 1);
  EXPECT_EQ(engine.Snapshot().rules[0].fires, 1u);

  h.Tick(&engine, 0, 5000);  // rate drops to 50 (not > 50): clear begins
  EXPECT_EQ(RuleState(engine), "firing");
  h.Tick(&engine, 0, 6000);  // clear 1s < keep: hysteresis holds it firing
  EXPECT_EQ(RuleState(engine), "firing");
  h.Tick(&engine, 200, 7000);  // breach returns: the clear clock resets
  EXPECT_EQ(RuleState(engine), "firing");
  EXPECT_EQ(engine.firing_total(), 1u);  // no re-fire while already firing

  h.Tick(&engine, 0, 8000);  // the 7000 burst still in-window: breaching
  h.Tick(&engine, 0, 9000);  // clear begins here
  h.Tick(&engine, 0, 10000);
  h.Tick(&engine, 0, 11000);
  EXPECT_EQ(RuleState(engine), "firing");  // clear for 2s < keep 3s
  h.Tick(&engine, 0, 12000);               // clear for 3s: resolves
  EXPECT_EQ(RuleState(engine), "resolved");
  EXPECT_EQ(engine.resolved_total(), 1u);
  EXPECT_EQ(engine.firing_now(), 0);

  // A resolved rule re-arms: a new breach walks pending -> firing again.
  h.Tick(&engine, 200, 13000);
  EXPECT_EQ(RuleState(engine), "pending");
  h.Tick(&engine, 200, 14000);
  h.Tick(&engine, 200, 15000);
  EXPECT_EQ(RuleState(engine), "firing");
  EXPECT_EQ(engine.pending_total(), 2u);
  EXPECT_EQ(engine.firing_total(), 2u);
  EXPECT_EQ(engine.Snapshot().rules[0].fires, 2u);

  // Every transition was logged, in order.
  std::vector<AlertTransition> logged = engine.log()->Snapshot();
  std::vector<std::string> states;
  for (const AlertTransition& t : logged) states.push_back(t.state);
  EXPECT_EQ(states, (std::vector<std::string>{"pending", "firing", "resolved",
                                              "pending", "firing"}));
  EXPECT_EQ(logged[0].rule, "err-rate");
  EXPECT_EQ(logged[0].severity, "page");
  EXPECT_DOUBLE_EQ(logged[0].threshold, 50.0);
}

TEST(AlertStateMachineTest, PendingClearsSilentlyBeforeFor) {
  AlertEngine engine(MustParse(
      R"({"version":1,"rules":[{"name":"blip","agg":"rate",
          "metric":"err","op":">","threshold":50,"windows":["2s"],
          "for":"5s"}]})"));
  AlertHarness h;
  h.Tick(&engine, 0, 1000);
  h.Tick(&engine, 100, 2000);  // transient spike
  EXPECT_EQ(RuleState(engine), "pending");
  ASSERT_EQ(engine.log()->Snapshot().size(), 1u);
  h.Tick(&engine, 0, 3000);  // spike gone before `for` elapsed
  EXPECT_EQ(RuleState(engine), "ok");
  // Going back to ok is not an alert-worthy event: nothing new was logged.
  EXPECT_EQ(engine.log()->Snapshot().size(), 1u);
  EXPECT_EQ(engine.pending_total(), 1u);
  EXPECT_EQ(engine.firing_total(), 0u);
}

TEST(AlertStateMachineTest, ZeroForFiresAndZeroKeepResolvesSameTick) {
  AlertEngine engine(MustParse(
      R"({"version":1,"rules":[{"name":"fast","agg":"rate",
          "metric":"err","op":">","threshold":50,"windows":["2s"]}]})"));
  AlertHarness h;
  h.Tick(&engine, 0, 1000);
  h.Tick(&engine, 200, 2000);  // pending and firing in the same evaluation
  EXPECT_EQ(RuleState(engine), "firing");
  EXPECT_EQ(engine.pending_total(), 1u);
  EXPECT_EQ(engine.firing_total(), 1u);
  h.Tick(&engine, 0, 4001);  // window slides past the burst: clear resolves
  EXPECT_EQ(RuleState(engine), "resolved");
  std::vector<AlertTransition> logged = engine.log()->Snapshot();
  ASSERT_EQ(logged.size(), 3u);
  EXPECT_EQ(logged[0].state, "pending");
  EXPECT_EQ(logged[1].state, "firing");
  EXPECT_EQ(logged[2].state, "resolved");
  EXPECT_EQ(logged[0].unix_ms, logged[1].unix_ms);
}

TEST(AlertStateMachineTest, AllWindowsMustBreach) {
  AlertEngine engine(MustParse(
      R"({"version":1,"rules":[{"name":"burn-guard","agg":"rate",
          "metric":"err","op":">","threshold":60,
          "windows":["2s","4s"]}]})"));
  AlertHarness h;
  h.Tick(&engine, 0, 1000);
  for (uint64_t t = 2000; t <= 5000; t += 1000) h.Tick(&engine, 0, t);
  // One burst: the short window breaches (100/s) but the long one (50/s)
  // does not — the multi-window guard suppresses the transient spike.
  h.Tick(&engine, 200, 6000);
  EXPECT_EQ(RuleState(engine), "ok");
  // Sustained load: both windows breach.
  h.Tick(&engine, 200, 7000);
  h.Tick(&engine, 200, 8000);
  EXPECT_EQ(RuleState(engine), "firing");
  // The reported value is the first (shortest) window's evaluation.
  EXPECT_DOUBLE_EQ(engine.Snapshot().rules[0].value, 200.0);
}

TEST(AlertStateMachineTest, BurnRateComparesAgainstObjective) {
  AlertEngine engine(MustParse(
      R"({"version":1,"rules":[{"name":"burn","agg":"burn_rate",
          "metric":"err","denominator":"total","objective":0.1,
          "op":">","threshold":5,"windows":["2s"]}]})"));
  AlertHarness h;
  h.history.Record(h.reg.Snapshot(), 1000);
  engine.Evaluate(h.history, 1000);
  EXPECT_EQ(RuleState(engine), "ok");

  // 100 bad of 100 total against a 10% objective: burning 10x budget.
  h.reg.GetCounter("err")->Inc(100);
  h.reg.GetCounter("total")->Inc(100);
  h.history.Record(h.reg.Snapshot(), 2000);
  engine.Evaluate(h.history, 2000);
  EXPECT_EQ(RuleState(engine), "firing");
  EXPECT_DOUBLE_EQ(engine.Snapshot().rules[0].value, 10.0);

  // Healthy traffic dilutes the ratio below threshold: 100/200 over the
  // window is 5x budget, not strictly greater than 5.
  h.reg.GetCounter("total")->Inc(100);
  h.history.Record(h.reg.Snapshot(), 3000);
  engine.Evaluate(h.history, 3000);
  EXPECT_EQ(RuleState(engine), "resolved");
}

TEST(AlertStateMachineTest, BurnRateIsZeroWithoutDenominatorTraffic) {
  AlertEngine engine(MustParse(
      R"({"version":1,"rules":[{"name":"burn","agg":"burn_rate",
          "metric":"err","denominator":"total","objective":0.1,
          "op":">","threshold":1,"windows":["2s"]}]})"));
  AlertHarness h;
  h.Tick(&engine, 0, 1000);
  h.Tick(&engine, 100, 2000);  // errors but zero denominator traffic
  EXPECT_EQ(RuleState(engine), "ok");
  EXPECT_DOUBLE_EQ(engine.Snapshot().rules[0].value, 0.0);
}

TEST(AlertStateMachineTest, WatchdogEscalationsTrackFiringRules) {
  AlertEngine engine(MustParse(
      R"({"version":1,"rules":[
        {"name":"opt-slow","agg":"delta","op":">","threshold":0,
         "metric":"err","fragment":"SPARQL[AO]","windows":["2s"],
         "escalate_watchdog_wall_ms":123},
        {"name":"no-escalation","agg":"delta","op":">","threshold":0,
         "metric":"err","windows":["2s"]}]})"));
  EXPECT_TRUE(engine.wants_fragments());
  EXPECT_TRUE(engine.WantsFragment("SPARQL[AO]"));
  EXPECT_FALSE(engine.WantsFragment("SPARQL[A]"));

  MetricsRegistry reg;
  MetricsHistory history;
  history.Record(reg.Snapshot(), 1000);
  engine.Evaluate(history, 1000);
  EXPECT_TRUE(engine.WatchdogEscalations().empty());

  // A fragment-scoped rule reads the rewritten per-fragment series.
  reg.GetCounter(FragmentMetricName("err", "SPARQL[AO]"))->Inc(5);
  reg.GetCounter("err")->Inc(5);
  history.Record(reg.Snapshot(), 2000);
  engine.Evaluate(history, 2000);
  ASSERT_EQ(engine.Snapshot().rules.size(), 2u);
  EXPECT_EQ(RuleState(engine, 0), "firing");
  EXPECT_EQ(RuleState(engine, 1), "firing");
  std::vector<std::pair<std::string, uint64_t>> esc =
      engine.WatchdogEscalations();
  ASSERT_EQ(esc.size(), 1u);  // only the rule with an escalation budget
  EXPECT_EQ(esc[0].first, "SPARQL[AO]");
  EXPECT_EQ(esc[0].second, 123u);

  // Once the breach ages out of the window, both resolve and the
  // escalation is withdrawn.
  history.Record(reg.Snapshot(), 5000);
  engine.Evaluate(history, 5000);
  EXPECT_EQ(RuleState(engine, 0), "resolved");
  EXPECT_TRUE(engine.WatchdogEscalations().empty());
}

TEST(AlertStateMachineTest, SnapshotToTextListsFiringFirst) {
  AlertEngine engine(MustParse(
      R"({"version":1,"rules":[
        {"name":"quiet","agg":"delta","op":">","threshold":1000,
         "metric":"err","windows":["2s"]},
        {"name":"loud","agg":"delta","op":">","threshold":0,
         "metric":"err","windows":["2s"],"severity":"page"}]})"));
  AlertHarness h;
  h.Tick(&engine, 0, 1000);
  h.Tick(&engine, 5, 2000);
  AlertSnapshot snap = engine.Snapshot();
  EXPECT_EQ(snap.FiringNow(), 1u);
  std::string text = snap.ToText();
  EXPECT_NE(text.find("1 firing"), std::string::npos);
  EXPECT_NE(text.find("loud"), std::string::npos);
  EXPECT_NE(text.find("quiet"), std::string::npos);
  EXPECT_LT(text.find("loud"), text.find("quiet"));  // firing rules first
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"firing\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

void LoadTinyGraph(Engine* engine) {
  std::string triples;
  for (int i = 0; i < 8; ++i) {
    triples += "s" + std::to_string(i) + " p o" + std::to_string(i) + " .\n";
  }
  ASSERT_TRUE(engine->LoadGraphText("g", triples).ok());
}

TEST(AlertEngineIntegrationTest, SetAlertRulesValidatesInput) {
  Engine engine;
  Status bad = engine.SetAlertRules("not json");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.ToString().find("alert rules"), std::string::npos);

  ASSERT_TRUE(engine
                  .SetAlertRules(
                      R"({"version":1,"rules":[{"name":"q","agg":"delta",
                          "metric":"engine.queries","op":">","threshold":0,
                          "windows":["10s"]}]})")
                  .ok());
  ASSERT_NE(engine.alerts(), nullptr);
  ASSERT_NE(engine.history(), nullptr);

  // Rules are frozen while a sampler borrows them.
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine.StartTelemetry(options).ok());
  EXPECT_FALSE(engine.SetAlertRules(R"({"version":1,"rules":[]})").ok());
  EXPECT_FALSE(engine.ClearAlertRules().ok());
  engine.StopTelemetry();
  EXPECT_TRUE(engine.ClearAlertRules().ok());
  EXPECT_EQ(engine.alerts(), nullptr);
}

TEST(AlertEngineIntegrationTest, TicksEvaluateRulesAndExportCounters) {
  Engine engine;
  LoadTinyGraph(&engine);
  ASSERT_TRUE(engine
                  .SetAlertRules(
                      R"({"version":1,"rules":[{"name":"any-query",
                          "agg":"delta","metric":"engine.queries","op":">",
                          "threshold":0,"windows":["10s"],
                          "severity":"page"}]})")
                  .ok());
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine.StartTelemetry(options).ok());
  engine.telemetry()->TickNow();  // baseline history sample

  Result<MappingSet> r = engine.Query("g", "(?x p ?y)");
  ASSERT_TRUE(r.ok());
  engine.telemetry()->TickNow();  // records the delta and evaluates

  AlertSnapshot snap = engine.AlertSnapshot();
  ASSERT_EQ(snap.rules.size(), 1u);
  EXPECT_EQ(snap.rules[0].state, "firing");
  EXPECT_EQ(snap.FiringNow(), 1u);

  RegistrySnapshot metrics = engine.MetricsSnapshot();
  EXPECT_EQ(metrics.counters.at("engine.alerts_pending"), 1u);
  EXPECT_EQ(metrics.counters.at("engine.alerts_fired"), 1u);
  EXPECT_EQ(metrics.counters.at("engine.alerts_resolved"), 0u);
  EXPECT_EQ(metrics.gauges.at("engine.alerts_firing"), 1);
  EXPECT_EQ(metrics.gauges.count("engine.uptime_seconds"), 1u);

  // The telemetry snapshot carries the alert panel to rdfql_top.
  TelemetrySnapshot tsnap = engine.telemetry()->Snapshot();
  EXPECT_TRUE(tsnap.has_alerts);
  ASSERT_EQ(tsnap.alerts.rules.size(), 1u);
  EXPECT_EQ(tsnap.alerts.rules[0].state, "firing");
  engine.StopTelemetry();
}

TEST(AlertEngineIntegrationTest, QueryBeforeFirstTickReachesTheWindow) {
  // The sampler takes the history's baseline when it starts, so a query
  // that finishes before the first tick is that tick's delta, not part of
  // the baseline.
  Engine engine;
  LoadTinyGraph(&engine);
  ASSERT_TRUE(engine
                  .SetAlertRules(
                      R"({"version":1,"rules":[{"name":"any-query",
                          "agg":"delta","metric":"engine.queries","op":">",
                          "threshold":0,"windows":["10s"]}]})")
                  .ok());
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine.StartTelemetry(options).ok());
  ASSERT_TRUE(engine.Query("g", "(?x p ?y)").ok());
  engine.telemetry()->TickNow();
  ASSERT_EQ(engine.AlertSnapshot().rules.size(), 1u);
  EXPECT_EQ(engine.AlertSnapshot().rules[0].state, "firing");
  engine.StopTelemetry();
}

TEST(AlertEngineIntegrationTest, FragmentRulesKeyPerFragmentHistograms) {
  Engine engine;
  LoadTinyGraph(&engine);
  ASSERT_TRUE(engine
                  .SetAlertRules(
                      R"({"version":1,"rules":[{"name":"and-p99","agg":"p99",
                          "metric":"engine.eval_ns","fragment":"SPARQL[A]",
                          "op":">","threshold":"1h","windows":["10s"]}]})")
                  .ok());
  Result<MappingSet> a = engine.Query("g", "(?x p ?y) AND (?y p ?z)");
  ASSERT_TRUE(a.ok());
  Result<MappingSet> b = engine.Query("g", "(?x p ?y)");
  ASSERT_TRUE(b.ok());

  RegistrySnapshot metrics = engine.MetricsSnapshot();
  const std::string keyed =
      FragmentMetricName("engine.eval_ns", "SPARQL[A]");
  ASSERT_EQ(metrics.histograms.count(keyed), 1u);
  EXPECT_EQ(metrics.histograms.at(keyed).count, 1u);
  // Fragments no rule names are not recorded.
  EXPECT_EQ(metrics.histograms.count(
                FragmentMetricName("engine.eval_ns", "SPARQL[triple]")),
            0u);
}

TEST(AlertEngineIntegrationTest, FiringRuleEscalatesWatchdogBudget) {
  Engine engine;
  LoadTinyGraph(&engine);
  ASSERT_TRUE(engine
                  .SetAlertRules(
                      R"({"version":1,"rules":[{"name":"and-slow",
                          "agg":"p99","metric":"engine.eval_ns",
                          "fragment":"SPARQL[A]","op":">","threshold":0,
                          "windows":["10s"],
                          "escalate_watchdog_wall_ms":77}]})")
                  .ok());
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine.StartTelemetry(options).ok());
  engine.telemetry()->TickNow();
  EXPECT_EQ(engine.telemetry()->EffectiveWatchdog().For("SPARQL[A]").max_wall_ms,
            0u);

  ASSERT_TRUE(engine.Query("g", "(?x p ?y) AND (?y p ?z)").ok());
  engine.telemetry()->TickNow();  // any observed latency breaches "> 0"

  ASSERT_EQ(engine.AlertSnapshot().rules[0].state, "firing");
  EXPECT_EQ(engine.telemetry()->EffectiveWatchdog().For("SPARQL[A]").max_wall_ms,
            77u);
  engine.StopTelemetry();
}

// ---------------------------------------------------------------------------
// Bit-identical results with history + alerting enabled, across strategies
// and thread counts
// ---------------------------------------------------------------------------

class AlertsIdenticalTest
    : public ::testing::TestWithParam<std::tuple<int, EvalOptions::Join>> {};

TEST_P(AlertsIdenticalTest, ResultsAreBitIdentical) {
  auto [threads, join] = GetParam();
  Engine engine;
  Rng rng(7);
  engine.PutGraph("g",
                  GenerateRandomGraph(240, 12, engine.dict(), &rng, "n"));
  const std::string query =
      "(((?x n_p0 ?y) AND (?y n_p1 ?z)) OPT (?z n_p2 ?w)) "
      "UNION (?x n_p0 ?y)";
  EvalOptions options;
  options.threads = threads;
  options.join = join;
  Result<MappingSet> off = engine.Query("g", query, options);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  // Rules cover the query's own fragment so the per-fragment observation
  // path is exercised, not just the evaluation loop.
  ASSERT_TRUE(engine
                  .SetAlertRules(
                      R"({"version":1,"rules":[
                        {"name":"qps","agg":"rate","metric":"engine.queries",
                         "op":">","threshold":1e18,"windows":["30s","5m"]},
                        {"name":"frag-p99","agg":"p99",
                         "metric":"engine.eval_ns",
                         "fragment":"SPARQL[AUO]","op":">","threshold":0,
                         "windows":["30s"]}]})")
                  .ok());
  TelemetryOptions topts;
  topts.interval_ms = 0;
  ASSERT_TRUE(engine.StartTelemetry(topts).ok());
  engine.telemetry()->TickNow();
  Result<MappingSet> on = engine.Query("g", query, options);
  engine.telemetry()->TickNow();
  engine.StopTelemetry();
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  // Bit-identical: same mappings in the same insertion order.
  EXPECT_EQ(*off, *on);
  EXPECT_EQ(off->mappings(), on->mappings()) << "order differs";
}

INSTANTIATE_TEST_SUITE_P(
    Threads, AlertsIdenticalTest,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(EvalOptions::Join::kHash,
                                         EvalOptions::Join::kNestedLoop,
                                         EvalOptions::Join::kIndexNestedLoop)));

}  // namespace
}  // namespace rdfql
