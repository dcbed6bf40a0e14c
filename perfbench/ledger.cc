// The layer ledger: one closed-loop client driving the engine's public API
// on one workload, checking every answer, and printing end-to-end metrics
// (--trace 0) or per-layer metrics (--trace 1). The last stdout line is one
// JSON object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
//
//   perfbench_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--corrupt-oracle]
//
// --corrupt-oracle alters one expected answer; the run must then report the
// mismatch and exit nonzero. See GLOSSARY.md for every metric. The ledger
// also runs itself with --setup-only to time a set-up in a fresh process; it
// then prints "<setup seconds> <load us per ktriple>" and nothing else.

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/result_io.h"
#include "eval/reference_evaluator.h"
#include "parser/parser.h"
#include "rollup.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rdfql::Engine;
using rdfql::MappingSet;
using rdfql::Status;

// Set-ups per run; setup_s is their median. The first makes the engine the
// loop uses; the rest run in fresh processes spread over the first loop, so
// one stretch of host load cannot cover them all and no throwaway engine's
// memory stays in the measured process.
constexpr size_t kSetups = 15;
// The timed loop is cut into spans of this much timed time. A host probe
// runs between spans, and the end-to-end read metrics come from the spans
// whose probes ran no slower than this quantile of the spans' (see
// GLOSSARY.md, "Noise").
constexpr double kSpanS = 0.5;
constexpr double kKeptQuantile = 0.25;
// churn re-checks about one read in this many against ReferenceEval.
constexpr uint64_t kReferenceEvery = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args->corrupt = true;
      continue;
    }
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
      continue;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double LifetimePeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

// The process's resident high-water mark, reset through
// /proc/self/clear_refs ("5") so that set-up, the oracle and verification
// stay out of it. Where the kernel offers no reset, Mb() is the lifetime
// peak from getrusage and resettable() is false.
class HighWaterMark {
 public:
  HighWaterMark()
      : clear_fd_(open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC)),
        status_fd_(open("/proc/self/status", O_RDONLY | O_CLOEXEC)) {
    resettable_ = clear_fd_ >= 0 && status_fd_ >= 0 && Reset() &&
                  ReadStatusKb() > 0;
  }
  ~HighWaterMark() {
    if (clear_fd_ >= 0) close(clear_fd_);
    if (status_fd_ >= 0) close(status_fd_);
  }
  HighWaterMark(const HighWaterMark&) = delete;
  HighWaterMark& operator=(const HighWaterMark&) = delete;

  bool resettable() const { return resettable_; }
  // Lowers the mark to the current resident size.
  bool Reset() { return clear_fd_ >= 0 && write(clear_fd_, "5", 1) == 1; }
  // The mark since the last Reset, in MB.
  double Mb() const {
    return resettable_ ? ReadStatusKb() / 1024.0 : LifetimePeakRssMb();
  }

 private:
  // VmHWM from /proc/self/status in KiB, or 0.
  double ReadStatusKb() const {
    char buf[8192];
    ssize_t n = pread(status_fd_, buf, sizeof(buf) - 1, 0);
    if (n <= 0) return 0;
    buf[n] = '\0';
    const char* line = std::strstr(buf, "VmHWM:");
    return line == nullptr ? 0 : std::strtod(line + 6, nullptr);
  }

  int clear_fd_;
  int status_fd_;
  bool resettable_ = false;
};

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Per-layer samples gathered on the traced half of a --trace 1 run.
struct Layers {
  uint64_t reads = 0;
  std::vector<double> parse_us, facade_us, eval_us, serialize_us,
      cache_hit_us;
  double dedup_ns = 0, dedup_rows = 0;
  PlanRollup rollup;
  double total_mappings = 0;
  uint64_t peak_mappings = 0, peak_bytes = 0;
  uint64_t plan_hits = 0, plan_misses = 0, result_hits = 0,
           result_misses = 0, evictions = 0;
  uint64_t counter_mismatches = 0;
};

struct LoopResult {
  std::vector<double> read_us, write_us, insert_us, publish_us;
  std::vector<int> read_kind;  // Op::kind of each read
  std::vector<int> read_span;  // span of each read
  // Per span: timed time (reads and writes), and the probe before it; one
  // more probe follows the last span.
  std::vector<double> span_s, probe_us;
  uint64_t attempted = 0, failed = 0;
  double timed_s = 0, wall_s = 0;
  double cpu_s = 0;    // process CPU over the timed operations only
  double trace_s = 0;  // traced loop: the layer-by-layer re-runs
  double peak_rss_mb = 0;  // resident high-water mark over timed operations
  // Engine pool deltas (multi-threaded workloads).
  uint64_t pool_tasks = 0;
  double pool_wait_ns = 0, pool_waits = 0, pool_run_ns = 0, pool_runs = 0;
};

uint64_t CounterOf(const rdfql::RegistrySnapshot& s, const std::string& n) {
  auto it = s.counters.find(n);
  return it == s.counters.end() ? 0 : it->second;
}

const rdfql::RegistrySnapshot::HistogramData* HistOf(
    const rdfql::RegistrySnapshot& s, const std::string& n) {
  auto it = s.histograms.find(n);
  return it == s.histograms.end() ? nullptr : &it->second;
}

// A fixed piece of CPU and memory work, separate from the engine: how long
// it takes says how much the host's other tenants slow this process, and no
// change to the engine can move it. Its buffer is mapped only while it runs,
// so it never adds to the resident size the loop measures.
class HostProbe {
 public:
  // Best of three runs of the work, in microseconds; 0 if no memory.
  double Us() {
    constexpr size_t kWords = size_t{1} << 19;  // 4 MiB
    void* mem = mmap(nullptr, kWords * sizeof(uint64_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    if (mem == MAP_FAILED) return 0;
    uint64_t* buf = static_cast<uint64_t*>(mem);
    std::fill(buf, buf + kWords, 1);
    double best = 0;
    for (int i = 0; i < 3; ++i) {
      uint64_t t0 = NowNs();
      uint64_t x = ++seed_;
      for (int k = 0; k < 50000; ++k) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        buf[(x >> 33) % kWords] += x;
      }
      sink_ = sink_ + x;
      double us = (NowNs() - t0) / 1e3;
      if (i == 0 || us < best) best = us;
    }
    munmap(mem, kWords * sizeof(uint64_t));
    return best;
  }

 private:
  uint64_t seed_ = 0;
  volatile uint64_t sink_ = 0;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args), verify_rng_(args.seed ^ 0x0dd5eedULL) {}

  // Generates the inputs, sets up the engine the loop uses, and computes the
  // oracle. False on any set-up error.
  bool Prepare();
  // --setup-only: generates the inputs, sets up once and prints the times.
  int SetUpOnly();
  LoopResult Loop(double budget_s, Layers* layers);

  uint64_t oracle_failures() const { return oracle_failures_; }
  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::vector<double>& load_us_per_ktriple() const {
    return load_us_per_ktriple_;
  }
  const Inputs& inputs() const { return inputs_; }
  // Number of read kinds and their display names (see Op::kind).
  int num_kinds() const {
    return static_cast<int>(texts_.size()) + (spec_.writes ? 1 : 0);
  }
  std::string kind_name(int kind) const {
    int fixed = static_cast<int>(inputs_.fixed.size());
    if (kind < fixed) return inputs_.fixed[kind].name;
    if (kind < static_cast<int>(texts_.size())) return "rewrite";
    return kLookupName;
  }
  bool rss_resettable() const { return hwm_.resettable(); }
  double bytes_per_triple() const { return bytes_per_triple_; }
  uint64_t reference_checks() const { return reference_checks_; }

 private:
  // One timed set-up in this process; the rig becomes the one the loop uses.
  bool SetUpOnce();
  // Times one set-up in a fresh copy of this program (--setup-only).
  bool SetUpInChild();
  bool Verify(const Op& op, const MappingSet& set, const std::string& json);
  void TraceRead(const Op& op, uint64_t entry_ns,
                 const rdfql::QueryCacheStats& before, Layers* layers);
  Engine* engine() { return rig_->engine.get(); }

  const WorkloadSpec& spec_;
  Args args_;
  Inputs inputs_;
  std::vector<std::string> texts_;
  std::vector<double> setup_s_, load_us_per_ktriple_;
  double bytes_per_triple_ = 0;
  std::unique_ptr<Rig> rig_;
  std::unique_ptr<OpStream> ops_;
  std::unique_ptr<Churner> churner_;
  std::unique_ptr<rdfql::ThreadPool> pool_;  // traced EvalChecked calls
  // Read-only workloads: ReferenceEval of each fixed text.
  std::vector<MappingSet> expected_;
  // churn: expected JSON per text for the current graph state.
  std::unordered_map<std::string, std::string> expected_json_;
  rdfql::Rng verify_rng_;
  HighWaterMark hwm_;
  HostProbe probe_;
  uint64_t oracle_failures_ = 0;
  uint64_t reference_checks_ = 0;
  bool corrupt_pending_ = false;
};

bool Bench::SetUpOnce() {
  uint64_t t0 = NowNs();
  rdfql::Result<std::unique_ptr<Rig>> rig = SetUp(spec_, inputs_);
  double seconds = (NowNs() - t0) / 1e9;
  if (!rig.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 rig.status().ToString().c_str());
    return false;
  }
  rig_ = std::move(rig).value();
  setup_s_.push_back(seconds);
  load_us_per_ktriple_.push_back(rig_->load_ns / 1e3 /
                                 (inputs_.triples / 1e3));
  return true;
}

bool Bench::SetUpInChild() {
  std::string seed = std::to_string(args_.seed);
  const char* argv[] = {"perfbench_ledger", "--workload", spec_.name.c_str(),
                        "--seed", seed.c_str(), "--setup-only", nullptr};
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", const_cast<char* const*>(argv));
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n;
  while (pid > 0 && (n = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "set-up process failed\n");
    return false;
  }
  double seconds = 0, load_us = 0;
  if (std::sscanf(out.c_str(), "%lf %lf", &seconds, &load_us) != 2) {
    return false;
  }
  setup_s_.push_back(seconds);
  load_us_per_ktriple_.push_back(load_us);
  return true;
}

int Bench::SetUpOnly() {
  inputs_ = GenerateInputs(spec_, args_.seed);
  if (!SetUpOnce()) return 1;
  std::printf("%.17g %.17g\n", setup_s_[0], load_us_per_ktriple_[0]);
  return 0;
}

bool Bench::Prepare() {
  inputs_ = GenerateInputs(spec_, args_.seed);
  if (!SetUpOnce()) return false;
  const rdfql::Graph* graph = *engine()->GetGraph(kGraph);
  bytes_per_triple_ = Ratio(graph->ApproxBytes(), graph->size());
  std::string().swap(inputs_.graph_text);  // loaded; not needed any more

  for (const NamedQuery& q : inputs_.fixed) texts_.push_back(q.text);
  if (!rig_->rewrite_text.empty()) texts_.push_back(rig_->rewrite_text);
  ops_ = std::make_unique<OpStream>(spec_, inputs_, texts_, args_.seed);
  if (spec_.writes) {
    churner_ = std::make_unique<Churner>(inputs_, args_.seed);
    corrupt_pending_ = args_.corrupt;
    return true;
  }
  for (const std::string& text : texts_) {
    rdfql::Result<rdfql::PatternPtr> pattern = engine()->Parse(text);
    if (!pattern.ok()) {
      std::fprintf(stderr, "oracle parse failed: %s\n",
                   pattern.status().ToString().c_str());
      return false;
    }
    expected_.push_back(rdfql::ReferenceEval(*graph, *pattern));
  }
  if (spec_.people > 0) {
    // Thm 5.1: for this well-designed OPT the three encodings agree.
    for (size_t i = 1; i < expected_.size(); ++i) {
      if (expected_[i] != expected_[0]) {
        std::fprintf(stderr, "encoding %zu disagrees with OPT\n", i);
        ++oracle_failures_;
      }
    }
  }
  if (args_.corrupt) {
    std::vector<rdfql::Mapping> rows = expected_[0].mappings();
    if (!rows.empty()) rows.pop_back();
    expected_[0] = MappingSet::FromList(rows);
  }
  return true;
}

bool Bench::Verify(const Op& op, const MappingSet& set,
                   const std::string& json) {
  if (!spec_.writes) return set == expected_[op.fixed];
  const rdfql::Graph* graph = *engine()->GetGraph(kGraph);
  const rdfql::Dictionary& dict = *engine()->dict();
  auto it = expected_json_.find(op.text);
  bool sample = verify_rng_.NextBelow(kReferenceEvery) == 0;
  rdfql::PatternPtr pattern;
  if (it == expected_json_.end() || sample) {
    rdfql::Result<rdfql::PatternPtr> parsed = engine()->Parse(op.text);
    if (!parsed.ok()) return false;
    pattern = *parsed;
  }
  if (it == expected_json_.end()) {
    // The uncached production evaluator on the current graph state.
    std::string expected =
        rdfql::WriteResultsJson(rdfql::EvalPattern(*graph, pattern), dict);
    if (corrupt_pending_) {
      expected += " ";
      corrupt_pending_ = false;
    }
    it = expected_json_.emplace(op.text, std::move(expected)).first;
  }
  bool ok = json == it->second;
  if (sample) {
    ++reference_checks_;
    ok = ok && rdfql::WriteResultsJson(rdfql::ReferenceEval(*graph, pattern),
                                       dict) == json;
  }
  return ok;
}

LoopResult Bench::Loop(double budget_s, Layers* layers) {
  LoopResult r;
  Engine* e = engine();
  // Verification runs outside the timers, so bound the wall clock too.
  const double wall_cap_s = budget_s * 2.5 + 5;
  rdfql::RegistrySnapshot pool0;
  if (spec_.threads > 1) pool0 = e->MetricsSnapshot();
  uint64_t wall0 = NowNs();
  double span_end_s = 0;
  for (;;) {
    double wall_s = (NowNs() - wall0) / 1e9;
    double spent = layers != nullptr ? wall_s : r.timed_s;
    if (spent >= budget_s || wall_s >= wall_cap_s) break;
    if (r.timed_s >= span_end_s) {
      // Between spans: the set-ups due by now, then the probe.
      double due = 1 + (kSetups - 1) * std::min(1.0, spent / budget_s);
      while (setup_s_.size() < kSetups && setup_s_.size() < due) {
        if (!SetUpInChild()) ++r.failed;
      }
      r.probe_us.push_back(probe_.Us());
      r.span_s.push_back(0);
      span_end_s += kSpanS;
    }
    Op op = ops_->Next();
    ++r.attempted;
    hwm_.Reset();
    if (op.write) {
      uint64_t insert_ns = 0, publish_ns = 0;
      double cpu0 = CpuSeconds();
      uint64_t t0 = NowNs();
      Status st = churner_->Write(e, &insert_ns, &publish_ns);
      uint64_t dt = NowNs() - t0;
      r.cpu_s += CpuSeconds() - cpu0;
      r.peak_rss_mb = std::max(r.peak_rss_mb, hwm_.Mb());
      r.write_us.push_back(dt / 1e3);
      r.timed_s += dt / 1e9;
      r.span_s.back() += dt / 1e9;
      r.insert_us.push_back(insert_ns / 1e3);
      if (publish_ns != 0) r.publish_us.push_back(publish_ns / 1e3);
      expected_json_.clear();
      if (!st.ok()) {
        std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
        ++r.failed;
      }
      continue;
    }
    rdfql::QueryCacheStats before;
    if (layers != nullptr && rig_->cache != nullptr) {
      before = rig_->cache->Stats();
    }
    MappingSet set;
    std::string json;
    double cpu0 = CpuSeconds();
    uint64_t t0 = NowNs();
    Status st = Read(spec_, e, op.text, &set, &json);
    uint64_t dt = NowNs() - t0;
    r.cpu_s += CpuSeconds() - cpu0;
    r.peak_rss_mb = std::max(r.peak_rss_mb, hwm_.Mb());
    r.read_us.push_back(dt / 1e3);
    r.timed_s += dt / 1e9;
    r.span_s.back() += dt / 1e9;
    r.read_kind.push_back(op.kind);
    r.read_span.push_back(static_cast<int>(r.span_s.size()) - 1);
    if (!st.ok()) {
      std::fprintf(stderr, "read failed: %s\n", st.ToString().c_str());
      ++r.failed;
      continue;
    }
    if (!Verify(op, set, json)) {
      std::fprintf(stderr, "wrong answer: %s\n", op.text.c_str());
      ++r.failed;
    }
    if (layers != nullptr) {
      uint64_t trace0 = NowNs();
      TraceRead(op, dt, before, layers);
      r.trace_s += (NowNs() - trace0) / 1e9;
    }
  }
  r.wall_s = (NowNs() - wall0) / 1e9;
  r.probe_us.push_back(probe_.Us());
  while (setup_s_.size() < kSetups) {
    if (!SetUpInChild()) ++r.failed;
  }
  if (spec_.threads > 1) {
    rdfql::RegistrySnapshot pool1 = e->MetricsSnapshot();
    r.pool_tasks = CounterOf(pool1, "pool.tasks_total") -
                   CounterOf(pool0, "pool.tasks_total");
    auto delta = [&](const std::string& name, double* sum, double* count) {
      const auto* h1 = HistOf(pool1, name);
      const auto* h0 = HistOf(pool0, name);
      if (h1 == nullptr) return;
      *sum = static_cast<double>(h1->sum) - (h0 != nullptr ? h0->sum : 0);
      *count = static_cast<double>(h1->count) - (h0 != nullptr ? h0->count : 0);
    };
    delta("pool.queue_delay_ns", &r.pool_wait_ns, &r.pool_waits);
    delta("pool.run_ns", &r.pool_run_ns, &r.pool_runs);
  }
  return r;
}

// Re-runs one read layer by layer: ParsePattern, Evaluator::EvalChecked,
// MappingSet::FromList and WriteResultsJson timed from here, and the
// EXPLAIN ANALYZE plan rolled up by operator.
void Bench::TraceRead(const Op& op, uint64_t entry_ns,
                      const rdfql::QueryCacheStats& before, Layers* layers) {
  Engine* e = engine();
  ++layers->reads;
  bool result_hit = false;
  bool parsed_by_engine = true;
  if (rig_->cache != nullptr) {
    rdfql::QueryCacheStats after = rig_->cache->Stats();
    layers->plan_hits += after.plan_hits - before.plan_hits;
    layers->plan_misses += after.plan_misses - before.plan_misses;
    layers->result_hits += after.result_hits - before.result_hits;
    layers->result_misses += after.result_misses - before.result_misses;
    layers->evictions += after.evictions() - before.evictions();
    result_hit = after.result_hits > before.result_hits;
    parsed_by_engine = after.plan_misses > before.plan_misses;
    if (result_hit) layers->cache_hit_us.push_back(entry_ns / 1e3);
  }

  uint64_t t0 = NowNs();
  rdfql::Result<rdfql::PatternPtr> pattern =
      rdfql::ParsePattern(op.text, e->dict());
  uint64_t parse_ns = NowNs() - t0;
  if (!pattern.ok()) {  // the entry point parsed it, so this is a bug
    ++layers->counter_mismatches;
    return;
  }
  layers->parse_us.push_back(parse_ns / 1e3);

  rdfql::EvalOptions options;
  if (spec_.threads > 1) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<rdfql::ThreadPool>(spec_.threads);
    }
    options.threads = spec_.threads;
    options.pool = pool_.get();
  }
  const rdfql::Graph* graph = *e->GetGraph(kGraph);
  t0 = NowNs();
  rdfql::Result<MappingSet> result =
      rdfql::Evaluator(graph, options).EvalChecked(*pattern);
  uint64_t eval_ns = NowNs() - t0;
  if (!result.ok()) {
    ++layers->counter_mismatches;
    return;
  }
  layers->eval_us.push_back(eval_ns / 1e3);

  t0 = NowNs();
  MappingSet dedup = MappingSet::FromList(result->mappings());
  layers->dedup_ns += NowNs() - t0;
  layers->dedup_rows += result->size();

  t0 = NowNs();
  std::string json = rdfql::WriteResultsJson(*result, *e->dict());
  uint64_t serialize_ns = NowNs() - t0;
  layers->serialize_us.push_back(serialize_ns / 1e3);

  if (!result_hit) {
    double facade = static_cast<double>(entry_ns) - eval_ns -
                    (parsed_by_engine ? parse_ns : 0) -
                    (spec_.cache ? serialize_ns : 0);
    layers->facade_us.push_back(facade / 1e3);
  }

  // The plan, with metrics on, so its counters can be checked against the
  // registry's eval.* counters for the same query.
  bool metrics_were_on = e->metrics_enabled();
  e->EnableMetrics(true);
  rdfql::RegistrySnapshot s0 = e->MetricsSnapshot();
  rdfql::EvalOptions explain_options;
  explain_options.use_plan_cache = rdfql::CacheMode::kOff;
  explain_options.use_result_cache = rdfql::CacheMode::kOff;
  rdfql::Result<rdfql::QueryExplanation> explained =
      e->QueryExplained(kGraph, op.text, explain_options);
  rdfql::RegistrySnapshot s1 = e->MetricsSnapshot();
  e->EnableMetrics(metrics_were_on);
  if (!explained.ok() || explained->explanation.plan == nullptr) {
    ++layers->counter_mismatches;
    return;
  }
  PlanRollup one;
  one.Add(*explained->explanation.plan);
  layers->rollup.Add(*explained->explanation.plan);
  for (const char* name :
       {"join_probes", "index_probes", "ns_pairs_compared", "filter_evals"}) {
    std::string metric = std::string("eval.") + name;
    uint64_t registry = CounterOf(s1, metric) - CounterOf(s0, metric);
    if (registry != one.CounterTotal(name)) {
      std::fprintf(stderr, "%s: plan %" PRIu64 " != registry %" PRIu64 "\n",
                   metric.c_str(), one.CounterTotal(name), registry);
      ++layers->counter_mismatches;
    }
  }
  layers->total_mappings += explained->total_mappings;
  layers->peak_mappings =
      std::max<uint64_t>(layers->peak_mappings, explained->peak_mappings);
  layers->peak_bytes =
      std::max<uint64_t>(layers->peak_bytes, explained->peak_bytes);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool in_json;  // false: printed in the report only (see GLOSSARY.md)
};

std::vector<Metric> EndToEnd(const Bench& bench, const LoopResult& r,
                             uint64_t failed) {
  // A span's host figure is the slower of the probes around it; the
  // quietest spans are kept. The probes do not depend on what the engine
  // did, so the kept spans are a fair sample of its work.
  size_t spans = r.span_s.size();
  std::vector<double> figure(spans);
  for (size_t s = 0; s < spans; ++s) {
    figure[s] = std::max(r.probe_us[s], r.probe_us[s + 1]);
  }
  double cut = Quantile(figure, kKeptQuantile);
  std::vector<bool> kept(spans);
  double kept_s = 0;
  size_t kept_spans = 0;
  for (size_t s = 0; s < spans; ++s) {
    kept[s] = figure[s] <= cut;
    if (!kept[s]) continue;
    kept_s += r.span_s[s];
    ++kept_spans;
  }
  std::printf("# host probe: %zu spans of %.1f s, %zu kept (probe <= %.0fus;"
              " fastest %.0fus, slowest %.0fus)\n",
              spans, kSpanS, kept_spans, cut, Quantile(figure, 0),
              Quantile(figure, 1));
  std::vector<std::vector<double>> by_kind(bench.num_kinds());
  std::vector<double> kept_us;
  for (size_t i = 0; i < r.read_us.size(); ++i) {
    if (!kept[r.read_span[i]]) continue;
    by_kind[r.read_kind[i]].push_back(r.read_us[i]);
    kept_us.push_back(r.read_us[i]);
  }
  // A pooled percentile of a mix sits between two query kinds and jumps
  // between them from run to run; a geometric mean of per-kind percentiles,
  // each weighted by its kind's share of the reads, does not.
  double log_p50 = 0, log_p90 = 0;
  double reads = static_cast<double>(kept_us.size());
  for (int k = 0; k < bench.num_kinds(); ++k) {
    const std::vector<double>& lat = by_kind[k];
    std::printf("# %-24s n=%-6zu p50=%.1fus p90=%.1fus p99=%.1fus\n",
                bench.kind_name(k).c_str(), lat.size(), Quantile(lat, 0.5),
                Quantile(lat, 0.9), Quantile(lat, 0.99));
    if (lat.empty()) continue;
    double share = lat.size() / reads;
    log_p50 += share * std::log(Quantile(lat, 0.5));
    log_p90 += share * std::log(Quantile(lat, 0.9));
  }
  std::printf("# read latency samples n=%zu of %zu, over %.2f of %.2f s of"
              " timed operations\n",
              kept_us.size(), r.read_us.size(), kept_s, r.timed_s);
  if (!bench.rss_resettable()) {
    std::printf("# peak_rss_mb: no high-water reset here; lifetime peak\n");
  }
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(bench.setup_s()), "s", true});
  m.push_back({"queries_per_s", Ratio(reads, kept_s), "1/s", true});
  m.push_back({"query_p50_us", reads == 0 ? 0 : std::exp(log_p50), "us",
               true});
  m.push_back({"query_p90_us", reads == 0 ? 0 : std::exp(log_p90), "us",
               false});
  m.push_back({"query_p99_us", Quantile(kept_us, 0.99), "us", false});
  if (!r.write_us.empty()) {
    m.push_back({"update_p50_us", Quantile(r.write_us, 0.5), "us", false});
    m.push_back({"update_p99_us", Quantile(r.write_us, 0.99), "us", false});
  }
  m.push_back({"error_rate", Ratio(failed, r.attempted), "fraction", false});
  m.push_back({"peak_rss_mb", r.peak_rss_mb, "MB", true});
  return m;
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Bench& bench,
                             const LoopResult& untraced,
                             const LoopResult& traced, const Layers& l) {
  std::vector<Metric> m;
  double reads = static_cast<double>(l.reads);
  auto per_read = [&](double v) { return Ratio(v, reads); };
  m.push_back({"parser.parse_us", Median(l.parse_us), "us", true});
  m.push_back({"core.facade_us", Median(l.facade_us), "us", true});
  m.push_back({"core.result_hit_ratio",
               Ratio(l.result_hits, l.result_hits + l.result_misses),
               "fraction", true});
  m.push_back({"core.plan_hit_ratio",
               Ratio(l.plan_hits, l.plan_hits + l.plan_misses), "fraction",
               true});
  m.push_back({"core.cache_evictions", static_cast<double>(l.evictions),
               "count", true});
  if (spec.cache) {
    m.push_back({"core.cache_hit_us", Median(l.cache_hit_us), "us", false});
  }
  m.push_back({"eval.eval_us", Median(l.eval_us), "us", true});
  const auto& ops = OpNames();
  // The JSON rule (GLOSSARY.md, "Which metrics are in BENCHMARK.json"): a
  // time goes in only if every workload runs it; a count or ratio only if
  // some workload makes it nonzero. No workload runs FILTER.
  for (int i = 0; i < kNumOps; ++i) {
    bool everywhere = ops[i] != "FILTER" && ops[i] != "SELECT" &&
                      ops[i] != "MINUS";
    double self_us = per_read(l.rollup.op(i).self_ns / 1e3);
    if (everywhere || self_us > 0) {
      m.push_back({"eval.self_us." + ops[i], self_us, "us", everywhere});
    }
  }
  for (int i = 0; i < kNumOps; ++i) {
    m.push_back({"eval.rows_out." + ops[i],
                 per_read(l.rollup.op(i).rows_out), "count",
                 ops[i] != "FILTER"});
  }
  uint64_t and_probes = 0, opt_probes = 0, and_rows = 0, opt_rows = 0;
  for (int i = 0; i < kNumOps; ++i) {
    const OpTotals& t = l.rollup.op(i);
    if (ops[i] == "AND" || ops[i] == "OPT" || ops[i] == "MINUS") {
      m.push_back({"eval.join_probes." + ops[i], per_read(t.join_probes),
                   "count", true});
    }
    if (ops[i] == "AND") and_probes = t.join_probes, and_rows = t.rows_out;
    if (ops[i] == "OPT") opt_probes = t.join_probes, opt_rows = t.rows_out;
  }
  m.push_back({"eval.index_probes",
               per_read(l.rollup.CounterTotal("index_probes")), "count",
               true});
  m.push_back({"eval.ns_pairs_compared",
               per_read(l.rollup.CounterTotal("ns_pairs_compared")), "count",
               true});
  m.push_back({"eval.filter_evals",
               per_read(l.rollup.CounterTotal("filter_evals")), "count",
               false});
  m.push_back({"eval.yield.AND", Ratio(and_rows, and_probes), "ratio", true});
  m.push_back({"eval.yield.OPT", Ratio(opt_rows, opt_probes), "ratio", true});
  m.push_back({"eval.cross_frac.AND",
               Ratio(and_probes, l.rollup.and_pairs()), "fraction", true});
  m.push_back({"algebra.total_mappings", per_read(l.total_mappings), "count",
               true});
  m.push_back({"algebra.peak_mappings", static_cast<double>(l.peak_mappings),
               "count", true});
  m.push_back({"algebra.peak_bytes", static_cast<double>(l.peak_bytes),
               "bytes", true});
  m.push_back({"algebra.dedup_ns_per_row", Ratio(l.dedup_ns, l.dedup_rows),
               "ns", true});
  m.push_back({"algebra.serialize_us", Median(l.serialize_us), "us", true});
  m.push_back({"rdf.load_us_per_ktriple", Median(bench.load_us_per_ktriple()),
               "us", true});
  m.push_back({"rdf.bytes_per_triple", bench.bytes_per_triple(), "bytes",
               true});
  if (spec.writes) {
    m.push_back({"rdf.insert_us", Median(traced.insert_us), "us", false});
    m.push_back({"rdf.publish_us", Median(traced.publish_us), "us", false});
  }
  m.push_back({"util.pool_tasks",
               Ratio(untraced.pool_tasks, untraced.read_us.size()), "count",
               true});
  if (spec.threads > 1) {
    m.push_back({"util.pool_queue_wait_us",
                 Ratio(untraced.pool_wait_ns / 1e3, untraced.pool_waits),
                 "us", false});
    m.push_back({"util.pool_run_us",
                 Ratio(untraced.pool_run_ns / 1e3, untraced.pool_runs), "us",
                 false});
  }
  m.push_back({"util.cpu_per_wall", Ratio(untraced.cpu_s, untraced.timed_s),
               "ratio", true});
  // Reads per second of the entry calls alone, and of the entry calls plus
  // their layer-by-layer re-runs; verification is outside both.
  auto sum = [](const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return total;
  };
  double untraced_qps =
      Ratio(untraced.read_us.size(), sum(untraced.read_us) / 1e6);
  double traced_qps = Ratio(traced.read_us.size(),
                            sum(traced.read_us) / 1e6 + traced.trace_s);
  m.push_back({"trace.overhead_frac", Ratio(untraced_qps, traced_qps) - 1,
               "fraction", true});
  m.push_back({"eval.counter_mismatches",
               static_cast<double>(l.counter_mismatches), "count", false});
  return m;
}

void PrintReport(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.in_json ? "" : "  (report only)");
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_json) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Bench bench(*spec, args);
  if (args.setup_only) return bench.SetUpOnly();
  if (!bench.Prepare()) return 1;
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d triples=%zu\n",
              spec->name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              bench.inputs().triples);

  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = bench.oracle_failures();
  uint64_t mismatches = 0;
  if (!args.trace) {
    LoopResult r = bench.Loop(args.seconds, nullptr);
    attempted = r.attempted;
    failed += r.failed;
    std::printf("# closed loop, 1 client: %zu reads, %zu writes\n",
                r.read_us.size(), r.write_us.size());
    metrics = EndToEnd(bench, r, failed);
  } else {
    // First half untraced (the base for trace.overhead_frac and the pool
    // and CPU figures), second half layer by layer.
    LoopResult untraced = bench.Loop(args.seconds / 2, nullptr);
    Layers layers;
    LoopResult traced = bench.Loop(args.seconds / 2, &layers);
    attempted = untraced.attempted + traced.attempted;
    failed += untraced.failed + traced.failed;
    mismatches = layers.counter_mismatches;
    std::printf("# traced reads n=%" PRIu64 " (untraced half: %zu reads)\n",
                layers.reads, untraced.read_us.size());
    const JoinShape& j = layers.rollup.largest_and();
    std::printf("# largest AND join: |left|=%" PRIu64 " |right|=%" PRIu64
                " probes=%" PRIu64 " cross_frac=%.6f\n",
                j.left, j.right, j.probes, Ratio(j.probes, j.pairs()));
    metrics = PerLayer(*spec, bench, untraced, traced, layers);
  }
  if (spec->writes) {
    std::printf("# ReferenceEval re-checks: %" PRIu64 "\n",
                bench.reference_checks());
  }
  PrintReport(metrics);
  bool correct = failed == 0 && mismatches == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--corrupt-oracle]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
