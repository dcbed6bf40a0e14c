#ifndef RDFQL_PERFBENCH_WORKLOADS_H_
#define RDFQL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rdf/triple.h"
#include "util/random.h"

namespace perfbench {

/// The name every workload loads its graph under.
inline constexpr const char* kGraph = "g";

/// One closed-loop workload: the graph it generates and how the engine is
/// configured, as it would be embedded in production. Why each workload
/// exists is recorded in BENCHMARK.json and GLOSSARY.md.
struct WorkloadSpec {
  std::string name;
  int universities = 0;  // university graph when > 0
  int people = 0;        // social graph when > 0
  int threads = 1;       // Engine::SetDefaultThreads
  bool metrics = false;  // EnableMetrics() plus an in-memory QueryLog
  bool cache = false;    // QueryCache attached; reads go through QueryJson
  bool writes = false;   // 1 write per 20 operations
};

const std::vector<WorkloadSpec>& Workloads();
/// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct NamedQuery {
  std::string name;
  std::string text;
};

/// Everything a workload generates from its seed, before any timing.
struct Inputs {
  std::string graph_text;  // N-Triples
  size_t triples = 0;
  /// The read texts with a fixed answer per graph state: the university
  /// mix, or the OPT / NS encodings (opt_ns's rewrite is appended at set-up).
  std::vector<NamedQuery> fixed;
  /// University graphs: students ordered by Zipf rank (rank 1 first), and
  /// the departments churn's new students join.
  std::vector<std::string> students;
  std::vector<std::string> departments;
};

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed);

/// An engine with the sinks it borrows. The engine is declared last so it
/// is destroyed before the log and cache it points at.
struct Rig {
  std::unique_ptr<rdfql::QueryLog> log;
  std::unique_ptr<rdfql::QueryCache> cache;
  std::unique_ptr<rdfql::Engine> engine;
  uint64_t load_ns = 0;      // LoadGraphText alone
  std::string rewrite_text;  // opt_ns: the Thm 5.1 NS-eliminated encoding
};

/// Builds a fresh engine: loads the graph, attaches the workload's sinks and
/// threads, makes opt_ns's rewrite, and runs one warm-up pass over the fixed
/// queries through the workload's entry point. Errors abort the run.
rdfql::Result<std::unique_ptr<Rig>> SetUp(const WorkloadSpec& spec,
                                          const Inputs& inputs);

/// The workload's read entry point: Engine::QueryJson with a cache,
/// Engine::Query otherwise. Exactly one of *set / *json is filled.
rdfql::Status Read(const WorkloadSpec& spec, rdfql::Engine* engine,
                   const std::string& text, rdfql::MappingSet* set,
                   std::string* json);

/// One operation of the closed loop.
struct Op {
  bool write = false;
  int fixed = -1;    // index into the fixed texts, or -1 for a lookup
  int kind = -1;     // the fixed index, or #fixed for churn's point lookup
  std::string text;  // the read's text
};

/// churn's point lookup, `(S advisor ?p) OPT (?p email ?e)`, in the report.
inline constexpr const char* kLookupName = "lookup_advisor_email";

/// The seeded request order: shuffled rounds over the fixed queries, or for
/// churn a 19:1 read/write mix whose reads are drawn uniformly from the six
/// mix queries and the point lookup on a Zipf(1)-drawn student.
class OpStream {
 public:
  /// `texts` are the fixed read texts (Inputs::fixed plus any rewrite).
  OpStream(const WorkloadSpec& spec, const Inputs& inputs,
           std::vector<std::string> texts, uint64_t seed);
  Op Next();

 private:
  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  std::vector<std::string> texts_;
  rdfql::Rng rng_;
  std::vector<int> round_;
  size_t pos_ = 0;
  std::vector<double> zipf_cdf_;
};

/// churn's write path: each write inserts a new student's 5-triple batch
/// with LoadGraphText; once 32 batches are live it also retires the oldest
/// the way the shell's deletewhere does (copy, DeleteData, PutGraph).
class Churner {
 public:
  Churner(const Inputs& inputs, uint64_t seed);
  /// Performs one write; insert_ns / publish_ns receive the two halves'
  /// times (publish_ns is 0 while fewer than 32 batches are live).
  rdfql::Status Write(rdfql::Engine* engine, uint64_t* insert_ns,
                      uint64_t* publish_ns);

 private:
  const Inputs& inputs_;
  rdfql::Rng rng_;
  uint64_t next_student_ = 0;
  std::deque<std::vector<rdfql::Triple>> live_;  // oldest batch first
};

uint64_t NowNs();

}  // namespace perfbench

#endif  // RDFQL_PERFBENCH_WORKLOADS_H_
