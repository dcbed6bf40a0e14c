#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "algebra/pattern_printer.h"
#include "rdf/ntriples.h"
#include "update/update.h"
#include "workload/graph_generator.h"
#include "workload/university_generator.h"

namespace perfbench {

using rdfql::Engine;
using rdfql::Rng;
using rdfql::Status;

namespace {

// opt_ns: one optional-information query on the social graph, as OPT and as
// the NS(P1 UNION (P1 AND P2)) simple pattern (the paper's §8 question).
constexpr const char* kOptQuery =
    "((?x was_born_in ?c) AND (?x name ?n)) OPT (?x email ?e)";
constexpr const char* kNsQuery =
    "NS(((?x was_born_in ?c) AND (?x name ?n)) UNION "
    "(((?x was_born_in ?c) AND (?x name ?n)) AND (?x email ?e)))";

constexpr int kLiveBatches = 32;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {.name = "uni_mix", .universities = 8, .metrics = true},
      {.name = "opt_ns", .people = 2048},
      {.name = "uni_large_t2", .universities = 16, .threads = 2},
      {.name = "churn", .universities = 4, .cache = true, .writes = true},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  rdfql::Dictionary dict;
  rdfql::Graph graph;
  if (spec.universities > 0) {
    rdfql::UniversitySpec u;
    u.num_universities = spec.universities;
    u.seed = seed;
    graph = rdfql::GenerateUniversityGraph(u, &dict);
    for (const rdfql::NamedUniversityQuery& q : rdfql::UniversityQueryMix()) {
      in.fixed.push_back({q.name, q.text});
    }
    for (int i = 0; i < u.num_universities; ++i) {
      for (int d = 0; d < u.departments_per_university; ++d) {
        std::string dept = "u" + std::to_string(i) + "_d" + std::to_string(d);
        in.departments.push_back(dept);
        for (int s = 0; s < u.students_per_department; ++s) {
          in.students.push_back(dept + "_stud" + std::to_string(s));
        }
      }
    }
    // Zipf rank order: a seeded permutation, so the hot keys move with the
    // seed.
    Rng rng(seed ^ 0x5a17f00dULL);
    rng.Shuffle(&in.students);
  } else {
    rdfql::SocialGraphSpec s;
    s.num_people = spec.people;
    s.email_probability = 0.5;
    s.seed = seed;
    graph = rdfql::GenerateSocialGraph(s, &dict);
    in.fixed.push_back({"opt", kOptQuery});
    in.fixed.push_back({"ns", kNsQuery});
  }
  in.graph_text = rdfql::WriteNTriples(graph, dict);
  in.triples = graph.size();
  return in;
}

Status Read(const WorkloadSpec& spec, Engine* engine, const std::string& text,
            rdfql::MappingSet* set, std::string* json) {
  if (spec.cache) {
    RDFQL_ASSIGN_OR_RETURN(*json, engine->QueryJson(kGraph, text));
  } else {
    RDFQL_ASSIGN_OR_RETURN(*set, engine->Query(kGraph, text));
  }
  return Status::Ok();
}

rdfql::Result<std::unique_ptr<Rig>> SetUp(const WorkloadSpec& spec,
                                          const Inputs& inputs) {
  auto rig = std::make_unique<Rig>();
  rig->engine = std::make_unique<Engine>();
  Engine* engine = rig->engine.get();
  uint64_t t0 = NowNs();
  RDFQL_RETURN_IF_ERROR(engine->LoadGraphText(kGraph, inputs.graph_text));
  rig->load_ns = NowNs() - t0;
  if (spec.metrics) {
    rig->log = std::make_unique<rdfql::QueryLog>();
    engine->EnableMetrics();
    engine->SetQueryLog(rig->log.get());
  }
  if (spec.cache) {
    rig->cache = std::make_unique<rdfql::QueryCache>();
    engine->SetQueryCache(rig->cache.get());
  }
  if (spec.threads > 1) engine->SetDefaultThreads(spec.threads);
  std::vector<std::string> texts;
  for (const NamedQuery& q : inputs.fixed) texts.push_back(q.text);
  if (spec.people > 0) {
    // Thm 5.1 alone: no optimizer reordering and no UNION normal form, so
    // the rewrite is the paper's MINUS/UNION encoding of the NS query.
    rdfql::TranslateOptions options;
    options.optimize = false;
    options.union_normal_form = false;
    RDFQL_ASSIGN_OR_RETURN(rdfql::TranslationExplanation translated,
                           engine->TranslateExplained(kNsQuery, options));
    rig->rewrite_text = rdfql::PatternToString(translated.output,
                                               *engine->dict());
    texts.push_back(rig->rewrite_text);
  }
  for (const std::string& text : texts) {
    rdfql::MappingSet set;
    std::string json;
    RDFQL_RETURN_IF_ERROR(Read(spec, engine, text, &set, &json));
  }
  return rig;
}

OpStream::OpStream(const WorkloadSpec& spec, const Inputs& inputs,
                   std::vector<std::string> texts, uint64_t seed)
    : spec_(spec),
      inputs_(inputs),
      texts_(std::move(texts)),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 0x0b5e55edULL) {
  double total = 0.0;
  for (size_t k = 1; k <= inputs.students.size(); ++k) {
    total += 1.0 / static_cast<double>(k);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

Op OpStream::Next() {
  Op op;
  if (!spec_.writes) {
    if (pos_ == round_.size()) {
      round_.clear();
      for (int i = 0; i < static_cast<int>(texts_.size()); ++i) {
        round_.push_back(i);
      }
      rng_.Shuffle(&round_);
      pos_ = 0;
    }
    op.fixed = op.kind = round_[pos_++];
    op.text = texts_[op.fixed];
    return op;
  }
  if (rng_.NextBelow(20) == 0) {
    op.write = true;
    return op;
  }
  // A read draws its shape uniformly: one of the fixed texts or the point
  // lookup, so every read kind carries the same share of the traffic.
  op.kind = static_cast<int>(rng_.NextBelow(texts_.size() + 1));
  if (op.kind < static_cast<int>(texts_.size())) {
    op.fixed = op.kind;
    op.text = texts_[op.fixed];
    return op;
  }
  double u = rng_.NextDouble();
  size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  const std::string& s =
      inputs_.students[std::min(rank, inputs_.students.size() - 1)];
  op.text = "(" + s + " advisor ?p) OPT (?p email ?e)";
  return op;
}

Churner::Churner(const Inputs& inputs, uint64_t seed)
    : inputs_(inputs), rng_(seed * 0xbf58476d1ce4e5b9ULL + 0xc4u) {}

Status Churner::Write(Engine* engine, uint64_t* insert_ns,
                      uint64_t* publish_ns) {
  rdfql::UniversitySpec u;  // GenerateInputs keeps the default shape
  const std::string& dept = rng_.Pick(inputs_.departments);
  std::string student = dept + "_new" + std::to_string(next_student_++);
  std::string prof =
      dept + "_prof" +
      std::to_string(rng_.NextBelow(u.professors_per_department));
  uint64_t c1 = rng_.NextBelow(u.courses_per_department);
  uint64_t c2 = (c1 + 1 + rng_.NextBelow(u.courses_per_department - 1)) %
                u.courses_per_department;
  const std::string lines[5][3] = {
      {student, "studies_at", dept},
      {student, "advisor", prof},
      {student, "email", student + "@mail"},
      {student, "takes", dept + "_course" + std::to_string(c1)},
      {student, "takes", dept + "_course" + std::to_string(c2)},
  };
  std::string text;
  for (const auto& t : lines) text += t[0] + " " + t[1] + " " + t[2] + " .\n";

  uint64_t t0 = NowNs();
  RDFQL_RETURN_IF_ERROR(engine->LoadGraphText(kGraph, text));
  *insert_ns = NowNs() - t0;

  std::vector<rdfql::Triple> batch;
  rdfql::Dictionary* dict = engine->dict();
  for (const auto& t : lines) {
    batch.emplace_back(dict->FindIri(t[0]), dict->FindIri(t[1]),
                       dict->FindIri(t[2]));
  }
  live_.push_back(std::move(batch));
  *publish_ns = 0;
  if (live_.size() <= kLiveBatches) return Status::Ok();

  t0 = NowNs();
  RDFQL_ASSIGN_OR_RETURN(const rdfql::Graph* current, engine->GetGraph(kGraph));
  rdfql::Graph next = *current;
  size_t removed = rdfql::DeleteData(&next, live_.front());
  engine->PutGraph(kGraph, std::move(next));
  *publish_ns = NowNs() - t0;
  if (removed != live_.front().size()) {
    return Status::Internal("retired batch had " +
                            std::to_string(live_.front().size()) +
                            " triples, deleted " + std::to_string(removed));
  }
  live_.pop_front();
  return Status::Ok();
}

}  // namespace perfbench
