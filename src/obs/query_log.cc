#include "obs/query_log.h"

#include <algorithm>
#include <cctype>

#include "obs/json_util.h"
#include "util/string_util.h"

namespace rdfql {
namespace {

std::string PercentileNs(const Histogram& h, double q) {
  return FormatNs(static_cast<uint64_t>(h.Percentile(q)));
}

std::string Truncated(const std::string& s, size_t max) {
  if (s.size() <= max) return s;
  return s.substr(0, max) + "...";
}

// Streams the canonical form of `query` (comments dropped, whitespace
// runs collapsed, `<...>`/`"..."` spans preserved verbatim) into `emit`,
// one byte at a time — shared by the hasher (no allocation) and the
// string builder so the two can never disagree.
template <typename Emit>
void CanonicalScan(std::string_view query, Emit&& emit) {
  bool pending_space = false;  // whitespace seen since the last emitted byte
  bool emitted = false;
  char quote = 0;  // closing delimiter while inside an IRI / string literal
  for (size_t i = 0; i < query.size(); ++i) {
    char c = query[i];
    if (quote != 0) {
      emit(c);
      if (c == quote) quote = 0;
      continue;
    }
    if (c == '#') {
      // Comment to end of line. It must not survive collapsing (folding
      // the next line into the comment would change what the lexer sees),
      // so it vanishes entirely; the newline is handled as whitespace.
      while (i + 1 < query.size() && query[i + 1] != '\n') ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (emitted) pending_space = true;  // leading whitespace drops
      continue;
    }
    if (pending_space) {
      emit(' ');
      pending_space = false;
    }
    emitted = true;
    emit(c);
    if (c == '<') {
      quote = '>';
    } else if (c == '"') {
      quote = '"';
    }
  }
}

}  // namespace

std::string CanonicalizeQueryText(std::string_view query) {
  std::string out;
  out.reserve(query.size());
  CanonicalScan(query, [&out](char c) { out.push_back(c); });
  return out;
}

uint64_t StableQueryHash(std::string_view query) {
  // FNV-1a, 64-bit, over the canonicalized byte stream.
  uint64_t h = 14695981039346656037ull;
  CanonicalScan(query, [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  });
  return h;
}

std::string QueryLogRecordToJson(const QueryLogRecord& r) {
  return jsonutil::ToJson(r);
}

bool ParseQueryLogLine(std::string_view line, QueryLogRecord* out,
                       std::string* error) {
  if (!jsonutil::FromJson(line, out, error, /*open=*/true)) return false;
  return !out->outcome.empty() || jsonutil::Fail(error, "empty \"outcome\"");
}

QueryLog::QueryLog(QueryLogOptions options)
    : options_(std::move(options)),
      sink_(options_.path, options_.append, options_.ring_capacity,
            "query log") {
  if (options_.sample_every == 0) options_.sample_every = 1;
}

void QueryLog::Record(QueryLogRecord record) {
  uint64_t n = seen_.fetch_add(1, std::memory_order_relaxed);
  bool forced = record.slow || record.outcome != "ok";
  if (!forced && options_.sample_every > 1 &&
      n % options_.sample_every != 0) {
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (options_.max_query_bytes != 0 &&
      record.query.size() > options_.max_query_bytes) {
    record.query.resize(options_.max_query_bytes);
  }
  if (record.slow) slow_.fetch_add(1, std::memory_order_relaxed);
  logged_.fetch_add(1, std::memory_order_relaxed);
  std::string line;
  if (sink_.has_file()) {
    line = QueryLogRecordToJson(record);
    line.push_back('\n');
  }
  sink_.Append(std::move(record), line);
}

// --- Aggregation ---

void QueryLogAggregator::Add(const QueryLogRecord& record) {
  ++records_;
  if (record.slow) ++slow_;
  ++outcomes_[record.outcome];
  if (!record.cache.empty()) ++cache_outcomes_[record.cache];
  std::string fragment =
      record.fragment.empty() ? "(unparsed)" : record.fragment;
  for (const std::string& key : {fragment, std::string(kAllFragments)}) {
    FragmentAgg& agg = by_fragment_[key];
    if (agg.eval_ns == nullptr) agg.eval_ns = std::make_unique<Histogram>();
    ++agg.count;
    agg.eval_ns->Observe(record.eval_ns);
  }
  HashAgg& by_hash = by_hash_[record.query_hash];
  if (by_hash.eval_ns == nullptr) {
    by_hash.eval_ns = std::make_unique<Histogram>();
    by_hash.example = record.query;
  }
  ++by_hash.count;
  by_hash.eval_ns->Observe(record.eval_ns);
  kept_.push_back(record);
}

const QueryLogAggregator::FragmentAgg* QueryLogAggregator::FindFragment(
    const std::string& fragment) const {
  auto it = by_fragment_.find(fragment);
  return it == by_fragment_.end() ? nullptr : &it->second;
}

double QueryLogAggregator::FragmentPercentile(const std::string& fragment,
                                              double q) const {
  const FragmentAgg* agg = FindFragment(fragment);
  return agg == nullptr ? 0.0 : agg->eval_ns->Percentile(q);
}

uint64_t QueryLogAggregator::FragmentCount(
    const std::string& fragment) const {
  const FragmentAgg* agg = FindFragment(fragment);
  return agg == nullptr ? 0 : agg->count;
}

std::vector<std::string> QueryLogAggregator::Fragments() const {
  std::vector<std::string> out;
  if (by_fragment_.count(kAllFragments) != 0) out.push_back(kAllFragments);
  for (const auto& [name, agg] : by_fragment_) {
    if (name != kAllFragments) out.push_back(name);
  }
  return out;
}

std::string QueryLogAggregator::ToText(size_t top_n) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%llu record(s), %llu slow\n",
                static_cast<unsigned long long>(records_),
                static_cast<unsigned long long>(slow_));
  out += buf;

  out += "\noutcomes:\n";
  for (const auto& [name, count] : outcomes_) {
    std::snprintf(buf, sizeof(buf), "  %-20s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    out += buf;
  }

  if (!cache_outcomes_.empty()) {
    out += "\ncache:\n";
    for (const auto& [name, count] : cache_outcomes_) {
      std::snprintf(buf, sizeof(buf), "  %-20s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
      out += buf;
    }
  }

  out += "\nlatency by fragment (eval wall time):\n";
  std::snprintf(buf, sizeof(buf), "  %-24s %8s %10s %10s %10s\n", "fragment",
                "count", "p50", "p90", "p99");
  out += buf;
  for (const std::string& name : Fragments()) {
    const FragmentAgg* agg = FindFragment(name);
    std::snprintf(buf, sizeof(buf), "  %-24s %8llu %10s %10s %10s\n",
                  name.c_str(), static_cast<unsigned long long>(agg->count),
                  PercentileNs(*agg->eval_ns, 0.5).c_str(),
                  PercentileNs(*agg->eval_ns, 0.9).c_str(),
                  PercentileNs(*agg->eval_ns, 0.99).c_str());
    out += buf;
  }

  std::vector<const QueryLogRecord*> by_time;
  std::vector<const QueryLogRecord*> by_bytes;
  by_time.reserve(kept_.size());
  for (const QueryLogRecord& r : kept_) {
    by_time.push_back(&r);
    by_bytes.push_back(&r);
  }
  std::sort(by_time.begin(), by_time.end(),
            [](const QueryLogRecord* a, const QueryLogRecord* b) {
              return a->TotalNs() > b->TotalNs();
            });
  std::sort(by_bytes.begin(), by_bytes.end(),
            [](const QueryLogRecord* a, const QueryLogRecord* b) {
              return a->peak_bytes > b->peak_bytes;
            });
  if (by_time.size() > top_n) by_time.resize(top_n);
  if (by_bytes.size() > top_n) by_bytes.resize(top_n);

  std::snprintf(buf, sizeof(buf), "\ntop %zu slowest:\n", by_time.size());
  out += buf;
  for (const QueryLogRecord* r : by_time) {
    std::snprintf(buf, sizeof(buf), "  %10s  id=%-6llu %-18s %s\n",
                  FormatNs(r->TotalNs()).c_str(),
                  static_cast<unsigned long long>(r->correlation_id),
                  (r->fragment.empty() ? "(unparsed)" : r->fragment).c_str(),
                  Truncated(r->query, 60).c_str());
    out += buf;
  }

  std::snprintf(buf, sizeof(buf),
                "\ntop %zu peak-memory outliers:\n", by_bytes.size());
  out += buf;
  for (const QueryLogRecord* r : by_bytes) {
    std::snprintf(buf, sizeof(buf),
                  "  %10s  %8llu mappings  id=%-6llu %s\n",
                  FormatBytes(r->peak_bytes).c_str(),
                  static_cast<unsigned long long>(r->peak_mappings),
                  static_cast<unsigned long long>(r->correlation_id),
                  Truncated(r->query, 50).c_str());
    out += buf;
  }
  return out;
}

std::string QueryLogAggregator::ToJson(size_t top_n) const {
  std::string out = "{\"records\":" + std::to_string(records_) +
                    ",\"slow\":" + std::to_string(slow_) + ",\"outcomes\":{";
  bool first = true;
  for (const auto& [name, count] : outcomes_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += "\":" + std::to_string(count);
  }
  out += "},\"cache\":{";
  first = true;
  for (const auto& [name, count] : cache_outcomes_) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += "\":" + std::to_string(count);
  }
  out += "},\"fragments\":[";
  first = true;
  for (const std::string& name : Fragments()) {
    const FragmentAgg* agg = FindFragment(name);
    if (!first) out += ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%llu,\"p50_ns\":%.1f,\"p90_ns\":%.1f,"
                  "\"p99_ns\":%.1f,\"fragment\":\"",
                  static_cast<unsigned long long>(agg->count),
                  agg->eval_ns->Percentile(0.5),
                  agg->eval_ns->Percentile(0.9),
                  agg->eval_ns->Percentile(0.99));
    out += buf;
    AppendJsonEscaped(name, &out);
    out += "\"}";
  }
  out += "],\"slowest\":[";
  std::vector<const QueryLogRecord*> by_time;
  by_time.reserve(kept_.size());
  for (const QueryLogRecord& r : kept_) by_time.push_back(&r);
  std::sort(by_time.begin(), by_time.end(),
            [](const QueryLogRecord* a, const QueryLogRecord* b) {
              return a->TotalNs() > b->TotalNs();
            });
  if (by_time.size() > top_n) by_time.resize(top_n);
  first = true;
  for (const QueryLogRecord* r : by_time) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(r->correlation_id) +
           ",\"total_ns\":" + std::to_string(r->TotalNs()) +
           ",\"peak_bytes\":" + std::to_string(r->peak_bytes) +
           ",\"query\":\"";
    AppendJsonEscaped(Truncated(r->query, 120), &out);
    out += "\"}";
  }
  out += "]}";
  return out;
}

std::vector<std::pair<uint64_t, const QueryLogAggregator::HashAgg*>>
QueryLogAggregator::TopHashes(size_t top_n) const {
  std::vector<std::pair<uint64_t, const HashAgg*>> hashes;
  hashes.reserve(by_hash_.size());
  for (const auto& [hash, agg] : by_hash_) hashes.emplace_back(hash, &agg);
  std::sort(hashes.begin(), hashes.end(),
            [](const std::pair<uint64_t, const HashAgg*>& a,
               const std::pair<uint64_t, const HashAgg*>& b) {
              if (a.second->count != b.second->count) {
                return a.second->count > b.second->count;
              }
              return a.first < b.first;
            });
  if (hashes.size() > top_n) hashes.resize(top_n);
  return hashes;
}

std::string QueryLogAggregator::TopHashesText(size_t top_n) const {
  auto hashes = TopHashes(top_n);
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "top %zu query hashes (%zu distinct over %llu records):\n",
                hashes.size(), by_hash_.size(),
                static_cast<unsigned long long>(records_));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-18s %8s %10s %10s  %s\n", "hash",
                "count", "p50", "p99", "query");
  out += buf;
  for (const auto& [hash, agg] : hashes) {
    std::snprintf(buf, sizeof(buf), "  %016llx %8llu %10s %10s  %s\n",
                  static_cast<unsigned long long>(hash),
                  static_cast<unsigned long long>(agg->count),
                  PercentileNs(*agg->eval_ns, 0.5).c_str(),
                  PercentileNs(*agg->eval_ns, 0.99).c_str(),
                  Truncated(agg->example, 60).c_str());
    out += buf;
  }
  return out;
}

std::string QueryLogAggregator::TopHashesJson(size_t top_n) const {
  std::string out = "{\"records\":" + std::to_string(records_) +
                    ",\"distinct_hashes\":" + std::to_string(by_hash_.size()) +
                    ",\"top_hashes\":[";
  bool first = true;
  for (const auto& [hash, agg] : TopHashes(top_n)) {
    if (!first) out += ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"hash\":%llu,\"count\":%llu,\"p50_ns\":%.1f,"
                  "\"p99_ns\":%.1f,\"query\":\"",
                  static_cast<unsigned long long>(hash),
                  static_cast<unsigned long long>(agg->count),
                  agg->eval_ns->Percentile(0.5),
                  agg->eval_ns->Percentile(0.99));
    out += buf;
    AppendJsonEscaped(Truncated(agg->example, 120), &out);
    out += "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace rdfql
