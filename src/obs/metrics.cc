#include "obs/metrics.h"

#include <bit>

namespace rdfql {
namespace {

void AppendNumber(double v, std::string* out) {
  // Integral values print without a fraction so counter JSON stays exact.
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    out->append(std::to_string(static_cast<int64_t>(v)));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

}  // namespace

void AppendJsonEscaped(std::string_view s, std::string* out) {
  // Most strings need no escaping: append the clean prefix in one go.
  size_t clean = 0;
  while (clean < s.size() && s[clean] != '"' && s[clean] != '\\' &&
         static_cast<unsigned char>(s[clean]) >= 0x20) {
    ++clean;
  }
  out->append(s.data(), clean);
  for (char c : s.substr(clean)) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

void Histogram::Observe(uint64_t value) {
  int bucket = value == 0 ? 0 : 64 - std::countl_zero(value);
  if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::BucketBound(int i) { return uint64_t{1} << i; }

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double HistogramPercentile(
    const std::vector<std::pair<uint64_t, uint64_t>>& buckets,
    uint64_t count, double q) {
  if (count == 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (const auto& [bound, n] : buckets) {
    if (n == 0) continue;
    cumulative += n;
    if (static_cast<double>(cumulative) >= rank) {
      // Bucket range: [bound/2, bound), except bucket 0 which is [0, 1).
      double lo = bound == 1 ? 0.0 : static_cast<double>(bound) / 2.0;
      double hi = static_cast<double>(bound);
      double before = static_cast<double>(cumulative - n);
      double within = (rank - before) / static_cast<double>(n);
      if (within < 0.0) within = 0.0;
      return lo + (hi - lo) * within;
    }
  }
  return static_cast<double>(buckets.back().first);
}

double Histogram::Percentile(double q) const {
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
  uint64_t count = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    uint64_t n = BucketCount(i);
    if (n > 0) {
      buckets.emplace_back(BucketBound(i), n);
      count += n;
    }
  }
  // Count from the buckets themselves: Count() may race ahead of the
  // bucket adds under concurrent Observe (relaxed atomics).
  return HistogramPercentile(buckets, count, q);
}

double RegistrySnapshot::HistogramData::Percentile(double q) const {
  return HistogramPercentile(buckets, count, q);
}

uint64_t RegistrySnapshot::HistogramData::ApproxQuantile(double q) const {
  if (count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (const auto& [bound, n] : buckets) {
    seen += n;
    if (seen > rank) return bound;
  }
  return buckets.empty() ? 0 : buckets.back().first;
}

std::string RegistrySnapshot::ToText() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : gauges) {
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += name + " count=" + std::to_string(h.count) +
           " sum=" + std::to_string(h.sum);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " mean=%.1f p50=%.1f p90=%.1f p99=%.1f\n", h.Mean(),
                  h.Percentile(0.5), h.Percentile(0.9), h.Percentile(0.99));
    out += buf;
  }
  return out;
}

std::string RegistrySnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    AppendJsonEscaped(name, &out);
    out += "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) + ",\"mean\":";
    AppendNumber(h.Mean(), &out);
    out += ",\"p50\":" + std::to_string(h.ApproxQuantile(0.5)) +
           ",\"p99\":" + std::to_string(h.ApproxQuantile(0.99)) +
           ",\"buckets\":[";
    bool bfirst = true;
    for (const auto& [bound, n] : h.buckets) {
      if (!bfirst) out += ",";
      bfirst = false;
      out += "[" + std::to_string(bound) + "," + std::to_string(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    RegistrySnapshot::HistogramData data;
    data.count = h->Count();
    data.sum = h->Sum();
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t n = h->BucketCount(i);
      if (n > 0) data.buckets.emplace_back(Histogram::BucketBound(i), n);
    }
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace rdfql
