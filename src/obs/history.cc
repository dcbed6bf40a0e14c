#include "obs/history.h"

#include <cstdio>
#include <utility>

#include "obs/json_util.h"

namespace rdfql {

namespace {

uint64_t SaturatingSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

/// Diffs two (bound, count) bucket lists into the per-interval growth.
/// Bounds present only in `before` contribute nothing (a Reset shrank the
/// histogram — clamp, like every other delta here).
std::vector<std::pair<uint64_t, uint64_t>> DiffBuckets(
    const std::vector<std::pair<uint64_t, uint64_t>>& before,
    const std::vector<std::pair<uint64_t, uint64_t>>& after) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  size_t bi = 0;
  for (const auto& [bound, n] : after) {
    while (bi < before.size() && before[bi].first < bound) ++bi;
    uint64_t prev =
        (bi < before.size() && before[bi].first == bound) ? before[bi].second
                                                          : 0;
    uint64_t delta = SaturatingSub(n, prev);
    if (delta != 0) out.emplace_back(bound, delta);
  }
  return out;
}

void MergeBuckets(const std::vector<std::pair<uint64_t, uint64_t>>& from,
                  std::vector<std::pair<uint64_t, uint64_t>>* into) {
  // Merge two increasing-bound lists, summing counts on equal bounds.
  std::vector<std::pair<uint64_t, uint64_t>> merged;
  size_t a = 0, b = 0;
  while (a < into->size() || b < from.size()) {
    if (b >= from.size() ||
        (a < into->size() && (*into)[a].first < from[b].first)) {
      merged.push_back((*into)[a++]);
    } else if (a >= into->size() || from[b].first < (*into)[a].first) {
      merged.push_back(from[b++]);
    } else {
      merged.emplace_back((*into)[a].first, (*into)[a].second + from[b].second);
      ++a;
      ++b;
    }
  }
  *into = std::move(merged);
}

}  // namespace

bool WriteFileAtomic(const std::string& path, const std::string& text) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  bool ok = written == text.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string HistorySample::ToJson() const { return jsonutil::ToJson(*this); }

bool ParseHistorySample(std::string_view line, HistorySample* out,
                        std::string* error) {
  return jsonutil::FromJson(line, out, error);
}

MetricsHistory::MetricsHistory(HistoryOptions options)
    : options_(std::move(options)) {}

void MetricsHistory::Record(const RegistrySnapshot& current,
                            uint64_t unix_ms) {
  std::string persist_text;
  {
    std::lock_guard<std::mutex> lock(mu_);
    HistorySample s;
    s.unix_ms = unix_ms;
    if (have_prev_) {
      s.seconds = unix_ms > prev_unix_ms_
                      ? static_cast<double>(unix_ms - prev_unix_ms_) / 1000.0
                      : 0.0;
      for (const auto& [name, value] : current.counters) {
        auto it = prev_.counters.find(name);
        uint64_t before = it == prev_.counters.end() ? 0 : it->second;
        uint64_t delta = SaturatingSub(value, before);
        if (delta != 0) s.counters[name] = delta;
      }
      for (const auto& [name, data] : current.histograms) {
        auto it = prev_.histograms.find(name);
        static const std::vector<std::pair<uint64_t, uint64_t>> kEmpty;
        const auto& before =
            it == prev_.histograms.end() ? kEmpty : it->second.buckets;
        std::vector<std::pair<uint64_t, uint64_t>> deltas =
            DiffBuckets(before, data.buckets);
        if (!deltas.empty()) s.histograms[name] = std::move(deltas);
      }
    }
    s.gauges = current.gauges;
    prev_ = current;
    prev_unix_ms_ = unix_ms;
    have_prev_ = true;
    ++records_;
    fine_.push_back(std::move(s));
    TrimLocked(unix_ms);
    if (!options_.jsonl_path.empty() && options_.persist_every != 0 &&
        records_ % options_.persist_every == 0) {
      for (const HistorySample& c : coarse_) {
        persist_text += c.ToJson();
        persist_text.push_back('\n');
      }
      for (const HistorySample& f : fine_) {
        persist_text += f.ToJson();
        persist_text.push_back('\n');
      }
    }
  }
  if (!persist_text.empty()) {
    WriteFileAtomic(options_.jsonl_path, persist_text);
  }
}

void MetricsHistory::TrimLocked(uint64_t now_ms) {
  while (!fine_.empty() &&
         fine_.front().unix_ms + options_.fine_retention_ms < now_ms) {
    HistorySample s = std::move(fine_.front());
    fine_.pop_front();
    FoldIntoCoarseLocked(std::move(s));
  }
  while (!coarse_.empty() &&
         coarse_.front().unix_ms + options_.coarse_retention_ms < now_ms) {
    coarse_.pop_front();
  }
}

void MetricsHistory::FoldIntoCoarseLocked(HistorySample&& s) {
  if (!pending_active_) {
    uint64_t span_ms = static_cast<uint64_t>(s.seconds * 1000.0);
    pending_start_ms_ = s.unix_ms > span_ms ? s.unix_ms - span_ms : 0;
    pending_coarse_ = std::move(s);
    pending_coarse_.coarse = true;
    pending_active_ = true;
  } else {
    for (const auto& [name, delta] : s.counters) {
      pending_coarse_.counters[name] += delta;
    }
    pending_coarse_.gauges = std::move(s.gauges);
    for (auto& [name, buckets] : s.histograms) {
      MergeBuckets(buckets, &pending_coarse_.histograms[name]);
    }
    pending_coarse_.seconds += s.seconds;
    pending_coarse_.unix_ms = s.unix_ms;
  }
  if (pending_coarse_.unix_ms >= pending_start_ms_ + options_.coarse_bucket_ms) {
    coarse_.push_back(std::move(pending_coarse_));
    pending_coarse_ = HistorySample();
    pending_active_ = false;
  }
}

double MetricsHistory::RateOver(const std::string& counter,
                                uint64_t window_ms, uint64_t now_ms) const {
  uint64_t cutoff = now_ms > window_ms ? now_ms - window_ms : 0;
  uint64_t total = 0;
  double seconds = 0;
  std::lock_guard<std::mutex> lock(mu_);
  VisitLocked([&](const HistorySample& s) {
    if (s.unix_ms <= cutoff) return;
    seconds += s.seconds;
    auto it = s.counters.find(counter);
    if (it != s.counters.end()) total += it->second;
  });
  return seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
}

uint64_t MetricsHistory::DeltaOver(const std::string& counter,
                                   uint64_t window_ms, uint64_t now_ms) const {
  uint64_t cutoff = now_ms > window_ms ? now_ms - window_ms : 0;
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  VisitLocked([&](const HistorySample& s) {
    if (s.unix_ms <= cutoff) return;
    auto it = s.counters.find(counter);
    if (it != s.counters.end()) total += it->second;
  });
  return total;
}

bool MetricsHistory::LatestGauge(const std::string& gauge,
                                 int64_t* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Newest first: fine samples, then the pending coarse bucket, then
  // flushed coarse buckets.
  for (auto it = fine_.rbegin(); it != fine_.rend(); ++it) {
    auto g = it->gauges.find(gauge);
    if (g != it->gauges.end()) {
      *out = g->second;
      return true;
    }
  }
  if (pending_active_) {
    auto g = pending_coarse_.gauges.find(gauge);
    if (g != pending_coarse_.gauges.end()) {
      *out = g->second;
      return true;
    }
  }
  for (auto it = coarse_.rbegin(); it != coarse_.rend(); ++it) {
    auto g = it->gauges.find(gauge);
    if (g != it->gauges.end()) {
      *out = g->second;
      return true;
    }
  }
  return false;
}

double MetricsHistory::PercentileOver(const std::string& histogram, double q,
                                      uint64_t window_ms,
                                      uint64_t now_ms) const {
  uint64_t cutoff = now_ms > window_ms ? now_ms - window_ms : 0;
  std::vector<std::pair<uint64_t, uint64_t>> merged;
  uint64_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    VisitLocked([&](const HistorySample& s) {
      if (s.unix_ms <= cutoff) return;
      auto it = s.histograms.find(histogram);
      if (it == s.histograms.end()) return;
      MergeBuckets(it->second, &merged);
    });
  }
  for (const auto& [bound, n] : merged) count += n;
  return count == 0 ? 0.0 : HistogramPercentile(merged, count, q);
}

uint64_t MetricsHistory::ObservationsOver(const std::string& histogram,
                                          uint64_t window_ms,
                                          uint64_t now_ms) const {
  uint64_t cutoff = now_ms > window_ms ? now_ms - window_ms : 0;
  uint64_t count = 0;
  std::lock_guard<std::mutex> lock(mu_);
  VisitLocked([&](const HistorySample& s) {
    if (s.unix_ms <= cutoff) return;
    auto it = s.histograms.find(histogram);
    if (it == s.histograms.end()) return;
    for (const auto& [bound, n] : it->second) count += n;
  });
  return count;
}

std::vector<HistorySample> MetricsHistory::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistorySample> out;
  out.reserve(coarse_.size() + fine_.size() + 1);
  VisitLocked([&](const HistorySample& s) { out.push_back(s); });
  return out;
}

size_t MetricsHistory::fine_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fine_.size();
}

size_t MetricsHistory::coarse_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coarse_.size();
}

uint64_t MetricsHistory::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

bool MetricsHistory::WriteFile(const std::string& path) const {
  std::string text;
  {
    std::lock_guard<std::mutex> lock(mu_);
    VisitLocked([&](const HistorySample& s) {
      text += s.ToJson();
      text.push_back('\n');
    });
  }
  return WriteFileAtomic(path, text);
}

bool MetricsHistory::WriteFile() const {
  if (options_.jsonl_path.empty()) return false;
  return WriteFile(options_.jsonl_path);
}

}  // namespace rdfql
