#include "obs/inflight.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/clock.h"

namespace rdfql {
namespace {

/// "1.2s" / "345ms" — compact wall-time for the .ps table.
std::string FormatWall(uint64_t ns) {
  char buf[32];
  if (ns >= 1'000'000'000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fs", static_cast<double>(ns) / 1e9);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "ms",
                  static_cast<uint64_t>(ns / 1'000'000));
  }
  return buf;
}

std::string FormatMb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

/// Replaces control characters so a multi-line query stays on one row.
std::string Flatten(std::string_view text, size_t max_bytes) {
  std::string out;
  out.reserve(std::min(text.size(), max_bytes));
  for (char c : text) {
    if (out.size() >= max_bytes) break;
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

}  // namespace

const char* QueryPhaseName(QueryPhase phase) {
  return kQueryPhaseNames[static_cast<size_t>(phase)];
}

void InflightSlot::SetFragment(std::string_view fragment) {
  std::lock_guard<std::mutex> lock(mu_);
  fragment_.assign(fragment);
}

InflightSlot* InflightRegistry::Register(std::string_view graph,
                                         std::string_view query,
                                         uint64_t query_hash) {
  size_t start = next_hint_.fetch_add(1, std::memory_order_relaxed);
  for (size_t probe = 0; probe < kMaxSlots; ++probe) {
    InflightSlot& slot = slots_[(start + probe) % kMaxSlots];
    bool expected = false;
    if (!slot.claimed_.compare_exchange_strong(expected, true,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(slot.mu_);
      slot.active_ = true;
      ++slot.generation_;
      slot.graph_.assign(graph);
      slot.query_ = query.size() > kMaxStoredQueryBytes
                        ? std::string(query.substr(0, kMaxStoredQueryBytes))
                        : std::string(query);
      slot.fragment_.clear();
      slot.start_unix_ms_ = UnixNowMs();
      slot.start_steady_ns_ = SteadyNowNs();
      slot.correlation_id_.store(0, std::memory_order_relaxed);
      slot.query_hash_.store(query_hash, std::memory_order_relaxed);
      slot.phase_.store(static_cast<int>(QueryPhase::kStarting),
                        std::memory_order_relaxed);
      slot.threads_.store(1, std::memory_order_relaxed);
      slot.watchdog_cancelled_.store(false, std::memory_order_relaxed);
      slot.accountant_.Reset();
      // The previous registration's token dies here — provably unreachable:
      // its query unregistered, and the watchdog revalidates generations
      // under this same mutex before touching a token.
      slot.token_ = std::make_unique<CancellationToken>();
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    registered_total_.fetch_add(1, std::memory_order_relaxed);
    return &slot;
  }
  return nullptr;  // registry full: run unmonitored
}

void InflightRegistry::Unregister(InflightSlot* slot) {
  if (slot == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(slot->mu_);
    slot->active_ = false;
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
  slot->claimed_.store(false, std::memory_order_release);
}

InflightSnapshot InflightRegistry::Snapshot() const {
  InflightSnapshot snap;
  snap.unix_ms = UnixNowMs();
  snap.registered_total = registered_total();
  snap.watchdog_cancelled_total = watchdog_cancelled_total();
  uint64_t now_ns = SteadyNowNs();
  for (size_t i = 0; i < kMaxSlots; ++i) {
    const InflightSlot& slot = slots_[i];
    if (!slot.claimed_.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(slot.mu_);
    if (!slot.active_) continue;
    InflightQueryInfo info;
    info.slot = i;
    info.generation = slot.generation_;
    info.correlation_id = slot.correlation_id_.load(std::memory_order_relaxed);
    info.query_hash = slot.query_hash_.load(std::memory_order_relaxed);
    info.graph = slot.graph_;
    info.query = slot.query_;
    info.fragment = slot.fragment_;
    info.phase =
        static_cast<QueryPhase>(slot.phase_.load(std::memory_order_relaxed));
    info.start_unix_ms = slot.start_unix_ms_;
    info.wall_ns = now_ns > slot.start_steady_ns_
                       ? now_ns - slot.start_steady_ns_
                       : 0;
    info.live_mappings = slot.accountant_.live_mappings();
    info.live_bytes = slot.accountant_.live_bytes();
    info.peak_bytes = slot.accountant_.peak_bytes();
    info.threads = slot.threads_.load(std::memory_order_relaxed);
    info.watchdog_cancelled =
        slot.watchdog_cancelled_.load(std::memory_order_relaxed);
    snap.queries.push_back(std::move(info));
  }
  return snap;
}

bool InflightRegistry::WatchdogCancel(size_t slot_index, uint64_t generation,
                                      Status reason) {
  if (slot_index >= kMaxSlots) return false;
  InflightSlot& slot = slots_[slot_index];
  std::lock_guard<std::mutex> lock(slot.mu_);
  if (!slot.active_ || slot.generation_ != generation) return false;
  if (slot.watchdog_cancelled_.load(std::memory_order_relaxed)) return false;
  slot.watchdog_cancelled_.store(true, std::memory_order_relaxed);
  slot.token_->Cancel(std::move(reason));
  watchdog_cancelled_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string InflightSnapshot::ToText() const {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "in-flight: %zu  registered: %" PRIu64
                "  watchdog-cancelled: %" PRIu64 "\n",
                queries.size(), registered_total, watchdog_cancelled_total);
  out += line;
  if (queries.empty()) return out;
  std::snprintf(line, sizeof(line), "%-4s %-6s %-6s %-8s %10s %9s %9s %-14s %-10s %s\n",
                "SLOT", "ID", "PHASE", "WALL", "LIVE-MAP", "LIVE-MB",
                "PEAK-MB", "FRAGMENT", "GRAPH", "QUERY");
  out += line;
  for (const InflightQueryInfo& q : queries) {
    std::snprintf(
        line, sizeof(line),
        "%-4zu %-6" PRIu64 " %-6s%s %-8s %10" PRIu64 " %9s %9s %-14s %-10s %s\n",
        q.slot, q.correlation_id, QueryPhaseName(q.phase),
        q.watchdog_cancelled ? "*" : " ", FormatWall(q.wall_ns).c_str(),
        q.live_mappings, FormatMb(q.live_bytes).c_str(),
        FormatMb(q.peak_bytes).c_str(),
        q.fragment.empty() ? "-" : q.fragment.c_str(),
        q.graph.empty() ? "-" : q.graph.c_str(),
        Flatten(q.query, 120).c_str());
    out += line;
  }
  return out;
}

InflightScope::InflightScope(InflightRegistry* registry, std::string_view graph,
                             std::string_view query, uint64_t query_hash)
    : registry_(registry) {
  if (registry != nullptr) slot_ = registry->Register(graph, query, query_hash);
}

InflightScope::~InflightScope() {
  if (slot_ != nullptr) registry_->Unregister(slot_);
}

}  // namespace rdfql
