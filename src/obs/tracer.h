#ifndef RDFQL_OBS_TRACER_H_
#define RDFQL_OBS_TRACER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/profile_state.h"

namespace rdfql {

/// One timed region of work: an operator kind (`op`, e.g. "AND"), an
/// optional human label (`detail`, e.g. "(?x p ?y)"), wall-clock interval,
/// attached work counters (`join_probes`, `ns_pairs_compared`,
/// `mappings_out`, ...) and child spans. Spans form the dynamic call tree
/// of an evaluation, so for the bottom-up evaluator the span tree has the
/// same shape as the pattern tree.
struct TraceSpan {
  std::string op;
  std::string detail;
  uint64_t start_ns = 0;     // relative to the tracer's epoch
  uint64_t duration_ns = 0;  // 0 while the span is open
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::unique_ptr<TraceSpan>> children;

  /// Adds to the named counter (creating it at 0 first).
  void AddCounter(std::string_view name, uint64_t delta);
  /// Value of the named counter, 0 if never set.
  uint64_t GetCounter(std::string_view name) const;
};

/// Collects a tree of spans for one evaluation. Not thread-safe — a tracer
/// belongs to one evaluation on one thread (the engine hands out one per
/// query); cross-thread aggregation goes through MetricsRegistry instead.
///
/// Exports:
///  - ToTreeString(): indented one-line-per-span tree for terminals;
///  - ToChromeTraceJson(): the Chrome `trace_event` array format, loadable
///    in about:tracing and https://ui.perfetto.dev.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span as a child of the innermost open span (or a new root).
  /// The returned pointer stays valid for the tracer's lifetime.
  TraceSpan* StartSpan(std::string op, std::string detail = "");

  /// Closes `span`, which must be the innermost open span.
  void EndSpan(TraceSpan* span);

  /// First root span (null before any span is recorded).
  const TraceSpan* root() const {
    return roots_.empty() ? nullptr : roots_.front().get();
  }
  const std::vector<std::unique_ptr<TraceSpan>>& roots() const {
    return roots_;
  }

  /// Nanoseconds since this tracer was constructed.
  uint64_t NowNs() const;

  std::string ToTreeString() const;
  std::string ToChromeTraceJson() const;

 private:
  std::vector<std::unique_ptr<TraceSpan>> roots_;
  std::vector<TraceSpan*> open_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII guard for a span. A null tracer makes every operation a no-op, so
/// instrumented code reads the same with tracing on or off:
///
///   ScopedSpan span(options.tracer, "AND");
///   ... work ...
///   span.AddCounter("join_probes", n);
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string op, std::string detail = "")
      : tracer_(tracer),
        // Mirror the span label onto the sampling profiler's tag stack so
        // traced operators show up in folded profiles under the same name.
        // Interning happens only while a profiler is running.
        profile_frame_(tracer != nullptr && ProfilingEnabled()
                           ? InternProfileTag(op)
                           : nullptr),
        span_(tracer == nullptr
                  ? nullptr
                  : tracer->StartSpan(std::move(op), std::move(detail))) {}
  ~ScopedSpan() {
    if (span_ != nullptr) tracer_->EndSpan(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceSpan* span() const { return span_; }
  void AddCounter(std::string_view name, uint64_t delta) {
    if (span_ != nullptr && delta != 0) span_->AddCounter(name, delta);
  }

 private:
  Tracer* tracer_;
  ProfileFrame profile_frame_;
  TraceSpan* span_;
};

/// Plain per-operator work counters, accumulated by the algebra kernels
/// (hash/nested-loop join, NS subsumption removal, graph-index probes)
/// into whatever sink the evaluator installed via ScopedOpCounters. When
/// no sink is installed — the uninstrumented hot path — the kernels pay
/// one thread-local pointer test per call, nothing per element.
struct OpCounters {
  uint64_t join_probes = 0;        // candidate pairs tested for ⋈ / ∖ / ⟕
  uint64_t index_probes = 0;       // graph-index Match calls with bindings
  uint64_t ns_pairs_compared = 0;  // subsumption tests / projection probes
  uint64_t filter_evals = 0;       // FILTER condition evaluations
  uint64_t mappings_out = 0;       // mappings produced by the operator

  /// Copies the non-zero counters onto a span.
  void AttachTo(ScopedSpan* span) const;

  /// Accumulates another sink's counts into this one. Used by the parallel
  /// evaluator: each worker-side subtree gets its own thread-local sink,
  /// merged into the calling thread's sink after the fork joins — so the
  /// hot path never shares a counter between threads.
  void MergeFrom(const OpCounters& other);
};

/// Installs `sink` as the thread's current counter sink for the enclosing
/// scope, restoring the previous sink on destruction (sinks nest: the
/// evaluator installs a fresh sink per operator node, so each node sees
/// only its own work, not its children's).
class ScopedOpCounters {
 public:
  explicit ScopedOpCounters(OpCounters* sink) : prev_(current_) {
    current_ = sink;
  }
  ~ScopedOpCounters() { current_ = prev_; }
  ScopedOpCounters(const ScopedOpCounters&) = delete;
  ScopedOpCounters& operator=(const ScopedOpCounters&) = delete;

  /// The innermost installed sink, or null (the common, uncounted case).
  static OpCounters* Current() { return current_; }

 private:
  OpCounters* prev_;
  /// Constant-initialized, so access is a plain TLS load with no init
  /// guard, in every translation unit.
  static inline thread_local constinit OpCounters* current_ = nullptr;
};

}  // namespace rdfql

#endif  // RDFQL_OBS_TRACER_H_
