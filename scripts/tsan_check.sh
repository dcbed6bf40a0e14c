#!/usr/bin/env bash
# Race-checks the parallel evaluator under ThreadSanitizer: configures a
# separate build tree with -DRDFQL_SANITIZE=thread and runs the tests that
# exercise the thread pool, the concurrent subtree evaluation, the
# resource caps at 1, 2 and 8 threads (a cap must hold at every thread
# count, with pool workers charging the coordinator's accountant), the
# accountant itself (pool workers' sets flushing their batches into one
# accountant at threads = 4), the
# sharded query cache (hit/miss/eviction races, epoch invalidation), the
# live-monitoring surface (in-flight registry, telemetry sampler, watchdog
# cancellation — all inherently cross-thread), and the sampling profiler
# (tag-stack snapshots racing pushes, sampler start/stop racing thread
# registration, timed-lock contention accounting), and the alerting stack
# (history ring records racing window queries, alert evaluation on the
# sampler thread racing query traffic, watchdog escalation reads), and the
# query lifecycle every entry point shares (concurrent writers to one query
# log, the engine's shared metric handles, every entry point at once on one
# engine), and the graph catalog (one writer's inserts and replacements
# beside 2, 4 and 8 readers, and the shell writing a graph while a spawned
# job reads it), and the live-monitoring loop end to end (live_monitor_smoke:
# the sampler thread, the watchdog and the snapshot file against a shell
# running a spawned query). Pass extra ctest args through, e.g.:
# scripts/tsan_check.sh -j4
set -uo pipefail
cd "$(dirname "$0")/.."

cmake -B build-tsan -DRDFQL_SANITIZE=thread >/dev/null
cmake --build build-tsan --target \
  thread_pool_test parallel_sweeps_test mapping_set_test ns_test \
  evaluator_test engine_test inflight_test telemetry_test \
  query_cache_test profiler_test history_test alerts_test \
  query_log_test metrics_test query_lifecycle_test limits_test \
  obs_accounting_test rdfql_shell rdfql_stats rdfql_top || exit 1

# halt_on_error: fail the run on the first report instead of limping on.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

ctest --test-dir build-tsan --output-on-failure \
  -R '^(ThreadPoolTest|AllStrategies/ParallelSweep|MappingSetTest|NsTest|EvaluatorTest|EngineTest|InflightRegistryTest|InflightScopeTest|EngineInflightTest|Threads/EngineInflightConcurrencyTest|WatchdogPolicyTest|TelemetryEngineTest|QueryCacheTest|EngineCacheTest|Threads/CacheRaceTest|ProfileSlotTest|ProfileRegistryTest|WaitStatsTest|TimedLockTest|PoolProfilingTest|ProfilerTest|EngineProfilingTest|Threads/ProfiledIdenticalTest|Threads/ProfilerRaceTest|HistorySampleTest|MetricsHistoryTest|AlertsTest|AlertStateMachineTest|AlertEngineIntegrationTest|Threads/AlertsIdenticalTest|QueryLogTest|EngineQueryLogTest|RegistryTest|EngineMetricsTest|QueryLifecycleTest|Threads/QueryLifecycleThreadsTest|LimitsTest|ResourceAccountantTest|JoinAccountingTest|Readers/EngineCatalogTest|shell_smoke|live_monitor_smoke)' \
  "$@"
status=$?
if [ $status -eq 0 ]; then
  echo "tsan_check: no data races detected."
else
  echo "tsan_check: FAILED (see output above)." >&2
fi
exit $status
