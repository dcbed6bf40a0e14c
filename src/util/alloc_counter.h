#ifndef RDFQL_UTIL_ALLOC_COUNTER_H_
#define RDFQL_UTIL_ALLOC_COUNTER_H_

#include <cstdint>

namespace rdfql {

/// The number of calls to the global operator new so far in this process,
/// on every thread. Defined by the rdfql_alloc_counter library, which
/// replaces the global operator new and delete for the whole program it
/// is linked into: link it only into binaries that measure allocations
/// (alloc_count_test, bench_opt_vs_ns), never into the engine libraries.
uint64_t AllocationCount();

}  // namespace rdfql

#endif  // RDFQL_UTIL_ALLOC_COUNTER_H_
