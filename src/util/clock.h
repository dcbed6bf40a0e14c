#ifndef RDFQL_UTIL_CLOCK_H_
#define RDFQL_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace rdfql {

/// Monotonic nanoseconds: the one clock every measured duration reads
/// (phase times, deadlines, lock waits, profiler stamps).
inline uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock milliseconds since the Unix epoch: the stamp on records a
/// reader lines up with other clocks (log records, snapshots, history).
inline uint64_t UnixNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace rdfql

#endif  // RDFQL_UTIL_CLOCK_H_
