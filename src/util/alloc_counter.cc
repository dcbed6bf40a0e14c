#include "util/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The array and nothrow forms of the standard library call these, so
// replacing the plain pair counts them too. Aligned allocations (over-aligned
// types) keep the library's own functions and are not counted.
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Not inlined: inlined into a std::allocator, the free() of memory from
// operator new draws GCC's -Wmismatched-new-delete, though this pair
// matches.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rdfql {

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace rdfql
