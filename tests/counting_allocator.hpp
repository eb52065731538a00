// Counting global allocator for test binaries: replaces the global
// allocation functions so zero-/bounded-allocation claims are enforced by
// counting, not just asserted. Include from exactly ONE translation unit
// per test binary (each suite is a single .cpp, so a plain #include works).
//
// Read the counters via g_allocs.load(std::memory_order_relaxed) (the
// number of allocations) and g_alloc_bytes (the bytes they requested).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<std::uint64_t> g_allocs{0};
inline std::atomic<std::uint64_t> g_alloc_bytes{0};

// GCC's -Wmismatched-new-delete pairs the malloc inside this replaced
// operator new with the free inside operator delete at some inline sites
// (seen under the sanitizer build) and flags them; that pairing is exactly
// what a malloc-backed global allocator does, so it is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop
