// Allocation probe: a counting, malloc-backed global operator new.
//
// Include from exactly one translation unit of an executable, never from
// the library: the header defines the replacement allocation functions.
// Every plain and nothrow operator new in the process bumps one relaxed
// atomic counter (worker threads allocate too). Aligned new is not
// replaced, so util/buffer_pool's own block misses are not counted — the
// probe measures what the simulator asks of malloc per event.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace stob::util {

inline std::atomic<std::uint64_t> g_probe_allocs{0};

/// Calls to global operator new so far in this process.
inline std::uint64_t allocations() noexcept {
  return g_probe_allocs.load(std::memory_order_relaxed);
}

}  // namespace stob::util

void* operator new(std::size_t n) {
  stob::util::g_probe_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  stob::util::g_probe_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
// Out of line so GCC does not pair an inlined free() with operator new and
// warn (-Wmismatched-new-delete); both sides are malloc/free here.
[[gnu::noinline]] static void probe_release(void* p) noexcept { std::free(p); }
void operator delete(void* p) noexcept { probe_release(p); }
void operator delete[](void* p) noexcept { probe_release(p); }
void operator delete(void* p, std::size_t) noexcept { probe_release(p); }
void operator delete[](void* p, std::size_t) noexcept { probe_release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { probe_release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { probe_release(p); }
