#include "util/buffer_pool.hpp"

#include <bit>
#include <new>

namespace stob::mem {

namespace {

// Buckets cover 32 B .. 64 KiB in powers of two; anything larger is rare
// (jumbo frame lists under pathological fault profiles) and goes straight
// to the global allocator.
constexpr std::size_t kMinShift = 5;   // 32 B
constexpr std::size_t kMaxShift = 16;  // 64 KiB
constexpr std::size_t kBuckets = kMaxShift - kMinShift + 1;
// Per-bucket cache cap in *bytes*, not entries: small buckets may park many
// buffers while large buckets park only a few. Worst case parked memory
// per thread ≈ kBucketCapBytes × number of buckets ≈ 3 MiB.
constexpr std::size_t kBucketCapBytes = std::size_t{256} * 1024;

struct FreeBlock {
  FreeBlock* next;
};

struct ThreadPool {
  FreeBlock* buckets[kBuckets] = {};
  std::size_t counts[kBuckets] = {};
  PoolStats stats;

  ~ThreadPool() { purge(); }

  void purge() noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      while (buckets[b] != nullptr) {
        FreeBlock* blk = buckets[b];
        buckets[b] = blk->next;
        ::operator delete(blk, std::align_val_t(alignof(std::max_align_t)));
      }
      counts[b] = 0;
    }
    stats.cached = 0;
  }
};

thread_local ThreadPool t_pool;

/// Bucket index for a request, or kBuckets for "too big, don't pool".
std::size_t bucket_for(std::size_t bytes) {
  if (bytes < (std::size_t{1} << kMinShift)) return 0;
  if (bytes > (std::size_t{1} << kMaxShift)) return kBuckets;
  const auto width = static_cast<std::size_t>(std::bit_width(bytes - 1));
  return width - kMinShift;
}

}  // namespace

void* pool_alloc(std::size_t bytes) {
  ThreadPool& pool = t_pool;
  const std::size_t b = bucket_for(bytes);
  ++pool.stats.outstanding;
  if (b < kBuckets && pool.buckets[b] != nullptr) {
    FreeBlock* blk = pool.buckets[b];
    pool.buckets[b] = blk->next;
    --pool.counts[b];
    --pool.stats.cached;
    ++pool.stats.hits;
    return blk;
  }
  ++pool.stats.misses;
  const std::size_t alloc_bytes = b < kBuckets ? (std::size_t{1} << (b + kMinShift))
                                               : (bytes > 0 ? bytes : 1);
  return ::operator new(alloc_bytes, std::align_val_t(alignof(std::max_align_t)));
}

void pool_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  ThreadPool& pool = t_pool;
  const std::size_t b = bucket_for(bytes);
  --pool.stats.outstanding;
  if (b < kBuckets && pool.counts[b] < (kBucketCapBytes >> (b + kMinShift))) {
    auto* blk = static_cast<FreeBlock*>(p);
    blk->next = pool.buckets[b];
    pool.buckets[b] = blk;
    ++pool.counts[b];
    ++pool.stats.cached;
    return;
  }
  ++pool.stats.spills;
  ::operator delete(p, std::align_val_t(alignof(std::max_align_t)));
}

PoolStats pool_stats() { return t_pool.stats; }

void pool_purge() noexcept { t_pool.purge(); }

}  // namespace stob::mem
