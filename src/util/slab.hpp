// Pool-backed slab of reusable slots, addressed by index.
//
// A pipe keeps every packet in propagation here, so its arrival lane and
// arrival events hold a 4-byte slot index instead of a whole ~288-byte
// packet (which would spill the event capture to the pool and relocate
// the packet on every hop). Freed slots are reused through an intrusive free list before
// the slab grows, so the number of slots ever created equals the peak
// number of live elements. It grows only while the free list is empty,
// i.e. while every slot is live, which makes growth a plain move of all
// slots. Storage comes from the thread-local buffer pool, as RingDeque's
// does, so steady-state traffic never reaches the global allocator.
//
// Indices, not pointers, survive growth. Not copyable or movable;
// destroying the slab destroys every element still in it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "util/buffer_pool.hpp"

namespace stob::util {

template <typename T>
class Slab {
 public:
  using Index = std::uint32_t;

  Slab() noexcept = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() { destroy(); }

  /// Move `v` into a free slot (growing if none is free); returns its index.
  Index put(T&& v) {
    if (free_ == kEnd) add_slot();
    const Index i = free_;
    Slot& s = slots_[i];
    free_ = s.next;
    ::new (static_cast<void*>(&s.value)) T(std::move(v));
    s.next = kLive;
    ++live_;
    return i;
  }

  /// Move the element out of slot `i` and free the slot for reuse.
  T take(Index i) {
    assert(i < used_ && slots_[i].next == kLive);
    Slot& s = slots_[i];
    T v(std::move(s.value));
    s.value.~T();
    s.next = free_;
    free_ = i;
    --live_;
    return v;
  }

  std::size_t live() const noexcept { return live_; }
  /// Slots ever created: the peak number of live elements.
  std::size_t high_water() const noexcept { return used_; }

 private:
  // `next` of a live slot; nothing else ever holds it, so destroy() and
  // take() can tell live slots from free ones.
  static constexpr Index kLive = ~Index{0};
  // Ends the free list (and is `free_` when the list is empty).
  static constexpr Index kEnd = kLive - 1;

  struct Slot {
    union {
      T value;
    };
    Index next;  // next free slot (or kEnd), or kLive while `value` is constructed
    Slot() noexcept {}
    ~Slot() {}
  };

  /// Append one slot and make it the free list. Called only when the free
  /// list is empty, i.e. when every existing slot is live.
  void add_slot() {
    assert(used_ == live_);
    assert(used_ < kEnd);
    if (used_ == cap_) {
      const std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
      Slot* fresh = static_cast<Slot*>(mem::pool_alloc(new_cap * sizeof(Slot)));
      for (std::size_t i = 0; i < used_; ++i) {
        Slot* dst = ::new (static_cast<void*>(fresh + i)) Slot;
        ::new (static_cast<void*>(&dst->value)) T(std::move(slots_[i].value));
        dst->next = kLive;
        slots_[i].value.~T();
      }
      if (slots_ != nullptr) mem::pool_free(slots_, cap_ * sizeof(Slot));
      slots_ = fresh;
      cap_ = new_cap;
    }
    ::new (static_cast<void*>(slots_ + used_)) Slot;
    slots_[used_].next = kEnd;
    free_ = static_cast<Index>(used_++);
  }

  void destroy() noexcept {
    if (slots_ == nullptr) return;
    for (std::size_t i = 0; i < used_; ++i) {
      if (slots_[i].next == kLive) slots_[i].value.~T();
    }
    mem::pool_free(slots_, cap_ * sizeof(Slot));
    slots_ = nullptr;
  }

  Slot* slots_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t used_ = 0;  // slots [0, used_) have been handed out at least once
  std::size_t live_ = 0;
  Index free_ = kEnd;
};

}  // namespace stob::util
