// Small-buffer-optimised event callback.
//
// `sim::Event` replaces `std::function<void()>` in the simulator hot path.
// std::function's inline buffer on mainstream ABIs is 16 bytes; nearly every
// capture in this codebase is bigger (a TCP timer captures this + a weak_ptr
// + sequence state), so the old core paid one *global* heap allocation per
// scheduled event. Event keeps 64 bytes inline — covering the timer-sized
// captures that dominate event counts while keeping the scheduler's node
// pool small enough to stay cache-resident — and spills bigger captures
// (e.g. one holding a whole ~288-byte net::Packet) to the thread-local
// buffer pool, never the global allocator. Spilled callables also move by
// pointer steal, so oversized captures are cheap to schedule too. The
// packet path avoids them: pipe events capture a slot index, not the
// packet (net/pipe.hpp).
//
// Move-only, like the heap slots that own it. Invoking an empty Event is
// undefined; the simulator asserts non-empty at schedule time.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/buffer_pool.hpp"

namespace stob::sim {

class Event {
 public:
  /// Covers the transport-timer captures that dominate event counts; larger
  /// captures go to the thread-local pool. Chosen small so the scheduler's
  /// callback pool (one Event per in-flight event) stays cache-resident —
  /// raising this to fit a packet capture measured *slower* on the
  /// end-to-end benchmarks than spilling it.
  static constexpr std::size_t kInlineCapacity = 64;

  Event() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Event> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Event(F&& f) {  // NOLINT(google-explicit-constructor) — drop-in for std::function
    emplace(std::forward<F>(f));
  }

  /// Construct the callable directly in this Event's storage, replacing any
  /// previous one. The simulator schedules through this so a capture is
  /// moved exactly once — from the call site into its pool node — instead
  /// of relocating through Event temporaries.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Event> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      void* mem = mem::pool_alloc(sizeof(Fn));
      ::new (mem) Fn(std::forward<F>(f));
      std::memcpy(storage_, &mem, sizeof(void*));
      ops_ = &heap_ops<Fn>;
    }
  }

  Event(Event&& other) noexcept { move_from(other); }

  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  ~Event() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(target());
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into dst and destroy src. Null ⇒ trivially copyable:
    /// the whole inline buffer is memcpy'd instead (no indirect call).
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null ⇒ trivially destructible: nothing to do on reset.
    void (*destroy)(void*) noexcept;
    std::size_t heap_size;  // 0 ⇒ callable lives inline
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static void invoke_impl(void* p) {
    (*static_cast<Fn*>(p))();
  }
  template <typename Fn>
  static void relocate_impl(void* dst, void* src) noexcept {
    ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
    static_cast<Fn*>(src)->~Fn();
  }
  template <typename Fn>
  static void destroy_impl(void* p) noexcept {
    static_cast<Fn*>(p)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {
      &invoke_impl<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_impl<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_impl<Fn>, 0};
  template <typename Fn>
  static constexpr Ops heap_ops = {
      &invoke_impl<Fn>, nullptr,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_impl<Fn>, sizeof(Fn)};

  void* target() noexcept {
    if (ops_->heap_size != 0) {
      void* p;
      std::memcpy(&p, storage_, sizeof(void*));
      return p;
    }
    return storage_;
  }

  void move_from(Event& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->heap_size != 0) {
      std::memcpy(storage_, other.storage_, sizeof(void*));  // steal the pointer
    } else if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineCapacity);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->heap_size != 0) {
      void* p = target();
      if (ops_->destroy != nullptr) ops_->destroy(p);
      mem::pool_free(p, ops_->heap_size);
    } else if (ops_->destroy != nullptr) {
      ops_->destroy(storage_);
    }
    ops_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace stob::sim
