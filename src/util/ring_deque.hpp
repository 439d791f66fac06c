// Pool-backed growable ring buffer (FIFO).
//
// Packet queues (pipe serialiser, qdisc backlogs) are strict FIFOs, but
// std::deque is a poor fit for them: with today's ~288-byte Packet a
// libstdc++ deque block holds a single element, so every push is a heap
// allocation and every pop a free — one malloc/free pair per packet
// through every queue. RingDeque stores elements in one power-of-two
// circular array served by the thread-local buffer pool, so steady-state
// queue traffic costs an index increment and a move.
//
// Only the FIFO surface the queues need: push_back/emplace_back, front,
// back, pop_front, size/empty, clear. Move-only (the queues own their packets).
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <utility>

#include "util/buffer_pool.hpp"

namespace stob::util {

template <typename T>
class RingDeque {
 public:
  RingDeque() noexcept = default;

  RingDeque(RingDeque&& other) noexcept
      : buf_(other.buf_), cap_(other.cap_), head_(other.head_), size_(other.size_) {
    other.buf_ = nullptr;
    other.cap_ = other.head_ = other.size_ = 0;
  }

  RingDeque& operator=(RingDeque&& other) noexcept {
    if (this != &other) {
      destroy();
      buf_ = other.buf_;
      cap_ = other.cap_;
      head_ = other.head_;
      size_ = other.size_;
      other.buf_ = nullptr;
      other.cap_ = other.head_ = other.size_ = 0;
    }
    return *this;
  }

  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;

  ~RingDeque() { destroy(); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  const T& back() const {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & (cap_ - 1)];
  }

  void push_back(T&& v) { emplace_back(std::move(v)); }
  void push_back(const T& v) { emplace_back(v); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T* slot = buf_ + ((head_ + size_) & (cap_ - 1));
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_front() {
    assert(size_ > 0);
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  void clear() noexcept {
    while (size_ > 0) pop_front();
  }

 private:
  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    T* fresh = static_cast<T*>(mem::pool_alloc(new_cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      T& src = buf_[(head_ + i) & (cap_ - 1)];
      ::new (static_cast<void*>(fresh + i)) T(std::move(src));
      src.~T();
    }
    if (buf_ != nullptr) mem::pool_free(buf_, cap_ * sizeof(T));
    buf_ = fresh;
    cap_ = new_cap;
    head_ = 0;
  }

  void destroy() noexcept {
    clear();
    if (buf_ != nullptr) {
      mem::pool_free(buf_, cap_ * sizeof(T));
      buf_ = nullptr;
      cap_ = 0;
    }
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;   // always a power of two once allocated
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace stob::util
