// Flat per-host flow table: (FlowKey, V) pairs in one contiguous vector.
//
// Every per-flow map on the packet path (host demux, NIC completions and
// ring accounting, qdisc per-flow queues) holds at most a handful of live
// flows — a host carries one connection per parallel fetch, six at most in
// the site catalogue. A linear scan over that many 16-byte keys beats
// hashing, and unlike a node-based map the table never allocates once it
// has reached its working size: erase moves the last entry into the freed
// slot and keeps the vector's capacity, so a flow that goes idle and comes
// back (a qdisc queue drains every few packets) costs no malloc.
//
// Pointers returned by find()/operator[] are invalidated by the next
// insert or erase: a handler dispatched through a table entry may itself
// register or remove flows, so callers copy what they need out of the
// entry before calling into user code (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace stob::net {

template <typename V>
class FlowTable {
 public:
  struct Entry {
    FlowKey key;
    V value;
  };

  V* find(const FlowKey& key) noexcept {
    for (Entry& e : entries_) {
      if (e.key == key) return &e.value;
    }
    return nullptr;
  }
  const V* find(const FlowKey& key) const noexcept {
    return const_cast<FlowTable*>(this)->find(key);
  }

  /// Add `value` under `key`; false (and no change) if the key is taken.
  bool insert(const FlowKey& key, V value) {
    if (find(key) != nullptr) return false;
    entries_.push_back(Entry{key, std::move(value)});
    return true;
  }

  /// The value under `key`, value-initialised and appended if absent.
  V& operator[](const FlowKey& key) {
    if (V* v = find(key)) return *v;
    entries_.push_back(Entry{key, V{}});
    return entries_.back().value;
  }

  /// Remove `key` if present: the last entry moves into its slot.
  void erase(const FlowKey& key) {
    for (Entry& e : entries_) {
      if (e.key == key) {
        if (&e != &entries_.back()) e = std::move(entries_.back());
        entries_.pop_back();
        return;
      }
    }
  }

  std::size_t size() const noexcept { return entries_.size(); }
  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace stob::net
