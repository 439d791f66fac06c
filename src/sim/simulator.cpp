#include "sim/simulator.hpp"

#include <utility>

namespace stob::sim {

std::uint32_t Simulator::pending_pos(EventId id) const {
  if (!id.valid()) return kNoPos;
  const std::uint32_t node = id.slot_ - 1;
  if (node >= meta_.size()) return kNoPos;
  const NodeMeta& m = meta_[node];
  // Generation mismatch ⇒ the event already fired or was cancelled and the
  // node may now belong to someone else; a stale handle must not touch it.
  return m.gen == id.gen_ ? m.heap_pos : kNoPos;
}

void Simulator::reseat(std::size_t pos, const Slot& slot) {
  if (pos > 0 && before(slot, heap_[(pos - 1) / 4])) {
    sift_up(pos, slot);
  } else {
    sift_down(pos, slot);
  }
}

void Simulator::remove_at(std::size_t pos) {
  const Slot last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail slot itself
  reseat(pos, last);  // the former tail fills the vacated position
}

void Simulator::cancel(EventId id) {
  const std::uint32_t pos = pending_pos(id);
  if (pos == kNoPos) return;
  release_node(id.slot_ - 1);
  remove_at(pos);
  ++cancelled_total_;
}

bool Simulator::reschedule(EventId id, TimePoint when) {
  const std::uint32_t pos = pending_pos(id);
  if (pos == kNoPos) return false;
  const Ticket key = reserve_at(when);
  // Keys are unique, so the firing order is the sorted key order whatever
  // the heap's shape: re-keying the slot where it stands orders exactly as
  // removing it and pushing the new key would.
  reseat(pos, Slot{key.when_ns_, (key.seq_ << kNodeBits) | (id.slot_ - 1)});
  ++cancelled_total_;
  return true;
}

}  // namespace stob::sim
