// Queueing disciplines at the bottom of the host stack.
//
// The qdisc sits between the transport and the NIC. It is one of the places
// the paper identifies where application-level timing intent is destroyed:
// packets can be held for fairness between flows or for pacing, and they are
// dequeued asynchronously from the application's send() calls.
//
// Two disciplines are provided:
//  * FifoQdisc  - pfifo-like, ignores pacing timestamps.
//  * FqQdisc    - Linux fq-like: per-flow FIFO queues, deficit round robin
//                 between flows, and per-packet earliest-departure-time
//                 (EDT) pacing honoured per flow.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "util/ring_deque.hpp"
#include "util/units.hpp"

namespace stob::stack {

class Qdisc {
 public:
  virtual ~Qdisc() = default;

  /// Add a packet. May drop (counted) if an internal limit is exceeded.
  virtual void enqueue(net::Packet&& p) = 0;

  /// Remove and return the next packet eligible at `now`, or nullopt if none
  /// is eligible yet (queue empty or all packets paced into the future).
  virtual std::optional<net::Packet> dequeue(TimePoint now) = 0;

  /// Earliest time at which dequeue() could return a packet, or
  /// TimePoint::max() when empty. Used by the NIC to arm a wakeup timer.
  virtual TimePoint next_ready(TimePoint now) const = 0;

  virtual bool empty() const = 0;
  virtual Bytes backlog() const = 0;
  virtual std::uint64_t dropped() const = 0;

  /// Bytes currently queued for one flow (TCP small queues accounting).
  virtual Bytes flow_backlog(const net::FlowKey& flow) const = 0;
};

/// Simple FIFO (pfifo_fast without priorities). EDT timestamps are ignored,
/// which is exactly why pacing-dependent defenses need fq.
class FifoQdisc final : public Qdisc {
 public:
  explicit FifoQdisc(Bytes capacity = Bytes::mebi(64)) : capacity_(capacity) {}

  void enqueue(net::Packet&& p) override;
  std::optional<net::Packet> dequeue(TimePoint now) override;
  TimePoint next_ready(TimePoint now) const override;
  bool empty() const override { return queue_.empty(); }
  Bytes backlog() const override { return backlog_; }
  std::uint64_t dropped() const override { return dropped_; }
  Bytes flow_backlog(const net::FlowKey& flow) const override;

 private:
  Bytes capacity_;
  Bytes backlog_;
  std::uint64_t dropped_ = 0;
  util::RingDeque<net::Packet> queue_;
  net::FlowTable<std::int64_t> per_flow_bytes_;
};

/// fq-like fair queueing with EDT pacing.
///
/// Each flow gets a FIFO. Flows with an eligible head packet (not_before <=
/// now) are served in deficit-round-robin order with a byte quantum. Packets
/// within a flow are never reordered, and a flow whose head is paced into
/// the future does not block other flows (work conservation across flows).
class FqQdisc final : public Qdisc {
 public:
  struct Config {
    /// Total backlog cap. Deliberately generous: the transport's own TCP
    /// small queues bound what sits here, and a local drop would look like
    /// network loss to the sender (real qdiscs backpressure TCP instead).
    Bytes capacity = Bytes::mebi(64);
    Bytes quantum = Bytes(2 * 1514);     // DRR quantum (two full frames)
    /// Maximum allowed EDT horizon; packets scheduled further out are
    /// clamped (mirrors fq's horizon behaviour).
    Duration horizon = Duration::seconds(10);
  };

  FqQdisc();  // default Config
  explicit FqQdisc(Config cfg) : cfg_(cfg) {}

  void enqueue(net::Packet&& p) override;
  std::optional<net::Packet> dequeue(TimePoint now) override;
  TimePoint next_ready(TimePoint now) const override;
  bool empty() const override { return backlog_.count() == 0; }
  Bytes backlog() const override { return backlog_; }
  std::uint64_t dropped() const override { return dropped_; }
  Bytes flow_backlog(const net::FlowKey& flow) const override;

  /// Flows with queued packets; a flow that drains is forgotten, and
  /// returns with a zero deficit at the back of the round.
  std::size_t active_flows() const { return flows_.size(); }

 private:
  struct FlowQueue {
    util::RingDeque<net::Packet> packets;
    std::int64_t bytes = 0;
    std::int64_t deficit = 0;
  };

  Config cfg_;
  Bytes backlog_;
  std::uint64_t dropped_ = 0;
  net::FlowTable<FlowQueue> flows_;  // backlogged flows only
  util::RingDeque<net::FlowKey> round_;  // the keys of flows_, DRR order
};

}  // namespace stob::stack
