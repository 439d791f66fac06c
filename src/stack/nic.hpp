// NIC model: pulls packets from the qdisc when they become eligible, applies
// TSO (splitting a transport super-segment into MSS-sized wire packets sent
// back-to-back at line rate — the "micro burst"), pushes them into the
// egress pipe with bounded in-flight bytes (tx ring backpressure), and
// reports per-flow completions so the transport can implement TCP Small
// Queues.
#pragma once

#include <memory>

#include "net/flow_table.hpp"
#include "net/pipe.hpp"
#include "sim/simulator.hpp"
#include "stack/flow_endpoint.hpp"
#include "stack/qdisc.hpp"

namespace stob::stack {

class Nic {
 public:
  struct Config {
    /// Max bytes the NIC keeps posted into the egress pipe before waiting
    /// for serialisation completions.
    Bytes tx_ring = Bytes::kibi(256);
  };

  Nic(sim::Simulator& sim, std::unique_ptr<Qdisc> qdisc);  // default Config
  Nic(sim::Simulator& sim, std::unique_ptr<Qdisc> qdisc, Config cfg);

  /// Egress pipe; must outlive the NIC. Installs a tx-complete hook on it.
  void attach_egress(net::Pipe& pipe);

  Qdisc& qdisc() { return *qdisc_; }
  const Qdisc& qdisc() const { return *qdisc_; }

  /// Hand a packet to the qdisc and try to make progress.
  void transmit(net::Packet&& p);

  /// Register/unregister the endpoint whose on_tx_complete() hears when the
  /// flow's wire packets finish serialising (the TSQ wakeup).
  void set_completion_handler(const net::FlowKey& flow, FlowEndpoint& endpoint);
  void clear_completion_handler(const net::FlowKey& flow);

  /// Bytes a flow currently has queued in qdisc + tx ring (TSQ accounting).
  Bytes flow_unsent(const net::FlowKey& flow) const;

  std::uint64_t tso_segments_split() const { return tso_segments_split_; }
  std::uint64_t wire_packets_sent() const { return wire_packets_sent_; }

 private:
  /// Move eligible packets from the qdisc into the pipe while ring space
  /// remains, never dequeuing while every head is paced out; then keep
  /// exactly one wakeup pending, at the earliest head's time, or none when
  /// the qdisc is empty or the ring is full.
  void pump();
  void push_to_wire(net::Packet&& p);
  void on_wire_complete(const net::Packet& p);

  sim::Simulator& sim_;
  std::unique_ptr<Qdisc> qdisc_;
  Config cfg_;
  net::Pipe* egress_ = nullptr;

  Bytes ring_bytes_;  // bytes posted to the pipe, not yet serialised
  sim::EventId wakeup_;  // re-armed in place; stale once it has fired
  net::FlowTable<FlowEndpoint*> completions_;
  net::FlowTable<std::int64_t> ring_per_flow_;  // wire bytes posted, per flow
  std::uint64_t tso_segments_split_ = 0;
  std::uint64_t wire_packets_sent_ = 0;
};

/// Single-core CPU cost model used by the Figure 3 reproduction: transport
/// work is serialised through one core, so per-segment and per-packet costs
/// bound throughput once TSO/packet sizes shrink.
class CpuModel {
 public:
  struct Costs {
    Duration per_segment = Duration::nanos(0);  // one stack traversal (tcp_sendmsg..dev_queue_xmit)
    Duration per_wire_packet = Duration::nanos(0);  // descriptor/completion work per wire packet
    double per_byte_ns = 0.0;                       // copy/DMA-touch cost
  };

  CpuModel() = default;
  explicit CpuModel(Costs costs) : costs_(costs) {}

  bool enabled() const {
    return costs_.per_segment.ns() > 0 || costs_.per_wire_packet.ns() > 0 ||
           costs_.per_byte_ns > 0.0;
  }

  /// Account one transport segment dispatch of `payload` bytes that the NIC
  /// will split into `wire_packets` packets. Returns the time the CPU
  /// finishes this work (the earliest moment the segment can enter the
  /// qdisc). With a disabled model this is just `now`.
  TimePoint dispatch(TimePoint now, Bytes payload, std::int64_t wire_packets);

  Duration busy_time() const { return busy_accum_; }

 private:
  Costs costs_;
  TimePoint free_at_ = TimePoint::zero();
  Duration busy_accum_;
};

}  // namespace stob::stack
