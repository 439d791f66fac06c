// Unidirectional network pipe: a drop-tail queue feeding a serialising link
// with fixed rate and propagation delay, plus an optional i.i.d. loss model.
// Two pipes back-to-back form a DuplexPath (see path.hpp). Pipes carry both
// data and ACK traffic, so TCP's ACK clock emerges naturally.
//
// Packets in propagation wait in a slab, and their arrivals in an arrival
// lane: a FIFO of reserved simulator keys of which only the head is in the
// event heap, however many packets are in flight. A delivery that would
// overtake the lane's tail (a fault model's reorder hold, duplicate or
// jitter) takes its own event instead (DESIGN.md §11).
//
// Packets are handed over by rvalue reference: each layer moves the packet
// once into storage it owns (queue, slab) and passes it on by reference.
#pragma once

#include <functional>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/ring_deque.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"
#include "util/units.hpp"

namespace stob::net {

class Pipe;

/// Hook a fault-injection layer implements to take over a pipe's
/// impairment decisions (loss, reordering, duplication, corruption,
/// jitter...). Invoked once per packet, after serialisation completes and
/// tx_complete has fired; the model either hands copies back through
/// Pipe::deliver() (with any extra delay) or discards via
/// Pipe::count_lost(). While a model is installed it *replaces* the pipe's
/// built-in i.i.d. loss check, so a model composes its own loss policy.
/// The canonical implementation lives in src/fault/fault.hpp.
class FaultModel {
 public:
  virtual ~FaultModel() = default;
  virtual void on_transmitted(Pipe& pipe, Packet&& p) = 0;
};

class Pipe {
 public:
  struct Config {
    DataRate rate = DataRate::gbps(10);
    Duration delay = Duration::micros(50);
    /// Queue capacity in bytes; 0 means unbounded.
    Bytes queue_capacity = Bytes::kibi(256);
    /// Independent per-packet loss probability, applied at the head of the
    /// link (after queueing, before delivery).
    double loss_rate = 0.0;
  };

  using Sink = std::function<void(Packet&&)>;
  /// Tap signature: the packet and the time it was observed.
  using Tap = std::function<void(const Packet&, TimePoint)>;

  Pipe(sim::Simulator& sim, Config cfg);

  /// Destination for delivered packets. Must be set before traffic flows.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Observability hooks. tx fires when serialisation starts (what tcpdump
  /// at the sender sees); rx fires at delivery (receiver vantage).
  void set_tx_tap(Tap tap) { tx_tap_ = std::move(tap); }
  void set_rx_tap(Tap tap) { rx_tap_ = std::move(tap); }

  /// RNG used for the loss model; defaults to a fixed-seed generator.
  void set_loss_rng(Rng rng) { loss_rng_ = rng; }

  /// Invoked when a packet finishes serialising onto the wire (regardless of
  /// whether the loss model then discards it). The NIC uses this to free tx
  /// ring space.
  using TxComplete = std::function<void(const Packet&)>;
  void set_tx_complete(TxComplete cb) { tx_complete_ = std::move(cb); }

  /// Offer a packet to the pipe. Drops (drop-tail) if the queue is full.
  void send(Packet&& p);

  /// Install (or, with nullptr, remove) a fault model. Non-owning: the
  /// model must outlive the pipe or detach itself first. With a model
  /// installed the built-in loss_rate check is bypassed.
  void set_fault_model(FaultModel* model) { fault_model_ = model; }
  FaultModel* fault_model() const { return fault_model_; }

  /// Deliver `p` to the sink after the pipe's propagation delay plus
  /// `extra`. Fault models use this to re-inject (possibly duplicated,
  /// corrupted or jittered) packets; counts as a delivered packet.
  void deliver(Packet&& p, Duration extra = Duration());

  /// Account a packet discarded in flight (loss model / fault layer).
  void count_lost(const Packet& p);

  // Counters.
  std::uint64_t delivered_packets() const { return delivered_packets_; }
  Bytes delivered_bytes() const { return delivered_bytes_; }
  std::uint64_t dropped_packets() const { return dropped_packets_; }
  std::uint64_t lost_packets() const { return lost_packets_; }
  Bytes queued_bytes() const { return queued_bytes_; }
  Bytes max_queued_bytes() const { return max_queued_bytes_; }

  const Config& config() const { return cfg_; }

  /// Packets in propagation now, and the most there have been at once
  /// (the in-flight slab's slot count).
  std::size_t in_flight_packets() const { return in_flight_.live(); }
  std::size_t in_flight_high_water() const { return in_flight_.high_water(); }

  /// Change the link rate at runtime (used by experiments that vary the
  /// bottleneck). Takes effect for the next packet serialised.
  void set_rate(DataRate rate) { cfg_.rate = rate; }

 private:
  using InFlight = util::Slab<Packet>;

  void start_transmission();
  void on_transmitted();
  void arrive_head();
  void arrive(InFlight::Index slot);

  sim::Simulator& sim_;
  Config cfg_;
  FaultModel* fault_model_ = nullptr;
  Sink sink_;
  Tap tx_tap_;
  Tap rx_tap_;
  TxComplete tx_complete_;
  Rng loss_rng_{0xC0FFEEull};

  util::RingDeque<Packet> queue_;
  // The packet being serialised (valid while busy_) and the packets in
  // propagation: pipe events capture `this` and at most a slot index, never
  // a packet, so they stay inline in the scheduler's node (DESIGN.md §11).
  Packet in_service_;
  InFlight in_flight_;
  // The arrival lane: in-flight packets whose arrival keys are in FIFO
  // order. Only the front's key is scheduled; its event schedules the next.
  struct Arrival {
    sim::Ticket key;
    InFlight::Index slot;
  };
  util::RingDeque<Arrival> lane_;
  bool busy_ = false;
  Bytes queued_bytes_;
  Bytes max_queued_bytes_;
  std::uint64_t delivered_packets_ = 0;
  Bytes delivered_bytes_;
  std::uint64_t dropped_packets_ = 0;
  std::uint64_t lost_packets_ = 0;
};

}  // namespace stob::net
