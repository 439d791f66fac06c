// The per-flow upcall interface of the host stack.
//
// A transport connection registers itself with its Host (ingress demux)
// and, for TCP small queues, with the Host's NIC (tx completions). Both
// tables store a plain FlowEndpoint pointer per flow, so dispatch is one
// scan and one virtual call — no per-flow std::function.
#pragma once

#include "net/packet.hpp"
#include "util/units.hpp"

namespace stob::stack {

class FlowEndpoint {
 public:
  /// Ingress: a packet whose FlowKey matched this endpoint's registration.
  /// Handed over by reference: an endpoint that keeps it moves it out.
  virtual void on_packet(net::Packet&& p) = 0;

  /// TSQ: `wire_bytes` of this flow finished serialising onto the wire.
  virtual void on_tx_complete(Bytes wire_bytes) { (void)wire_bytes; }

 protected:
  ~FlowEndpoint() = default;
};

}  // namespace stob::stack
