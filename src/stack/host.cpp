#include "stack/host.hpp"

#include "util/log.hpp"

namespace stob::stack {

namespace {

std::unique_ptr<Qdisc> default_qdisc() { return std::make_unique<FqQdisc>(); }

}  // namespace

Host::Host(sim::Simulator& sim, net::HostId id) : Host(sim, id, Config{}) {}

Host::Host(sim::Simulator& sim, net::HostId id, Config cfg)
    : sim_(sim),
      id_(id),
      cpu_(cfg.cpu),
      nic_(sim, cfg.make_qdisc ? cfg.make_qdisc() : default_qdisc(), cfg.nic) {}

void Host::receive(net::Packet&& p) {
  // Checksum validation: a payload damaged in transit (fault layer) never
  // reaches the transport — it surfaces there as loss, while the wire trace
  // still shows the delivery.
  if (p.corrupted) {
    ++checksum_drops_;
    STOB_DEBUG("host") << "host " << id_ << " checksum drop " << p;
    return;
  }
  if (FlowEndpoint* const* slot = flows_.find(p.flow)) {
    // Copy the pointer out before the call: the endpoint may register or
    // remove flows (the HTML response opens the page's other connections),
    // which moves the table's entries.
    FlowEndpoint* const endpoint = *slot;
    endpoint->on_packet(std::move(p));
    return;
  }
  auto lit = listeners_.find(ListenerKey{p.flow.dst_port, p.flow.proto});
  if (lit != listeners_.end()) {
    lit->second(std::move(p));
    return;
  }
  ++unmatched_;
  STOB_DEBUG("host") << "host " << id_ << " unmatched " << p;
}

bool Host::register_flow(const net::FlowKey& incoming, FlowEndpoint& endpoint) {
  return flows_.insert(incoming, &endpoint);
}

void Host::unregister_flow(const net::FlowKey& incoming) { flows_.erase(incoming); }

bool Host::bind_listener(net::Port port, net::Proto proto, PacketHandler handler) {
  return listeners_.emplace(ListenerKey{port, proto}, std::move(handler)).second;
}

void Host::unbind_listener(net::Port port, net::Proto proto) {
  listeners_.erase(ListenerKey{port, proto});
}

}  // namespace stob::stack
