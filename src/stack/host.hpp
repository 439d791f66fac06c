// A simulated end host: NIC + qdisc egress, CPU cost model, and ingress
// demultiplexing to transport connections and listeners.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "net/pipe.hpp"
#include "sim/simulator.hpp"
#include "stack/flow_endpoint.hpp"
#include "stack/nic.hpp"
#include "stack/qdisc.hpp"

namespace stob::stack {

class Host {
 public:
  using PacketHandler = std::function<void(net::Packet&&)>;

  struct Config {
    Nic::Config nic;
    CpuModel::Costs cpu;
    /// Factory for the egress qdisc; defaults to fq (pacing-capable).
    std::function<std::unique_ptr<Qdisc>()> make_qdisc;
  };

  Host(sim::Simulator& sim, net::HostId id);  // default Config
  Host(sim::Simulator& sim, net::HostId id, Config cfg);

  net::HostId id() const { return id_; }
  sim::Simulator& simulator() { return sim_; }
  Nic& nic() { return nic_; }
  CpuModel& cpu() { return cpu_; }

  /// Wire this host's NIC into an egress pipe.
  void attach_egress(net::Pipe& pipe) { nic_.attach_egress(pipe); }

  /// Ingress entry point; typically installed as the sink of the peer pipe.
  void receive(net::Packet&& p);

  /// Deliver packets whose FlowKey equals `incoming` exactly (i.e. the
  /// connection's own key reversed) to `endpoint`, which must stay alive
  /// until unregister_flow. Returns false if the key is taken.
  bool register_flow(const net::FlowKey& incoming, FlowEndpoint& endpoint);
  void unregister_flow(const net::FlowKey& incoming);

  /// Register a fallback handler for packets addressed to `port` with no
  /// exact flow match (a listening server socket).
  bool bind_listener(net::Port port, net::Proto proto, PacketHandler handler);
  void unbind_listener(net::Port port, net::Proto proto);

  /// Allocate an ephemeral local port.
  net::Port allocate_port() { return next_port_++; }

  std::uint64_t unmatched_packets() const { return unmatched_; }
  /// Packets dropped at ingress checksum validation (Packet::corrupted).
  std::uint64_t checksum_drops() const { return checksum_drops_; }

 private:
  struct ListenerKey {
    net::Port port;
    net::Proto proto;
    friend bool operator==(const ListenerKey&, const ListenerKey&) = default;
  };
  struct ListenerKeyHash {
    std::size_t operator()(const ListenerKey& k) const {
      return std::hash<std::uint32_t>{}(static_cast<std::uint32_t>(k.port) << 2 |
                                        static_cast<std::uint32_t>(k.proto));
    }
  };

  sim::Simulator& sim_;
  net::HostId id_;
  CpuModel cpu_;
  Nic nic_;
  net::Port next_port_ = 40000;
  std::uint64_t unmatched_ = 0;
  std::uint64_t checksum_drops_ = 0;
  net::FlowTable<FlowEndpoint*> flows_;
  std::unordered_map<ListenerKey, PacketHandler, ListenerKeyHash> listeners_;
};

}  // namespace stob::stack
