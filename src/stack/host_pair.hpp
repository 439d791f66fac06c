// Convenience harness: two hosts connected by a duplex path, with the
// simulator owned by the harness. Used by tests, examples and the workload
// layer (client/server page loads, iperf-like transfers).
#pragma once

#include "net/path.hpp"
#include "sim/simulator.hpp"
#include "stack/host.hpp"

namespace stob::stack {

class HostPair {
 public:
  struct Config {
    net::DuplexPath::Config path =
        net::DuplexPath::symmetric(DataRate::mbps(100), Duration::millis(10));
    Host::Config client;
    Host::Config server;
  };

  HostPair() : HostPair(Config{}) {}

  explicit HostPair(Config cfg)
      : path_(sim_, cfg.path), client_(sim_, 1, cfg.client), server_(sim_, 2, cfg.server) {
    client_.attach_egress(path_.forward());
    server_.attach_egress(path_.backward());
    path_.forward().set_sink([this](net::Packet&& p) { server_.receive(std::move(p)); });
    path_.backward().set_sink([this](net::Packet&& p) { client_.receive(std::move(p)); });
  }

  sim::Simulator& sim() { return sim_; }
  Host& client() { return client_; }
  Host& server() { return server_; }
  net::DuplexPath& path() { return path_; }

  /// Run the simulation until quiescent or `until`.
  std::size_t run(TimePoint until = TimePoint::max()) { return sim_.run(until); }

 private:
  sim::Simulator sim_;
  net::DuplexPath path_;
  Host client_;
  Host server_;
};

}  // namespace stob::stack
