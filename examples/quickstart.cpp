// Quickstart: the 60-second tour of the Stob library.
//
//  1. Build a simulated client/server pair connected by a network path.
//  2. Install a Stob obfuscation policy (split + delay, wrapped in the
//     CCA-safety guard) into the server's stack.
//  3. Transfer data over TCP and watch the wire: every packet is at most
//     half the MSS and departures are jittered, yet the flow never runs
//     ahead of what congestion control allowed.
//
// Build & run:   ./build/examples/quickstart
#include <algorithm>
#include <cstdio>

#include "core/cca_guard.hpp"
#include "core/policies.hpp"
#include "stack/host_pair.hpp"
#include "tcp/tcp_connection.hpp"

using namespace stob;

int main() {
  // --- 1. Two hosts, a 100 Mb/s path with 20 ms RTT. -----------------------
  stack::HostPair::Config net_cfg;
  net_cfg.path = net::DuplexPath::symmetric(DataRate::mbps(100), Duration::millis(10));
  stack::HostPair net(net_cfg);

  // --- 2. Obfuscation policy -----------------------------------------------
  // The application (or an administrator) installs a policy; the stack
  // consults it on every segment. Here: split packets in half and inflate
  // inter-departure gaps by 10-30%, guarded so the flow is never more
  // aggressive than the CCA.
  core::SplitPolicy split;
  core::DelayPolicy delay;
  core::CompositePolicy combined({&split, &delay});
  core::CcaGuard guarded(combined);

  // --- 3. A server that pushes 1 MB through the obfuscated stack -----------
  tcp::TcpConnection::Config server_cfg;
  server_cfg.policy = &guarded;  // the Stob hook
  tcp::TcpListener listener(net.server(), 443, server_cfg);
  listener.set_accept_callback([](tcp::TcpConnection& conn) {
    conn.on_connected = [&conn] { conn.send(Bytes::mebi(1)); };
  });

  tcp::TcpConnection client(net.client(), tcp::TcpConnection::Config{});
  Bytes received;
  TimePoint done_at;
  client.on_data = [&](Bytes n) {
    received += n;
    if (received >= Bytes::mebi(1) && done_at == TimePoint::zero()) done_at = net.sim().now();
  };

  // Observe the wire like tcpdump would.
  std::int64_t packets = 0, max_payload = 0;
  net.path().backward().set_tx_tap([&](const net::Packet& p, TimePoint) {
    if (p.payload.count() > 0) {
      ++packets;
      max_payload = std::max(max_payload, p.payload.count());
    }
  });

  client.connect(net.server().id(), 443);
  net.run(TimePoint(Duration::seconds(60).ns()));

  std::printf("received:        %lld bytes\n", static_cast<long long>(received.count()));
  std::printf("data packets:    %lld (max payload %lld B; MSS would be 1448 B)\n",
              static_cast<long long>(packets), static_cast<long long>(max_payload));
  std::printf("policy applied:  %s\n", guarded.name().c_str());
  std::printf("guard clamps:    %llu (0 means the policy was CCA-compliant)\n",
              static_cast<unsigned long long>(guarded.departure_clamps()));
  std::printf("transfer time:   %.3f s\n", done_at.sec());
  return received == Bytes::mebi(1) ? 0 : 1;
}
