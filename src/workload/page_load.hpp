// Page-load driver: emulates a browser fetching a page (sampled from a
// SiteProfile) from a server over the simulated stack, and records the
// resulting packet trace at the client's vantage point.
//
// Protocol emulation: since packets carry sizes rather than bytes, the
// driver plays both endpoints and coordinates request/response framing
// out-of-band (the request sizes the client sends are registered with the
// scripted server, which responds with the planned object after its think
// time). Each connection starts with a TLS-handshake-shaped exchange, then
// the first connection fetches the HTML; once the HTML is in, the client
// opens its remaining parallel connections and round-robins the objects.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>

#include "core/policy.hpp"
#include "fault/fault.hpp"
#include "stack/tls_record.hpp"
#include "stack/host_pair.hpp"
#include "tcp/tcp_connection.hpp"
#include "util/rng.hpp"
#include "wf/trace.hpp"
#include "workload/website.hpp"

namespace stob::workload {

struct PageLoadOptions {
  /// Connection configuration used for the client-side sockets.
  tcp::TcpConnection::Config client_conn;
  /// Connection configuration for server-side sockets; install a Stob
  /// policy here to model a server-side in-stack defense.
  tcp::TcpConnection::Config server_conn;
  /// Multiplicative jitter applied to the profile's access rate (lognormal
  /// sigma) and one-way delay (uniform +-) per sample.
  double rate_sigma = 0.15;
  double delay_jitter = 0.12;
  /// Frame every request/response through the TLS record layer (adds
  /// per-record overhead and honours tls.pad_to record padding — the
  /// application-side padding locus the paper points at in §4.2).
  bool tls_records = false;
  stack::TlsConfig tls;
  /// Adverse-network fault profile applied to the path (forward = client ->
  /// server). The default ("clean", no impairments) attaches nothing, so
  /// un-faulted runs are byte-identical to builds without the fault layer.
  fault::PathProfile path_faults;
  /// Give up after this much simulated time.
  Duration timeout = Duration::seconds(60);
};

struct PageLoadResult {
  wf::Trace trace;
  Duration page_load_time;      ///< first SYN to last object byte
  std::int64_t response_bytes = 0;
  std::size_t objects_fetched = 0;
  bool completed = false;
  /// Simulator events executed for this load: the denominator of the
  /// pipeline benchmark's events per CPU second, and a count
  /// tests/test_alloc.cpp pins exactly.
  std::uint64_t sim_events = 0;
};

/// Run one page load in a fresh simulation. Deterministic for a given rng
/// state.
PageLoadResult run_page_load(const SiteProfile& profile, Rng& rng,
                             const PageLoadOptions& options);

/// Collect `samples` page loads per site into a labeled dataset (labels are
/// indices into `sites`). `seed` controls all randomness.
wf::Dataset collect_dataset(const std::vector<SiteProfile>& sites, std::size_t samples,
                            std::uint64_t seed, const PageLoadOptions& options);

}  // namespace stob::workload
