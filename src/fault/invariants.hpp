// Runtime stack-invariant checker.
//
// The paper's central guarantee — the obfuscated flow is never more
// aggressive than what the CCA decided — is enforced by core::CcaGuard at
// policy boundaries, but nothing asserted it end-to-end while the stack
// runs, least of all under adverse paths where loss recovery and defense
// schedules interact. This checker hooks the obs::StackListener tap and
// cross-checks every event, per flow:
//
//  1. never-more-aggressive: each emission departs no earlier than the
//     CCA/pacer allows and is no larger than the CCA-approved segment;
//     window-limited emissions respect inflight + bytes <= cwnd (+ the
//     transport's documented slack);
//  2. byte conservation down the tx chain: TLS records >= TCP new stream
//     bytes; qdisc releases <= qdisc admissions; NIC pushes <= qdisc
//     releases; wire transmissions <= NIC pushes; and wire receptions <=
//     wire transmissions plus the fault layer's duplication budget;
//  3. sequence sanity: TCP data sequence numbers never regress, QUIC packet
//     numbers strictly increase;
//  4. retransmit sanity: no retransmission of data that is already
//     cumulatively acked;
//  5. queue bounds: qdisc backlog and NIC ring occupancy stay within their
//     configured bounds (plus the admit-one / TSO-burst slack the
//     implementations document).
//
// On violation the checker fails loudly: it logs the invariant, the
// offending event, and a flight-recorder tail (when a TraceRecorder is
// installed), keeps the report for the harness, and optionally throws.
// A passing check costs one compare and one counter increment; its report
// text is formatted only if it fails.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "obs/trace_recorder.hpp"
#include "util/units.hpp"

namespace stob::fault {

class StackInvariantError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class StackInvariantChecker final : public obs::StackListener {
 public:
  struct Config {
    /// Throw StackInvariantError on the first violation (tests); when
    /// false, violations are counted and reported but the run continues
    /// (sweeps, so one bad job cannot hide the others).
    bool throw_on_violation = false;
    /// Keep at most this many formatted violation reports.
    std::size_t max_reports = 8;
    /// Flight-recorder tail length included in each report (requires an
    /// installed obs::TraceRecorder).
    std::size_t dump_events = 32;
  };

  StackInvariantChecker() = default;
  explicit StackInvariantChecker(Config cfg) : cfg_(cfg) {}

  std::uint64_t checks() const { return checks_; }
  std::uint64_t violations() const { return violations_; }
  const std::vector<std::string>& reports() const { return reports_; }
  std::string first_report() const { return reports_.empty() ? std::string() : reports_.front(); }

  /// Test hook: drive a synthetic violation through the normal reporting
  /// path (log + dump + count + optional throw).
  void inject_violation_for_test();

  // ------------------------------------------------ obs::StackListener
  void on_packet(const obs::PacketEvent& ev) override;
  void on_departure(const obs::DepartureEvent& ev) override;
  void on_ack_advance(const net::FlowKey& flow, std::uint64_t una) override;
  void on_queue_depth(obs::QueueKind kind, std::int64_t depth, std::int64_t bound) override;
  void on_fault(obs::FaultKind kind, const net::Packet& p, TimePoint now) override;

 private:
  /// Per-flow cumulative accounting (sender-perspective flow keys).
  struct FlowState {
    // Byte-conservation ledgers (payload bytes).
    std::int64_t tls_tx = 0;       // sealed TLS record bytes
    std::uint64_t tcp_high = 0;    // highest TCP stream offset emitted (seq+len)
    std::int64_t qdisc_in = 0;     // admitted into the qdisc
    std::int64_t qdisc_out = 0;    // released by the qdisc
    std::int64_t nic_tx = 0;       // pushed into the NIC ring
    std::int64_t wire_tx = 0;      // started serialising onto the wire
    std::int64_t wire_rx = 0;      // delivered by the wire
    std::int64_t dup_budget = 0;   // extra rx bytes the fault layer created
    // Sequence sanity.
    bool have_tcp_seq = false;
    std::uint64_t last_tcp_seq = 0;
    bool have_quic_pn = false;
    std::uint64_t last_quic_pn = 0;
    // Retransmit sanity.
    bool have_una = false;
    std::uint64_t una = 0;
  };

  /// Count one check. The detail operands are streamed into the report
  /// text only when `ok` is false, so a passing check never formats.
  template <class... Detail>
  void check(bool ok, const char* invariant, const Detail&... detail);
  void report(const char* invariant, const std::string& detail);

  Config cfg_;
  std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash> flows_;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<std::string> reports_;
};

}  // namespace stob::fault
