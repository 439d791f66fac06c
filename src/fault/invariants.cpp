#include "fault/invariants.hpp"

#include <sstream>

#include "util/log.hpp"

namespace stob::fault {

namespace {

/// Where a violation happened, as its report names it: "flow [F] t=T",
/// plus " pkt#N" for a packet event.
struct Where {
  const net::FlowKey& flow;
  TimePoint time;
  const std::uint64_t* packet_id = nullptr;  // packet events only
};

std::ostream& operator<<(std::ostream& os, const Where& at) {
  os << "flow [" << at.flow << "] t=" << at.time;
  if (at.packet_id != nullptr) os << " pkt#" << *at.packet_id;
  return os;
}

/// The detail text of a failed check: its operands streamed in order.
/// Cold and out of line, so passing checks carry none of it.
template <class... Detail>
[[gnu::cold, gnu::noinline]] std::string text(const Detail&... detail) {
  std::ostringstream os;
  (os << ... << detail);
  return os.str();
}

}  // namespace

template <class... Detail>
void StackInvariantChecker::check(bool ok, const char* invariant, const Detail&... detail) {
  ++checks_;
  if (!ok) report(invariant, text(detail...));
}

void StackInvariantChecker::report(const char* invariant, const std::string& detail) {
  ++violations_;
  std::ostringstream os;
  os << "stack invariant violated: " << invariant << " — " << detail;
  // Fail loudly with a flight-recorder dump when one is installed.
  if (obs::TraceRecorder* r = obs::recorder(); r != nullptr && cfg_.dump_events > 0) {
    const std::vector<obs::PacketEvent> events = r->events();
    const std::size_t n = std::min(cfg_.dump_events, events.size());
    os << "\nflight recorder (last " << n << " of " << events.size() << " events):";
    for (std::size_t i = events.size() - n; i < events.size(); ++i) {
      os << "\n  " << obs::TraceRecorder::to_json(events[i]);
    }
  }
  const std::string msg = os.str();
  STOB_ERROR("invariants") << msg;
  if (reports_.size() < cfg_.max_reports) reports_.push_back(msg);
  if (cfg_.throw_on_violation) throw StackInvariantError(msg);
}

void StackInvariantChecker::inject_violation_for_test() {
  report("injected-for-test", "deliberate violation via test hook");
}

void StackInvariantChecker::on_departure(const obs::DepartureEvent& ev) {
  const Where at{ev.flow, ev.now};
  check(ev.departure >= ev.cca_departure, "cca-departure-never-earlier", at, " departure ",
        ev.departure, " < cca_departure ", ev.cca_departure);
  check(ev.bytes <= ev.cca_segment, "cca-segment-never-larger", at, " bytes ", ev.bytes,
        " > cca_segment ", ev.cca_segment);
  if (ev.window_limited) {
    check(ev.inflight + ev.bytes <= ev.cwnd + ev.cwnd_slack, "cwnd-respected", at, " inflight ",
          ev.inflight, " + bytes ", ev.bytes, " > cwnd ", ev.cwnd, " + slack ", ev.cwnd_slack);
  }
}

void StackInvariantChecker::on_packet(const obs::PacketEvent& ev) {
  FlowState& fs = flows_[ev.flow];
  const Where at{ev.flow, ev.time, &ev.packet_id};

  switch (ev.layer) {
    case obs::Layer::Tls:
      if (ev.dir == obs::Direction::Tx && ev.kind == obs::EventKind::Send) {
        fs.tls_tx += ev.bytes;
      }
      break;

    case obs::Layer::Tcp:
      if (ev.dir != obs::Direction::Tx) break;
      if (ev.kind == obs::EventKind::Send && ev.bytes > 0) {
        // New-data sequence numbers never regress.
        check(!fs.have_tcp_seq || ev.seq >= fs.last_tcp_seq, "tcp-seq-monotonic", at, " seq ",
              ev.seq, " < previous ", fs.last_tcp_seq);
        fs.have_tcp_seq = true;
        fs.last_tcp_seq = ev.seq;
        const std::uint64_t end = ev.seq + static_cast<std::uint64_t>(ev.bytes);
        if (end > fs.tcp_high) fs.tcp_high = end;
        // TLS -> TCP conservation: the transport never invents stream bytes
        // the record layer did not seal (checkable only when TLS framing is
        // in use on this flow).
        if (fs.tls_tx > 0) {
          check(fs.tcp_high <= static_cast<std::uint64_t>(fs.tls_tx), "tls-tcp-conservation", at,
                " tcp stream high ", fs.tcp_high, " > sealed tls bytes ", fs.tls_tx);
        }
      } else if (ev.kind == obs::EventKind::Retransmit) {
        // No retransmission of data that is already cumulatively acked.
        if (fs.have_una && ev.bytes > 0) {
          const std::uint64_t end = ev.seq + static_cast<std::uint64_t>(ev.bytes);
          check(end > fs.una, "no-retx-of-acked", at, " retx [", ev.seq, ", ", end,
                ") entirely below una ", fs.una);
        }
      }
      break;

    case obs::Layer::Quic:
      if (ev.dir != obs::Direction::Tx) break;
      if (ev.kind == obs::EventKind::Send || ev.kind == obs::EventKind::Retransmit) {
        // QUIC never reuses a packet number.
        check(!fs.have_quic_pn || ev.seq > fs.last_quic_pn, "quic-pn-strictly-increasing", at,
              " pn ", ev.seq, " <= previous ", fs.last_quic_pn);
        fs.have_quic_pn = true;
        fs.last_quic_pn = ev.seq;
      }
      break;

    case obs::Layer::Qdisc:
      if (ev.kind == obs::EventKind::Enqueue) {
        fs.qdisc_in += ev.bytes;
      } else if (ev.kind == obs::EventKind::Dequeue) {
        fs.qdisc_out += ev.bytes;
        check(fs.qdisc_out <= fs.qdisc_in, "qdisc-conservation", at, " qdisc released ",
              fs.qdisc_out, " > admitted ", fs.qdisc_in);
      }
      break;

    case obs::Layer::Nic:
      if (ev.dir == obs::Direction::Tx && ev.kind == obs::EventKind::Send) {
        fs.nic_tx += ev.bytes;
        if (fs.qdisc_in > 0) {
          check(fs.nic_tx <= fs.qdisc_out, "qdisc-nic-conservation", at, " nic pushed ",
                fs.nic_tx, " > qdisc released ", fs.qdisc_out);
        }
      }
      break;

    case obs::Layer::Wire:
      if (ev.dir == obs::Direction::Tx && ev.kind == obs::EventKind::Send) {
        fs.wire_tx += ev.bytes;
        if (fs.nic_tx > 0) {
          check(fs.wire_tx <= fs.nic_tx, "nic-wire-conservation", at, " wire tx ", fs.wire_tx,
                " > nic pushed ", fs.nic_tx);
        }
      } else if (ev.dir == obs::Direction::Rx && ev.kind == obs::EventKind::Receive) {
        fs.wire_rx += ev.bytes;
        if (fs.wire_tx > 0) {
          // The fault layer's duplication budget is the only legitimate way
          // to receive more bytes than were transmitted.
          check(fs.wire_rx <= fs.wire_tx + fs.dup_budget, "wire-conservation", at, " wire rx ",
                fs.wire_rx, " > wire tx ", fs.wire_tx, " + dup budget ", fs.dup_budget);
        }
      }
      break;

    default:
      break;
  }
}

void StackInvariantChecker::on_ack_advance(const net::FlowKey& flow, std::uint64_t una) {
  FlowState& fs = flows_[flow];
  fs.have_una = true;
  fs.una = una;
}

void StackInvariantChecker::on_queue_depth(obs::QueueKind kind, std::int64_t depth,
                                           std::int64_t bound) {
  const char* name =
      kind == obs::QueueKind::QdiscBacklog ? "qdisc-backlog-bound" : "nic-ring-bound";
  check(depth >= 0 && depth <= bound, name, "depth ", depth, " outside [0, ", bound, "]");
}

void StackInvariantChecker::on_fault(obs::FaultKind kind, const net::Packet& p, TimePoint) {
  if (kind == obs::FaultKind::Duplicate) flows_[p.flow].dup_budget += p.payload.count();
}

}  // namespace stob::fault
