#include "workload/page_load.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace stob::workload {

namespace {

constexpr net::Port kHttpsPort = 443;

/// One request/response exchange on a connection.
struct Fetch {
  std::int64_t request = 0;
  std::int64_t response = 0;
  /// Pre-TLS-framing sizes; the response is sealed server-side at actual
  /// send time so TLS record events carry honest timestamps.
  std::int64_t raw_response = 0;
  Duration think;
  bool is_object = false;
};

class Driver {
 public:
  Driver(const SiteProfile& profile, Rng& rng, const PageLoadOptions& options)
      : rng_(rng), options_(options), plan_(sample_page(profile, rng)) {
    // Per-sample network conditions (load variability / route jitter).
    const double rate_mult = rng_.lognormal(0.0, options.rate_sigma);
    const double delay_mult = rng_.uniform(1.0 - options.delay_jitter, 1.0 + options.delay_jitter);
    stack::HostPair::Config hp_cfg;
    hp_cfg.path = net::DuplexPath::symmetric(
        DataRate(static_cast<std::int64_t>(
            static_cast<double>(profile.access_rate.bits_per_sec()) * rate_mult)),
        profile.base_one_way_delay * delay_mult, Bytes::kibi(384));
    hp_ = std::make_unique<stack::HostPair>(hp_cfg);
    if (options.path_faults.any()) {
      // Forked so the page-load sampling stream stays identical whether or
      // not faults are enabled (clean runs are byte-for-byte unchanged).
      faults_ = std::make_unique<fault::PathFaults>(hp_->sim(), hp_->path(),
                                                    options.path_faults, rng_.fork());
    }
    recorder_ = std::make_unique<wf::TraceRecorder>(hp_->path());

    tcp::TcpConnection::Config server_cfg = options_.server_conn;
    if (server_cfg.initial_cwnd_segments == 0) {
      server_cfg.initial_cwnd_segments = profile.server_initial_cwnd;
    }
    // Each response goes to the server connection in one send(), and a
    // connection carries one response at a time (the client asks for the
    // next only once the last has arrived). A send buffer that holds the
    // largest response therefore never refuses a byte; a smaller one would
    // cut the response short and leave the client waiting.
    server_cfg.send_buffer = Bytes(std::max(server_cfg.send_buffer.count(), largest_response()));
    listener_ = std::make_unique<tcp::TcpListener>(hp_->server(), kHttpsPort, server_cfg);
    listener_->set_accept_callback([this](tcp::TcpConnection& c) {
      ServerScript& script = scripts_[c.key().reversed()];
      script.conn = &c;
      if (options_.tls_records) {
        script.tls = std::make_unique<stack::TlsSession>(options_.tls);
        script.tls->set_flow(c.key());
      }
      c.on_data = [this, &script](Bytes n) {
        open_client_records(script, n);
        script.buffered += n.count();
        pump_server(script);
      };
      c.on_peer_closed = [&c] { c.close(); };
    });

    for (std::size_t i = 0; i < plan_.object_bytes.size(); ++i) pending_objects_.push_back(i);
  }

  PageLoadResult run() {
    open_client_slot(0);
    hp_->run(TimePoint::zero() + options_.timeout);

    PageLoadResult result;
    result.trace = recorder_->take();
    result.page_load_time = done_at_ - TimePoint::zero();
    result.objects_fetched = objects_fetched_;
    result.response_bytes = plan_.html_bytes;
    for (std::size_t i = 0; i < plan_.object_bytes.size(); ++i) {
      result.response_bytes += plan_.object_bytes[i];
    }
    result.completed = html_done_ && objects_fetched_ == plan_.object_bytes.size();
    result.sim_events = hp_->sim().executed();
    // All scraped values (events, heap high-water) are deterministic for a
    // deterministic load, so this is safe under per-job registries that the
    // engine's determinism checks compare byte-for-byte.
    if (obs::MetricsRegistry* m = obs::metrics()) obs::scrape_simulator(hp_->sim(), *m);
    return result;
  }

 private:
  struct ClientSlot {
    std::unique_ptr<tcp::TcpConnection> conn;
    /// Client-to-server record layer (present when options.tls_records):
    /// the client seals requests, the server opens them.
    std::unique_ptr<stack::TlsSession> tls;
    std::int64_t awaiting = 0;
    Fetch current;
    bool ready = false;  // TLS exchange finished, can carry requests
  };

  struct ServerScript {
    tcp::TcpConnection* conn = nullptr;
    /// Server-to-client record layer: the server seals responses at send
    /// time, the client opens them on arrival.
    std::unique_ptr<stack::TlsSession> tls;
    std::deque<Fetch> queue;
    std::int64_t buffered = 0;
    bool busy = false;  // a think/response is in progress
  };

  /// The largest response in the plan, as sent (TLS-sealed when framed).
  std::int64_t largest_response() const {
    std::int64_t largest = std::max(plan_.tls_response_bytes, plan_.html_bytes);
    for (std::int64_t b : plan_.object_bytes) largest = std::max(largest, b);
    return options_.tls_records ? stack::tls_sealed_size(largest, options_.tls) : largest;
  }

  void open_client_slot(std::size_t i) {
    if (i >= slots_.size()) slots_.resize(i + 1);
    ClientSlot& slot = slots_[i];
    slot.conn = std::make_unique<tcp::TcpConnection>(hp_->client(), options_.client_conn);
    tcp::TcpConnection& conn = *slot.conn;
    conn.on_connected = [this, i] { on_client_connected(i); };
    conn.on_data = [this, i](Bytes n) { on_client_data(i, n); };
    conn.connect(hp_->server().id(), kHttpsPort);
    if (options_.tls_records) {
      slot.tls = std::make_unique<stack::TlsSession>(options_.tls);
      slot.tls->set_flow(conn.key());
    }
  }

  /// Feed request ciphertext arriving at the server into the client's
  /// sealing session, completing its records (observability only; sizes are
  /// handled by the out-of-band script).
  void open_client_records(ServerScript& script, Bytes n) {
    if (!options_.tls_records || script.conn == nullptr) return;
    const net::FlowKey client_key = script.conn->key().reversed();
    for (ClientSlot& slot : slots_) {
      if (slot.tls && slot.conn && slot.conn->key() == client_key) {
        slot.tls->open(n.count(), hp_->sim().now());
        return;
      }
    }
  }

  void on_client_connected(std::size_t i) {
    // TLS handshake emulation: ClientHello-sized request, certificate+
    // ServerHello-sized response (site-specific chain), short think time.
    Fetch tls;
    tls.request = 517;
    tls.response = plan_.tls_response_bytes;
    tls.think = Duration::micros(static_cast<std::int64_t>(rng_.uniform(300.0, 900.0)));
    send_fetch(i, tls);
  }

  void on_client_data(std::size_t i, Bytes n) {
    ClientSlot& slot = slots_[i];
    if (options_.tls_records) {
      auto it = scripts_.find(slot.conn->key());
      if (it != scripts_.end() && it->second.tls) {
        it->second.tls->open(n.count(), hp_->sim().now());
      }
    }
    slot.awaiting -= n.count();
    if (slot.awaiting > 0) return;

    // Current exchange finished.
    if (!slot.ready) {
      slot.ready = true;  // TLS done
    } else if (slot.current.is_object) {
      ++objects_fetched_;
    } else {
      // HTML arrived: open the remaining parallel connections.
      html_done_ = true;
      for (int c = 1; c < plan_.parallel_connections; ++c) {
        open_client_slot(static_cast<std::size_t>(c));
      }
    }
    dispatch(i);
    check_done();
  }

  /// Give the next piece of work to slot i.
  void dispatch(std::size_t i) {
    ClientSlot& slot = slots_[i];
    if (!slot.ready) return;
    if (i == 0 && !html_requested_) {
      html_requested_ = true;
      Fetch html;
      html.request = plan_.html_request_bytes;
      html.response = plan_.html_bytes;
      html.think = plan_.html_think;
      send_fetch(i, html);
      return;
    }
    if (!html_done_ || pending_objects_.empty()) {
      return;  // nothing to do yet (or page finished)
    }
    const std::size_t obj = pending_objects_.front();
    pending_objects_.pop_front();
    Fetch fetch;
    fetch.request = plan_.request_bytes[obj];
    fetch.response = plan_.object_bytes[obj];
    fetch.think = plan_.think_times[obj];
    fetch.is_object = true;
    send_fetch(i, fetch);
  }

  void send_fetch(std::size_t i, Fetch fetch) {
    ClientSlot& slot = slots_[i];
    if (options_.tls_records) {
      // Both directions travel as TLS records: sizes grow by the framing
      // overhead and any record-padding policy. The request is sealed now
      // (it goes out now); the response is sealed by the server session at
      // response time, on the same size schedule.
      fetch.raw_response = fetch.response;
      fetch.request = slot.tls ? slot.tls->seal(fetch.request, hp_->sim().now())
                               : stack::tls_sealed_size(fetch.request, options_.tls);
      fetch.response = stack::tls_sealed_size(fetch.response, options_.tls);
    }
    slot.current = fetch;
    slot.awaiting = fetch.response;
    scripts_[slot.conn->key()].queue.push_back(fetch);
    slot.conn->send(Bytes(fetch.request));
    // The server may already have buffered bytes (reordered registration).
    auto it = scripts_.find(slot.conn->key());
    if (it != scripts_.end() && it->second.conn != nullptr) pump_server(it->second);
  }

  void pump_server(ServerScript& script) {
    if (script.busy || script.conn == nullptr) return;
    if (script.queue.empty() || script.buffered < script.queue.front().request) return;
    const Fetch fetch = script.queue.front();
    script.queue.pop_front();
    script.buffered -= fetch.request;
    script.busy = true;
    hp_->sim().schedule_after(fetch.think, [this, &script, fetch] {
      script.busy = false;
      if (script.conn != nullptr) {
        std::int64_t wire = fetch.response;
        if (script.tls) {
          // Seal at actual send time; sizes match the pre-computed schedule.
          wire = script.tls->seal(fetch.raw_response, hp_->sim().now());
        }
        const Bytes accepted = script.conn->send(Bytes(wire));
        if (accepted.count() != wire) {
          // The send buffer is sized to fit every response (constructor);
          // a short accept would cut this one and stall the load.
          throw std::logic_error("page_load: server send buffer took " +
                                 std::to_string(accepted.count()) + " of a " +
                                 std::to_string(wire) + "-byte response");
        }
      }
      pump_server(script);
    });
  }

  void check_done() {
    if (done_ || !html_done_ || objects_fetched_ < plan_.object_bytes.size()) return;
    done_ = true;
    done_at_ = hp_->sim().now();
    for (ClientSlot& slot : slots_) {
      if (slot.conn) slot.conn->close();
    }
  }

  Rng& rng_;
  const PageLoadOptions& options_;
  PagePlan plan_;
  std::unique_ptr<stack::HostPair> hp_;
  // Declared after hp_ so injectors detach from the pipes before they die.
  std::unique_ptr<fault::PathFaults> faults_;
  std::unique_ptr<wf::TraceRecorder> recorder_;
  std::unique_ptr<tcp::TcpListener> listener_;
  std::vector<ClientSlot> slots_;
  std::unordered_map<net::FlowKey, ServerScript, net::FlowKeyHash> scripts_;
  std::deque<std::size_t> pending_objects_;
  bool html_requested_ = false;
  bool html_done_ = false;
  bool done_ = false;
  TimePoint done_at_;
  std::size_t objects_fetched_ = 0;
};

}  // namespace

PageLoadResult run_page_load(const SiteProfile& profile, Rng& rng,
                             const PageLoadOptions& options) {
  Driver driver(profile, rng, options);
  return driver.run();
}

wf::Dataset collect_dataset(const std::vector<SiteProfile>& sites, std::size_t samples,
                            std::uint64_t seed, const PageLoadOptions& options) {
  wf::Dataset data;
  Rng rng(seed);
  for (std::size_t s = 0; s < sites.size(); ++s) {
    for (std::size_t i = 0; i < samples; ++i) {
      Rng sample_rng = rng.fork();
      PageLoadResult result = run_page_load(sites[s], sample_rng, options);
      if (!result.completed) {
        STOB_WARN("workload") << sites[s].name << " sample " << i << " incomplete ("
                              << result.objects_fetched << " objects)";
      }
      data.add(std::move(result.trace), static_cast<int>(s));
    }
  }
  return data;
}

}  // namespace stob::workload
