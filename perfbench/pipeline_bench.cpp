// Whole-pipeline benchmark: page load -> stack -> defense -> k-FP, run as
// three workloads through the library's public entry points.
//
//   collect  Table 1 collection sweep: 9 sites x N samples x {reno, cubic,
//            bbr} on a clean path with TLS records, exp::run_grid with 2
//            workers, no cache, no defense. Time goes to sim/net/stack/tcp
//            and the exp worker pool; wf does nothing.
//   defend   Stack placement of every zoo policy: a fresh SegmentMount per
//            load behind core::CcaGuard, fault::adverse_mix() paths, a
//            StackInvariantChecker armed, run_page_load called directly
//            (not run_grid, whose jobs share one server_conn.policy) from 2
//            workers; each trace is then replayed through the same policy
//            (run_policy).
//   attack   Table 2 attack stage as an incremental re-evaluation: set-up
//            fills a fresh ResultCache; each pass serves the grid from it,
//            sanitizes, applies trace-placed `combined`, and cross-validates
//            k-FP over {first-30, full} x {original, combined} plus one
//            leaf-k-NN cell.
//
// Usage:
//   pipeline_bench --workload collect|defend|attack --seed N --seconds S
//                  --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//                  [--tiny] [--corrupt]
//
// --trace 0 prints the end-to-end metrics (median over passes, scaled to
// the reference host speed, see host_reference_s); --trace 1
// alternates untraced and traced passes and prints the per-layer metrics,
// writing the traced spans as Chrome trace_event JSON to --trace-out.
// --tiny shrinks every workload (self-test); --corrupt damages one output
// of the second pass so the output checks must report a failure.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/cca_guard.hpp"
#include "defenses/policy.hpp"
#include "defenses/stack_mount.hpp"
#include "exp/experiment.hpp"
#include "exp/job_codec.hpp"
#include "exp/result_cache.hpp"
#include "exp/worker_pool.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace_recorder.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"
#include "wf/kfp.hpp"
#include "workload/page_load.hpp"
#include "workload/website.hpp"

using namespace stob;

// ------------------------------------------------------------ alloc probe
//
// Same probe as bench/perf_suite, counting every operator new in the
// process (pool workers allocate too), but striped per thread: one shared
// counter bounces a cache line between the two workers on every
// allocation. On a 4-vCPU Xeon (Sapphire Rapids) KVM guest that cost
// about 40 ns per allocation with two threads allocating, against ~0 for
// the stripes, and made a 135-load defend pass (~12 M allocations) about 10 %
// slower. Aligned new is not replaced, so util/buffer_pool's own misses
// are not in this count.

namespace {

struct alignas(64) AllocStripe {
  std::atomic<std::uint64_t> count{0};
};
constexpr unsigned kStripes = 64;
AllocStripe g_alloc_stripes[kStripes];
std::atomic<unsigned> g_next_stripe{0};

void count_alloc() {
  thread_local const unsigned stripe =
      g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  g_alloc_stripes[stripe].count.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t allocs_so_far() {
  std::uint64_t total = 0;
  for (const AllocStripe& s : g_alloc_stripes) total += s.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace

void* operator new(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
// Out of line so GCC does not pair an inlined free() with operator new and
// warn (-Wmismatched-new-delete); both sides are malloc/free here.
[[gnu::noinline]] static void release(void* p) noexcept { std::free(p); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace {

constexpr std::size_t kWorkers = 2;
const std::vector<std::string> kCcas{"reno", "cubic", "bbr"};
// Seed of the collect and defend warm-up loads. It does not follow --seed,
// so setup_s times the same work on every run.
constexpr std::uint64_t kWarmSeed = 0x5e7;

// ------------------------------------------------------------ clocks

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process CPU seconds (all threads), the basis of cpu_s.
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : stats::percentile(xs, 50.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------ host speed
//
// The host's other guests slow this VM's vCPUs by up to 2x, in phases that
// last from seconds to minutes, so the same pass can take 25 % longer in one
// run than in the next. The slowdown hits branchy, allocation-heavy code
// hardest: a tight ALU loop or a pointer chase barely moves while the
// simulator does. The reference kernel below is a small discrete-event
// simulation written here, not taken from the library (a heap of timed
// callbacks, per-flow state in a hash map, small heap-allocated messages,
// a line formatted through a stream per event). On the 4-vCPU Xeon guest
// this benchmark was written on, a form of it without the stream, timed
// alternately with nine clean page loads for three minutes, had a time
// correlation of 0.98 over 0.7-second windows, and their ratio spread 0.05
// (quartile distance over median) where the loads alone spread 0.24. The
// stream is there for defend, whose time goes mostly to the invariant
// checker's stream formatting on two threads: scaled without it, defend's
// cpu_s over five seeds spread 0.11, and 0.05 with it. The run times the
// kernel on the workers' threads after every set-up and every pass
// (sample_reference), and scales the end-to-end times to the reference
// speed:
// value = measured * kRefNominalS / (median reference time of that phase).
// A change to the library moves the measured times but not the reference.
// The measured times are printed beside the scaled ones.

/// The reference kernel's thread CPU time at the reference speed (about its
/// median on that guest).
constexpr double kRefNominalS = 0.055;

/// Thread CPU seconds of one fixed run of the reference kernel.
double reference_kernel_s() {
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fire;
  };
  struct Later {
    bool operator()(const Event& x, const Event& y) const {
      return x.at != y.at ? x.at > y.at : x.seq > y.seq;
    }
  };
  constexpr int kEvents = 50000;
  const double c0 = thread_cpu_s();
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> flows;
  std::uint64_t now = 0, seq = 0, bytes = 0, state = 88172645463325252ull;
  const auto next = [&] {  // xorshift64: the same work on every run
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::function<void(std::uint64_t)> send = [&](std::uint64_t flow) {
    auto message = std::make_shared<std::vector<std::uint8_t>>(64 + next() % 1400);
    queue.push({now + 1 + next() % 1000, seq++, [&, flow, message] {
                  bytes += (flows[flow] += message->size());
                  // Formatting through a stream, as the invariant checker
                  // does for every packet event, shares the global locale's
                  // reference count between the threads.
                  std::ostringstream note;
                  note << "flow " << flow << " bytes " << flows[flow];
                  bytes += note.str().size();
                  if (next() % 8 != 0) send((flow * 31 + next()) % 4096);
                }});
  };
  for (std::uint64_t flow = 0; flow < 64; ++flow) send(flow);
  for (int i = 0; i < kEvents && !queue.empty(); ++i) {
    Event e = queue.top();
    queue.pop();
    now = e.at;
    e.fire();
    if (queue.size() < 32) send(next() % 4096);
  }
  if (bytes == 0) throw std::logic_error("reference kernel did no work");
  return thread_cpu_s() - c0;
}

/// The reference kernel on kWorkers threads at once (the passes' thread
/// count); the mean of their CPU times.
double host_reference_s() {
  std::vector<double> times(kWorkers, 0.0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&times, i] { times[i] = reference_kernel_s(); });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0.0;
  for (double t : times) sum += t;
  return sum / static_cast<double>(kWorkers);
}

/// Time the reference after a set-up or pass that took `span_s` seconds:
/// as many runs as fill a tenth of that span (at least one), so the
/// reference samples the host evenly over a run. Returns the last time.
double sample_reference(std::vector<double>& times, double span_s) {
  const Clock::time_point t0 = Clock::now();
  do {
    times.push_back(host_reference_s());
  } while (seconds_since(t0) < 0.1 * span_s);
  return times.back();
}

// ------------------------------------------------------------ metric table

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}};

// Every per-layer metric is printed on every workload; a layer the workload
// does not exercise reads 0 (e.g. wf.* on collect). BENCHMARK.json lists the
// same names and units.
constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_cell", "count"},
    {"sim.events_per_cpu_s", "1/s"},
    {"sim.cancelled_frac", "ratio"},
    {"sim.heap_high_water", "count"},
    {"alloc.per_event", "count"},
    {"alloc.per_cell", "count"},
    {"mem.pool_hit_ratio", "ratio"},
    {"workload.page_load_ms.p50", "ms"},
    {"workload.page_load_ms.p95", "ms"},
    {"workload.page_load_cpu_ms.p50", "ms"},
    {"tls.records_per_cell", "count"},
    {"tcp.segments_per_cell", "count"},
    {"tcp.retransmit_frac", "ratio"},
    {"qdisc.packets_per_cell", "count"},
    {"qdisc.drop_frac", "ratio"},
    {"qdisc.wait_us.p50", "us"},
    {"qdisc.wait_us.p95", "us"},
    {"nic.packets_per_cell", "count"},
    {"wire.packets_per_cell", "count"},
    {"wire.bytes_per_cell", "bytes"},
    {"fault.events_per_cell", "count"},
    {"fault.invariants.calls_per_cell", "count"},
    {"fault.invariants.ns_per_call", "ns"},
    {"fault.invariants.cpu_share", "ratio"},
    {"core.guard.clamps_per_cell", "count"},
    {"defenses.mount.dummy_suppressed_per_cell", "count"},
    {"defenses.trace.us_per_trace", "us"},
    {"defenses.trace.out_in_ratio", "ratio"},
    {"exp.pool.queue_wait_ms.p50", "ms"},
    {"exp.pool.worker_busy_frac", "ratio"},
    {"exp.parallel_eff", "ratio"},
    {"exp.cache.hit_ratio", "ratio"},
    {"exp.cache.load_ms_per_cell", "ms"},
    {"exp.cache.bytes_per_cell", "bytes"},
    {"exp.cache.store_ms_per_cell", "ms"},
    {"wf.features.ns_per_packet", "ns"},
    {"wf.fit.ms_per_fold", "ms"},
    {"wf.predict.ns_per_row_tree", "ns"},
    {"wf.leaf_index.ns_per_row_tree", "ns"},
    {"wf.knn.ms_per_fold", "ms"},
    {"obs.trace_overhead_frac", "ratio"},
};

using Layer = std::map<std::string, double>;

// ------------------------------------------------------------ digest

class Digest {
 public:
  void add(const wf::Trace& t) {
    const std::uint64_t n = t.size();
    sha_.update(&n, sizeof n);
    for (const wf::PacketRecord& p : t.packets()) {
      add_double(p.time);
      const std::int64_t fields[2] = {p.direction, p.size};
      sha_.update(fields, sizeof fields);
    }
  }
  void add(const wf::EvalResult& r) {
    add_double(r.mean_accuracy);
    add_double(r.std_accuracy);
    for (double a : r.fold_accuracies) add_double(a);
    const std::size_t k = r.confusion.classes();
    for (std::size_t t = 0; t < k; ++t) {
      for (std::size_t p = 0; p < k; ++p) {
        const std::uint64_t c = r.confusion.at(static_cast<int>(t), static_cast<int>(p));
        sha_.update(&c, sizeof c);
      }
    }
  }
  std::string hex() { return sha_.hex_digest(); }

 private:
  void add_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    sha_.update(&bits, sizeof bits);
  }
  util::Sha256 sha_;
};

// ------------------------------------------------------------ layer tap

/// Benchmark-side StackListener: counts packet events per layer, pairs
/// qdisc enqueue/dequeue by packet id, and (when the cell has a checker)
/// forwards every callback to it, timing each forwarded call. The same
/// counting code consumes TraceRecorder captures (count()) where a listener
/// cannot be installed, i.e. on run_grid's worker threads. Counts add up
/// over all cells of a pass.
class LayerTap final : public obs::StackListener {
 public:
  /// Start a cell (one load): packet ids restart with every load
  /// (net::PacketIdScope), and each load arms its own checker.
  void begin_cell(fault::StackInvariantChecker* checker = nullptr) {
    enqueued_.clear();
    checker_ = checker;
  }

  void count(const obs::PacketEvent& ev) {
    if (ev.dir != obs::Direction::Tx) return;
    switch (ev.layer) {
      case obs::Layer::Tls:
        ++tls_records;
        break;
      case obs::Layer::Tcp:
        ++tcp_segments;
        if (ev.kind == obs::EventKind::Retransmit) ++tcp_retransmits;
        break;
      case obs::Layer::Qdisc:
        if (ev.kind == obs::EventKind::Enqueue) {
          ++qdisc_enqueued;
          enqueued_[ev.packet_id] = ev.time;
        } else if (ev.kind == obs::EventKind::Drop) {
          ++qdisc_drops;
          enqueued_.erase(ev.packet_id);
        } else if (ev.kind == obs::EventKind::Dequeue) {
          if (auto it = enqueued_.find(ev.packet_id); it != enqueued_.end()) {
            qdisc_wait_us.push_back((ev.time - it->second).us());
            enqueued_.erase(it);
          }
        }
        break;
      case obs::Layer::Nic:
        ++nic_packets;
        break;
      case obs::Layer::Wire:
        ++wire_packets;
        wire_bytes += static_cast<std::uint64_t>(ev.bytes);
        break;
      default:
        break;
    }
  }

  void on_packet(const obs::PacketEvent& ev) override {
    count(ev);
    forward([&] { checker_->on_packet(ev); });
  }
  void on_departure(const obs::DepartureEvent& ev) override {
    forward([&] { checker_->on_departure(ev); });
  }
  void on_ack_advance(const net::FlowKey& flow, std::uint64_t una) override {
    forward([&] { checker_->on_ack_advance(flow, una); });
  }
  void on_queue_depth(obs::QueueKind kind, std::int64_t depth, std::int64_t bound) override {
    forward([&] { checker_->on_queue_depth(kind, depth, bound); });
  }
  void on_fault(obs::FaultKind kind, const net::Packet& p, TimePoint now) override {
    ++faults;
    forward([&] { checker_->on_fault(kind, p, now); });
  }

  /// Fold another cell's counts into this one.
  void add(const LayerTap& o) {
    tls_records += o.tls_records;
    tcp_segments += o.tcp_segments;
    tcp_retransmits += o.tcp_retransmits;
    qdisc_enqueued += o.qdisc_enqueued;
    qdisc_drops += o.qdisc_drops;
    nic_packets += o.nic_packets;
    wire_packets += o.wire_packets;
    wire_bytes += o.wire_bytes;
    faults += o.faults;
    checker_calls += o.checker_calls;
    checker_ns += o.checker_ns;
    qdisc_wait_us.insert(qdisc_wait_us.end(), o.qdisc_wait_us.begin(), o.qdisc_wait_us.end());
  }

  /// Fill the stack-layer rows of `out` for `cells` cells.
  void report(Layer& out, double cells) const {
    out["tls.records_per_cell"] = ratio(static_cast<double>(tls_records), cells);
    out["tcp.segments_per_cell"] = ratio(static_cast<double>(tcp_segments), cells);
    out["tcp.retransmit_frac"] =
        ratio(static_cast<double>(tcp_retransmits), static_cast<double>(tcp_segments));
    const double offered = static_cast<double>(qdisc_enqueued + qdisc_drops);
    out["qdisc.packets_per_cell"] = ratio(offered, cells);
    out["qdisc.drop_frac"] = ratio(static_cast<double>(qdisc_drops), offered);
    out["qdisc.wait_us.p50"] = qdisc_wait_us.empty() ? 0.0 : stats::percentile(qdisc_wait_us, 50);
    out["qdisc.wait_us.p95"] = qdisc_wait_us.empty() ? 0.0 : stats::percentile(qdisc_wait_us, 95);
    out["nic.packets_per_cell"] = ratio(static_cast<double>(nic_packets), cells);
    out["wire.packets_per_cell"] = ratio(static_cast<double>(wire_packets), cells);
    out["wire.bytes_per_cell"] = ratio(static_cast<double>(wire_bytes), cells);
    out["fault.events_per_cell"] = ratio(static_cast<double>(faults), cells);
    out["fault.invariants.calls_per_cell"] = ratio(static_cast<double>(checker_calls), cells);
    out["fault.invariants.ns_per_call"] =
        ratio(static_cast<double>(checker_ns), static_cast<double>(checker_calls));
  }

  std::uint64_t tls_records = 0, tcp_segments = 0, tcp_retransmits = 0;
  std::uint64_t qdisc_enqueued = 0, qdisc_drops = 0, nic_packets = 0;
  std::uint64_t wire_packets = 0, wire_bytes = 0, faults = 0;
  std::vector<double> qdisc_wait_us;
  std::uint64_t checker_calls = 0;
  std::int64_t checker_ns = 0;

 private:
  template <typename Fn>
  void forward(Fn&& call) {
    if (checker_ == nullptr) return;
    const Clock::time_point t0 = Clock::now();
    call();
    checker_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    ++checker_calls;
  }

  fault::StackInvariantChecker* checker_ = nullptr;
  std::unordered_map<std::uint64_t, TimePoint> enqueued_;
};

// ------------------------------------------------------------ span analysis

/// CPU self time in ns per span name over records [from, to). A span's
/// self time is its thread CPU minus that of its direct children on the
/// same thread lane (children on other lanes ran in parallel on other
/// threads). Worker-pool "job" wrappers are transparent: their self time
/// goes to the nearest enclosing named span, so per-tree fits count as
/// wf.fit and per-fold bookkeeping as wf.cross_validate.
std::map<std::string, double> self_cpu_ns(const std::vector<obs::ProfRecord>& records,
                                          std::size_t from, std::size_t to) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = from; i < to; ++i) by_id[records[i].id] = i;
  const auto parent_of = [&](std::size_t i) -> std::optional<std::size_t> {
    auto it = by_id.find(records[i].parent);
    if (it == by_id.end()) return std::nullopt;
    return it->second;
  };
  std::vector<double> self(records.size(), 0.0);
  for (std::size_t i = from; i < to; ++i) {
    self[i] += static_cast<double>(records[i].cpu_ns);
    const std::optional<std::size_t> p = parent_of(i);
    if (p && records[*p].worker == records[i].worker) {
      self[*p] -= static_cast<double>(records[i].cpu_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < to; ++i) {
    std::size_t owner = i;
    while (records[owner].name == "job") {
      const std::optional<std::size_t> p = parent_of(owner);
      if (!p) break;
      owner = *p;
    }
    out[records[owner].name] += self[i];
  }
  return out;
}

/// Harness-registry pool observations (the profiled worker pool's
/// queue waits and utilization).
void report_pool(const obs::Profiler& prof, Layer& out) {
  if (const auto* d = prof.harness().distribution("exp.pool.queue_wait_ms")) {
    out["exp.pool.queue_wait_ms.p50"] = d->reservoir.empty() ? 0.0 : median(d->reservoir);
  }
  out["exp.pool.worker_busy_frac"] = prof.harness().gauge("exp.pool.utilization");
}

double snapshot_gauge(const std::string& snapshot, const std::string& name) {
  const std::string key = "gauge " + name + " ";
  const std::size_t at = snapshot.find(key);
  return at == std::string::npos ? 0.0 : std::atof(snapshot.c_str() + at + key.size());
}

// ------------------------------------------------------------ workloads

struct Options {
  std::uint64_t seed = 1;
  bool tiny = false;
  std::filesystem::path work_dir;
};

/// Outcome of one measured pass.
struct Pass {
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;       ///< all failures, output checks included
  std::uint64_t bad_outputs = 0;  ///< output-check failures only
  std::uint64_t allocs = 0;
  double cells = 0.0;
  double sim_events = 0.0;
  std::string digest;
  Layer layer;  ///< per-layer rows; filled by traced passes only
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs and warm up; timed as setup_s.
  virtual void setup() = 0;
  /// One pass. `traced` turns on the obs taps and fills Pass::layer;
  /// `corrupt` damages one output so the checks must fail.
  virtual Pass run(bool traced, bool corrupt) = 0;

  /// Spans of the last traced pass, for the trace_event export.
  std::vector<obs::ProfRecord> records;
  /// Simulator events the set-up executed (its work, comparable exactly
  /// across runs of one seed).
  double setup_events = 0.0;
};

/// Time `body` as one pass: wall, process CPU and allocations.
template <typename Fn>
void measure(Pass& pass, Fn&& body) {
  const std::uint64_t a0 = allocs_so_far();
  const double c0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  body();
  pass.run_s = seconds_since(t0);
  pass.cpu_s = process_cpu_s() - c0;
  pass.allocs = allocs_so_far() - a0;
}

// ---- collect

class Collect final : public Workload {
 public:
  explicit Collect(const Options& o) : opts_(o) {}

  void setup() override {
    const auto& nine = workload::nine_sites();
    grid_.sites.assign(nine.begin(), nine.begin() + (opts_.tiny ? 3 : 9));
    grid_.samples = opts_.tiny ? 1 : 12;
    grid_.ccas = kCcas;
    grid_.base_seed = opts_.seed;
    run_.jobs = kWorkers;
    run_.page.tls_records = true;
    // Warm-up: three samples of every (site, CCA), so thread start-up and
    // first-touch of the pools land here, not in a pass. 81 loads keep
    // set-up long enough to time steadily.
    exp::ExperimentGrid warm = grid_;
    warm.samples = opts_.tiny ? 1 : 3;
    warm.base_seed = kWarmSeed;
    for (const exp::JobResult& r : exp::run_grid(warm, run_)) {
      setup_events += static_cast<double>(r.sim_events);
    }
  }

  Pass run(bool traced, bool corrupt) override {
    Pass pass;
    exp::RunOptions run = run_;
    obs::Profiler prof;
    std::vector<exp::JobResult> results;
    if (traced) {
      run.collect_metrics = true;
      run.trace_capacity = kRecorderCapacity;
      obs::ScopedProfiler guard(prof);
      measure(pass, [&] { results = exp::run_grid(grid_, run); });
      records = prof.records();
    } else {
      measure(pass, [&] { results = exp::run_grid(grid_, run); });
    }
    if (corrupt) results.front().trace.packets().front().size += 1;

    Digest digest;
    LayerTap tap;
    double cancelled = 0.0, scheduled = 0.0, heap = 0.0;
    for (const exp::JobResult& r : results) {
      ++pass.attempted;
      if (!r.completed) {
        ++pass.failed;
        std::fprintf(stderr, "collect: incomplete load: site %s sample %zu cca %s seed %llu\n",
                     grid_.sites[r.spec.site].name.c_str(), r.spec.sample,
                     grid_.ccas[r.spec.cca].c_str(), static_cast<unsigned long long>(r.spec.seed));
      }
      if (r.trace.empty()) ++pass.bad_outputs;
      pass.sim_events += static_cast<double>(r.sim_events);
      digest.add(r.trace);
      if (!traced) continue;
      if (r.events.size() >= kRecorderCapacity) {
        throw std::runtime_error("collect: flight recorder wrapped; raise its capacity");
      }
      tap.begin_cell();
      for (const obs::PacketEvent& ev : r.events) tap.count(ev);
      const double c = snapshot_gauge(r.metrics, "sim.events_cancelled");
      cancelled += c;
      scheduled += c + snapshot_gauge(r.metrics, "sim.events_executed");
      heap = std::max(heap, snapshot_gauge(r.metrics, "sim.heap_high_water"));
    }
    pass.cells = static_cast<double>(results.size());
    pass.digest = digest.hex();
    if (traced) {
      Layer& L = pass.layer;
      tap.report(L, pass.cells);
      L["sim.cancelled_frac"] = ratio(cancelled, scheduled);
      L["sim.heap_high_water"] = heap;
      std::vector<double> load_ms, load_cpu_ms;
      std::uint64_t hits = 0, misses = 0;
      for (const obs::ProfRecord& rec : records) {
        if (rec.name != "page_load") continue;
        load_ms.push_back(static_cast<double>(rec.wall_ns) / 1e6);
        load_cpu_ms.push_back(static_cast<double>(rec.cpu_ns) / 1e6);
        hits += rec.pool_hits;
        misses += rec.pool_misses;
      }
      L["workload.page_load_ms.p50"] = median(load_ms);
      L["workload.page_load_ms.p95"] = load_ms.empty() ? 0.0 : stats::percentile(load_ms, 95);
      L["workload.page_load_cpu_ms.p50"] = median(load_cpu_ms);
      L["mem.pool_hit_ratio"] =
          ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
      report_pool(prof, L);
    }
    return pass;
  }

 private:
  // Events one load leaves in the flight recorder stay well below this;
  // run() refuses a capture that filled it (the oldest events would be
  // lost and every count would be short).
  static constexpr std::size_t kRecorderCapacity = 1u << 17;

  Options opts_;
  exp::ExperimentGrid grid_;
  exp::RunOptions run_;
};

// ---- defend

class Defend final : public Workload {
 public:
  explicit Defend(const Options& o) : opts_(o) {}

  void setup() override {
    for (const defenses::PolicyInfo& info : defenses::policy_zoo()) policies_.push_back(info.name);
    sites_ = workload::nine_sites();
    if (opts_.tiny) sites_.resize(1);
    page_.tls_records = true;
    page_.path_faults = fault::PathProfile::symmetric(fault::adverse_mix());
    // Warm-up: two armed loads per (policy, CCA), sites in turn, on the
    // pass's 2-worker pool. 30 loads keep set-up long enough to time
    // steadily.
    const std::size_t warm = 2 * policies_.size() * kCcas.size();
    const std::vector<Cell> cells = exp::run_ordered<Cell>(warm, kWorkers, [&](std::size_t i) {
      return load((i / kCcas.size()) % policies_.size(), i % sites_.size(), i % kCcas.size(),
                  exp::job_seed(kWarmSeed, i), false);
    });
    for (const Cell& c : cells) setup_events += c.events;
  }

  Pass run(bool traced, bool corrupt) override {
    Pass pass;
    obs::Profiler prof;
    std::vector<Cell> cells;
    {
      std::optional<obs::ScopedProfiler> guard;
      if (traced) guard.emplace(prof);
      measure(pass, [&] {
        // Every (policy, site, CCA) kSamples times: a balanced mix keeps
        // the pass cost from swinging with how a seed happens to deal CCAs
        // out. Each job builds its own mount, guard and checker, so nothing
        // is shared between the two workers.
        const std::size_t per_policy = sites_.size() * kCcas.size();
        const std::size_t loads = kSamples * policies_.size() * per_policy;
        cells = exp::run_ordered<Cell>(loads, kWorkers, [&](std::size_t i) {
          return load((i / per_policy) % policies_.size(), (i / kCcas.size()) % sites_.size(),
                      i % kCcas.size(), exp::job_seed(opts_.seed, i), traced);
        });
      });
    }
    if (corrupt) cells.front().replayed.packets().front().size += 1;

    Digest digest;
    double events = 0.0, cancelled = 0.0, scheduled = 0.0, heap = 0.0;
    double clamps = 0.0, dummies = 0.0, replay_s = 0.0, packets_in = 0.0, packets_out = 0.0;
    std::vector<double> load_ms, load_cpu_ms;
    LayerTap tap;
    for (const Cell& c : cells) {
      tap.add(c.tap);
      ++pass.attempted;
      if (!c.completed) ++pass.failed;
      if (!c.checked || c.replayed.empty()) ++pass.bad_outputs;
      digest.add(c.trace);
      digest.add(c.replayed);
      events += c.events;
      cancelled += c.cancelled;
      scheduled += c.events + c.cancelled;
      heap = std::max(heap, c.heap_high_water);
      clamps += c.clamps;
      dummies += c.dummies;
      replay_s += c.replay_s;
      packets_in += static_cast<double>(c.trace.size());
      packets_out += static_cast<double>(c.replayed.size());
      load_ms.push_back(c.load_s * 1e3);
      load_cpu_ms.push_back(c.load_cpu_s * 1e3);
    }
    pass.cells = static_cast<double>(cells.size());
    pass.sim_events = events;
    pass.digest = digest.hex();
    if (traced) {
      Layer& L = pass.layer;
      tap.report(L, pass.cells);
      L["fault.invariants.cpu_share"] =
          ratio(static_cast<double>(tap.checker_ns) * 1e-9, pass.cpu_s);
      L["sim.cancelled_frac"] = ratio(cancelled, scheduled);
      L["sim.heap_high_water"] = heap;
      L["workload.page_load_ms.p50"] = median(load_ms);
      L["workload.page_load_ms.p95"] = stats::percentile(load_ms, 95);
      L["workload.page_load_cpu_ms.p50"] = median(load_cpu_ms);
      L["core.guard.clamps_per_cell"] = ratio(clamps, pass.cells);
      L["defenses.mount.dummy_suppressed_per_cell"] = ratio(dummies, pass.cells);
      L["defenses.trace.us_per_trace"] = ratio(replay_s * 1e6, pass.cells);
      L["defenses.trace.out_in_ratio"] = ratio(packets_out, packets_in);
      std::uint64_t hits = 0, misses = 0;
      for (const obs::ProfRecord& rec : prof.records()) {
        if (rec.name != "page_load") continue;
        hits += rec.pool_hits;
        misses += rec.pool_misses;
      }
      L["mem.pool_hit_ratio"] =
          ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
      report_pool(prof, L);
      records = prof.records();
    }
    return pass;
  }

 private:
  // Loads per (policy, site, CCA) in a pass. Each seed draws other page
  // sizes; with one load per cell the work of a pass (simulator events)
  // spread 0.05 over ten seeds, and two loads per cell average that down.
  static constexpr std::size_t kSamples = 2;

  struct Cell {
    bool completed = false;  ///< the load fetched every object
    bool checked = false;    ///< the checker ran and found no violation
    wf::Trace trace;
    wf::Trace replayed;
    double events = 0.0, cancelled = 0.0, heap_high_water = 0.0;
    double clamps = 0.0, dummies = 0.0;
    double load_s = 0.0, load_cpu_s = 0.0, replay_s = 0.0;
    LayerTap tap;  ///< traced loads only
  };

  /// One armed, stack-defended load plus its trace replay, on the calling
  /// thread. Traced: the cell's tap sits in the listener slot and forwards
  /// to the checker, and a metrics registry takes the simulator scrape.
  Cell load(std::size_t policy, std::size_t site, std::size_t cca, std::uint64_t seed,
            bool traced) const {
    const std::string& name = policies_[policy];
    net::PacketIdScope ids;
    defenses::SegmentMount mount(defenses::make_policy(name), seed);
    core::CcaGuard guard(mount);
    workload::PageLoadOptions page = page_;
    page.server_conn.policy = &guard;
    page.client_conn.cca = page.server_conn.cca = kCcas[cca];
    fault::StackInvariantChecker checker;
    obs::MetricsRegistry registry;

    Cell c;
    Rng rng(seed);
    const Clock::time_point t0 = Clock::now();
    const double c0 = thread_cpu_s();
    workload::PageLoadResult loaded;
    if (traced) {
      c.tap.begin_cell(&checker);
      obs::ScopedListener listen(c.tap);
      obs::ScopedMetrics scrape(registry);
      obs::ProfSpan span("page_load");
      loaded = workload::run_page_load(sites_[site], rng, page);
    } else {
      obs::ScopedListener listen(checker);
      loaded = workload::run_page_load(sites_[site], rng, page);
    }
    c.load_cpu_s = thread_cpu_s() - c0;
    c.load_s = seconds_since(t0);

    const Clock::time_point r0 = Clock::now();
    {
      obs::ProfSpan span("defense.trace");
      std::unique_ptr<defenses::Policy> replay = defenses::make_policy(name);
      Rng replay_rng(seed ^ 0xDEFull);
      c.replayed = defenses::run_policy(*replay, loaded.trace, replay_rng);
    }
    c.replay_s = seconds_since(r0);

    c.completed = loaded.completed;
    c.checked = checker.violations() == 0 && checker.checks() > 0;
    if (!c.completed || !c.checked) {
      std::fprintf(stderr, "defend: %s site %zu seed %llu: completed=%d violations=%llu %s\n",
                   name.c_str(), site, static_cast<unsigned long long>(seed), loaded.completed,
                   static_cast<unsigned long long>(checker.violations()),
                   checker.first_report().c_str());
    }
    c.trace = std::move(loaded.trace);
    c.events = static_cast<double>(loaded.sim_events);
    c.clamps = static_cast<double>(guard.segment_clamps() + guard.mss_clamps() +
                                   guard.departure_clamps());
    c.dummies = static_cast<double>(mount.dummy_suppressed());
    if (traced) {
      c.tap.begin_cell();  // the checker dies with this frame
      c.cancelled = registry.gauge("sim.events_cancelled");
      c.heap_high_water = registry.gauge("sim.heap_high_water");
    }
    return c;
  }

  Options opts_;
  std::vector<std::string> policies_;
  std::vector<workload::SiteProfile> sites_;
  workload::PageLoadOptions page_;
};

// ---- attack

class Attack final : public Workload {
 public:
  explicit Attack(const Options& o) : opts_(o) {}

  ~Attack() override {
    cache_.reset();
    std::error_code ec;
    if (!cache_dir_.empty()) std::filesystem::remove_all(cache_dir_, ec);
  }
  Attack(const Attack&) = delete;
  Attack& operator=(const Attack&) = delete;

  void setup() override {
    // The previous set-up's instance, and its directory, are gone by now.
    cache_dir_ = opts_.work_dir / "attack_cache";
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
    cache_ = std::make_unique<exp::ResultCache>(cache_dir_, exp::kWorkerPayloadVersion);
    grid_.sites = workload::nine_sites();
    grid_.samples = opts_.tiny ? 5 : 40;
    grid_.base_seed = opts_.seed;
    run_.jobs = kWorkers;
    run_.cache = cache_.get();
    kfp_.forest.num_trees = opts_.tiny ? 10 : 30;
    // The cold fill: every cell simulated and committed to the cache.
    for (const exp::JobResult& r : exp::run_grid(grid_, run_)) {
      setup_events += static_cast<double>(r.sim_events);
    }
    if (cache_->stats().stores != grid_.job_count()) {
      throw std::runtime_error("attack: cold fill did not store every cell");
    }
  }

  Pass run(bool traced, bool corrupt) override {
    if (corrupt) damage_one_entry();
    Pass pass;
    obs::Profiler prof;
    const exp::ResultCache::Stats s0 = cache_->stats();
    double load_s = 0.0, defense_s = 0.0, packets_in = 0.0, packets_out = 0.0;
    double features_packets = 0.0, forest_rows = 0.0, knn_train_rows = 0.0;
    std::size_t knn_from = 0;
    std::vector<exp::JobResult> results;
    std::vector<wf::EvalResult> evals;
    std::vector<wf::Trace> defended_traces;
    measure(pass, [&] {
      // The cache key folds in whether a profiler is capturing, so the
      // profiler goes on only after the grid is served from the cache.
      const Clock::time_point l0 = Clock::now();
      results = exp::run_grid(grid_, run_);
      load_s = seconds_since(l0);

      std::optional<obs::ScopedProfiler> guard;
      if (traced) guard.emplace(prof);
      const wf::Dataset data = [&] {
        obs::ProfSpan span("dataset");
        return exp::to_dataset(results).sanitized_by_download_size();
      }();
      const Clock::time_point d0 = Clock::now();
      const wf::Dataset defended = [&] {
        obs::ProfSpan span("defense.trace");
        wf::Dataset out;
        for (std::size_t i = 0; i < data.size(); ++i) {
          std::unique_ptr<defenses::Policy> policy = defenses::make_policy("combined");
          Rng rng(exp::job_seed(opts_.seed ^ 0xDEFull, i));
          out.add(defenses::run_policy(*policy, data.trace(i), rng), data.label(i));
          packets_in += static_cast<double>(data.trace(i).size());
          packets_out += static_cast<double>(out.trace(i).size());
          defended_traces.push_back(out.trace(i));
        }
        return out;
      }();
      defense_s = seconds_since(d0);

      const auto first30 = [](const wf::Dataset& d) {
        return d.transformed([](const wf::Trace& t) { return t.truncated(30); });
      };
      const auto evaluate = [&](const wf::Dataset& d, bool knn) {
        obs::ProfSpan span(knn ? "cv.leaf_knn" : "cv.forest");
        wf::KFingerprint::Config cfg = kfp_;
        cfg.use_knn = knn;
        for (std::size_t i = 0; i < d.size(); ++i) {
          features_packets += static_cast<double>(d.trace(i).size());
        }
        if (knn) {
          knn_train_rows += static_cast<double>(d.size() * (kFolds - 1));
        } else {
          forest_rows += static_cast<double>(d.size());
        }
        evals.push_back(wf::cross_validate(d, cfg, kFolds, opts_.seed, kWorkers));
      };
      evaluate(first30(data), false);
      evaluate(data, false);
      evaluate(first30(defended), false);
      evaluate(defended, false);
      knn_from = prof.records().size();
      evaluate(data, true);
    });

    const exp::ResultCache::Stats s1 = cache_->stats();
    const std::uint64_t probes = s1.probes - s0.probes;
    const std::uint64_t hits = s1.hits - s0.hits;
    pass.attempted = probes + evals.size();
    // Every probe must hit: a miss means the read path rejected a valid
    // entry (or the entry was damaged), which is an output error.
    pass.bad_outputs = probes - hits;
    for (const exp::JobResult& r : results) {
      pass.failed += r.completed ? 0 : 1;
      pass.sim_events += static_cast<double>(r.sim_events);
    }
    pass.cells = static_cast<double>(results.size());
    // Output checks: accuracies are probabilities; the undefended cells
    // (0: first-30, 1: full, 4: leaf k-NN) must beat chance.
    const double chance = 1.0 / static_cast<double>(grid_.sites.size());
    for (std::size_t i = 0; i < evals.size(); ++i) {
      const double acc = evals[i].mean_accuracy;
      const bool undefended = i == 0 || i == 1 || i == 4;
      if (!(acc >= 0.0 && acc <= 1.0) || (undefended && !(acc > chance))) ++pass.bad_outputs;
    }
    Digest digest;
    for (const exp::JobResult& r : results) digest.add(r.trace);
    for (const wf::Trace& t : defended_traces) digest.add(t);
    for (const wf::EvalResult& e : evals) digest.add(e);
    pass.digest = digest.hex();

    if (traced) {
      Layer& L = pass.layer;
      L["exp.cache.hit_ratio"] = ratio(static_cast<double>(hits), static_cast<double>(probes));
      L["exp.cache.load_ms_per_cell"] = ratio(load_s * 1e3, pass.cells);
      L["exp.cache.bytes_per_cell"] =
          ratio(static_cast<double>(s1.bytes_read - s0.bytes_read), static_cast<double>(hits));
      L["exp.cache.store_ms_per_cell"] = store_ms_per_cell(results);
      L["defenses.trace.us_per_trace"] =
          ratio(defense_s * 1e6, static_cast<double>(defended_traces.size()));
      L["defenses.trace.out_in_ratio"] = ratio(packets_out, packets_in);
      const std::vector<obs::ProfRecord>& recs = prof.records();
      const std::map<std::string, double> all = self_cpu_ns(recs, 0, recs.size());
      const std::map<std::string, double> forest = self_cpu_ns(recs, 0, knn_from);
      const std::map<std::string, double> knn = self_cpu_ns(recs, knn_from, recs.size());
      const auto get = [](const std::map<std::string, double>& m, const char* k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
      };
      const double trees = static_cast<double>(kfp_.forest.num_trees);
      L["wf.features.ns_per_packet"] = ratio(get(all, "wf.features"), features_packets);
      L["wf.fit.ms_per_fold"] =
          ratio(get(all, "wf.fit") / 1e6, static_cast<double>(evals.size() * kFolds));
      L["wf.predict.ns_per_row_tree"] = ratio(get(forest, "wf.predict"), forest_rows * trees);
      L["wf.leaf_index.ns_per_row_tree"] =
          ratio(get(knn, "wf.leaf_index"), knn_train_rows * trees);
      L["wf.knn.ms_per_fold"] = ratio(get(knn, "wf.predict") / 1e6, static_cast<double>(kFolds));
      report_pool(prof, L);
      records = recs;
    }
    return pass;
  }

 private:
  static constexpr std::size_t kFolds = 5;

  /// The cache write path on its own: every cell's payload committed to a
  /// throwaway cache under the key run_grid would use. Runs after a traced
  /// pass, outside its timing.
  double store_ms_per_cell(const std::vector<exp::JobResult>& results) const {
    const std::filesystem::path dir = cache_dir_.string() + "_store";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    double ms = 0.0;
    {
      exp::ResultCache throwaway(dir, exp::kWorkerPayloadVersion);
      const std::string salt = exp::run_config_salt(run_);
      for (std::size_t i = 0; i < results.size(); ++i) {
        exp::WorkerPayload payload;
        payload.result = results[i];
        const Clock::time_point t0 = Clock::now();
        throwaway.store(exp::ResultCache::entry_key(exp::cell_digest(grid_, i, run_), false, salt),
                      exp::encode_worker_payload(payload));
        ms += seconds_since(t0) * 1e3;
      }
    }
    std::filesystem::remove_all(dir, ec);
    return ratio(ms, static_cast<double>(results.size()));
  }

  /// Truncate one committed entry: the next load must quarantine it and
  /// recompute, which the hit-rate check reports as a failure.
  void damage_one_entry() const {
    namespace fs = std::filesystem;
    for (const auto& entry : fs::recursive_directory_iterator(cache_dir_ / "objects")) {
      if (entry.is_regular_file()) {
        std::filesystem::resize_file(entry.path(), entry.file_size() / 2);
        return;
      }
    }
  }

  Options opts_;
  std::filesystem::path cache_dir_;
  std::unique_ptr<exp::ResultCache> cache_;
  exp::ExperimentGrid grid_;
  exp::RunOptions run_;
  wf::KFingerprint::Config kfp_;
};

// ------------------------------------------------------------ main loop

struct Args {
  std::string workload;
  Options opts;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.opts.work_dir = std::filesystem::temp_directory_path();
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.opts.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.opts.work_dir = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--tiny") {
      a.opts.tiny = true;
    } else if (flag == "--corrupt") {
      a.corrupt = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload != "collect" && a.workload != "defend" && a.workload != "attack") {
    throw std::invalid_argument("--workload must be collect, defend or attack");
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "collect") return std::make_unique<Collect>(a.opts);
  if (a.workload == "defend") return std::make_unique<Defend>(a.opts);
  return std::make_unique<Attack>(a.opts);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& a) {
  constexpr int kSetups = 10;  // setup_s is the median of these
  // Passes per kind: untraced with --trace 0; untraced and traced each
  // with --trace 1.
  const std::size_t min_passes = a.trace ? 2 : 3;
  std::filesystem::create_directories(a.opts.work_dir);

  // Reference kernel times (host speed) taken between set-ups and between
  // passes; each phase's times are scaled by its own median.
  std::vector<double> setup_s, setup_ref, pass_ref;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();  // the previous instance's files go before the next set-up
    w = make_workload(a);
    const Clock::time_point t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
    const double ref = sample_reference(setup_ref, setup_s.back());
    std::fprintf(stderr, "setup %d: %.4f s, reference %.4f s\n", i, setup_s.back(), ref);
  }

  // Untraced passes only with --trace 0; with --trace 1 untraced and traced
  // passes alternate, so the overhead ratio compares like with like.
  std::vector<Pass> plain, traced;
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0;; ++n) {
    const bool trace_this = a.trace && n % 2 == 1;
    Pass p = w->run(trace_this, a.corrupt && n == 1);
    const double ref = sample_reference(pass_ref, p.run_s);
    std::fprintf(stderr, "pass %zu%s: run_s %.4f cpu_s %.4f, reference %.4f s\n", n,
                 trace_this ? " (traced)" : "", p.run_s, p.cpu_s, ref);
    (trace_this ? traced : plain).push_back(std::move(p));
    const bool enough = plain.size() >= min_passes && (!a.trace || traced.size() >= min_passes);
    // Stop once another pass of the average length would overrun.
    const double elapsed = seconds_since(start);
    if (enough && elapsed * (n + 2) / (n + 1) > a.seconds) break;
  }

  // Every pass repeats the same operations on the same inputs, so the
  // operations of one pass are what the run attempted, and its failures are
  // those of its worst pass. Both then depend only on the seed, never on
  // how many passes fit in --seconds.
  const std::string& reference = plain.front().digest;
  const std::uint64_t attempted = plain.front().attempted;
  std::uint64_t failed = 0, bad_outputs = 0;
  for (const std::vector<Pass>* set : {&plain, &traced}) {
    for (const Pass& p : *set) {
      // Every pass computes the same outputs; a disagreeing digest is one
      // bad output (tracing must not change outputs either).
      const std::uint64_t bad = p.bad_outputs + (p.digest != reference ? 1 : 0);
      // A load that did not complete is a failure. Output-check failures
      // (an invariant violation, a cache miss, a bad trace or accuracy, a
      // digest mismatch) are failures too, and they also make `correct`
      // false.
      failed = std::max(failed, std::min(attempted, p.failed + bad));
      bad_outputs += bad;
    }
  }
  const bool correct = bad_outputs == 0;

  const auto med = [](const std::vector<Pass>& ps, auto field) {
    std::vector<double> xs;
    for (const Pass& p : ps) xs.push_back(field(p));
    return median(xs);
  };
  const double run_s = med(plain, [](const Pass& p) { return p.run_s; });
  const double cpu_s = med(plain, [](const Pass& p) { return p.cpu_s; });

  std::vector<std::pair<const MetricDef*, double>> rows;
  if (!a.trace) {
    // Times at the reference host speed (see host_reference_s). Wall times
    // scale with the reference's CPU time too: its wall time adds thread
    // start-up and the slower thread's lag, and scaled run_s by it spread
    // twice as much over five attack seeds (0.14 against 0.06).
    const double setup_scale = kRefNominalS / median(setup_ref);
    const double pass_scale = kRefNominalS / median(pass_ref);
    const double values[] = {median(setup_s) * setup_scale, run_s * pass_scale,
                             cpu_s * pass_scale, peak_rss_mb()};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      rows.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    Layer L;
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> xs;
      for (const Pass& p : traced) {
        auto it = p.layer.find(m.name);
        xs.push_back(it == p.layer.end() ? 0.0 : it->second);
      }
      L[m.name] = median(xs);
    }
    // Counts and their rates come from the untraced passes: the taps would
    // add their own allocations and CPU.
    const Pass& first = plain.front();
    L["sim.events_per_cell"] = ratio(first.sim_events, first.cells);
    L["sim.events_per_cpu_s"] = ratio(first.sim_events, cpu_s);
    L["alloc.per_event"] = ratio(static_cast<double>(first.allocs), first.sim_events);
    L["alloc.per_cell"] = ratio(static_cast<double>(first.allocs), first.cells);
    L["exp.parallel_eff"] = ratio(cpu_s, run_s * static_cast<double>(kWorkers));
    L["obs.trace_overhead_frac"] =
        ratio(med(traced, [](const Pass& p) { return p.cpu_s; }), cpu_s) - 1.0;
    for (const MetricDef& m : kPerLayer) rows.emplace_back(&m, L[m.name]);
    if (!a.trace_out.empty()) {
      obs::write_trace_event(a.trace_out, w->records, "pipeline_bench." + a.workload);
      std::printf("trace events: %s\n", a.trace_out.c_str());
    }
  }
  const double setup_events = w->setup_events;
  w.reset();

  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes, output_digest %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.opts.seed), plain.size(),
              traced.size(), reference.c_str());
  // The work behind the timings, exact for a seed: compare these first when
  // two runs' times differ.
  std::printf("sim events: setup %.0f, pass %.0f\n", setup_events, plain.front().sim_events);
  std::printf("%-44s %14s  %s\n", "metric", "value", "unit");
  for (const auto& [def, v] : rows) std::printf("%-44s %14.6g  %s\n", def->name, v, def->unit);
  // The measured times behind the scaled ones, and the host speed.
  std::printf("%-44s %14.6g  %s\n", "setup_s.measured", median(setup_s), "s");
  std::printf("%-44s %14.6g  %s\n", "run_s.measured", run_s, "s");
  std::printf("%-44s %14.6g  %s\n", "cpu_s.measured", cpu_s, "s");
  std::printf("%-44s %14.6g  %s\n", "reference_s.setup", median(setup_ref), "s");
  std::printf("%-44s %14.6g  %s\n", "reference_s.passes", median(pass_ref), "s");
  std::printf("%-44s %14.6g  %s\n", "failed_frac",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(rows[i].first->name) + "\": {\"value\": " +
            json_number(rows[i].second) + ", \"unit\": \"" + rows[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 2;
  }
}
