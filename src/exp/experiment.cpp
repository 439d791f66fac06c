#include "exp/experiment.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "exp/job_codec.hpp"
#include "exp/worker_pool.hpp"
#include "fault/invariants.hpp"
#include "net/packet.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "util/log.hpp"
#include "util/subprocess.hpp"

namespace stob::exp {

std::uint64_t job_seed(std::uint64_t base_seed, std::uint64_t job_index) {
  // Two rounds of splitmix64 over (base_seed, index): round one decorrelates
  // the base, round two folds the index in, so neighbouring jobs get
  // unrelated streams and job 0 of seed s != job 1 of seed s-1.
  auto mix = [](std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  };
  return mix(mix(base_seed) ^ job_index);
}

JobSpec ExperimentGrid::job(std::size_t index) const {
  JobSpec spec;
  spec.index = index;
  const std::size_t c = cca_axis();
  const std::size_t d = defense_axis();
  spec.cca = index % c;
  index /= c;
  spec.defense = index % d;
  index /= d;
  spec.sample = index % samples;
  index /= samples;
  spec.site = index % sites.size();
  spec.fault = index / sites.size();
  spec.seed = job_seed(base_seed, spec.index);
  return spec;
}

std::vector<JobSpec> ExperimentGrid::jobs() const {
  std::vector<JobSpec> out;
  out.reserve(job_count());
  for (std::size_t i = 0; i < job_count(); ++i) out.push_back(job(i));
  return out;
}

JobResult run_job(const ExperimentGrid& grid, const JobSpec& spec, const RunOptions& opts) {
  // Fresh per-job world: packet ids restart at 1, obs sinks are installed
  // on this thread only, and all randomness flows from the job seed.
  net::PacketIdScope id_scope;
  Rng rng(spec.seed);

  workload::PageLoadOptions page = opts.page;
  if (!grid.ccas.empty()) {
    page.client_conn.cca = grid.ccas[spec.cca];
    page.server_conn.cca = grid.ccas[spec.cca];
  }
  if (!grid.faults.empty()) page.path_faults = grid.faults[spec.fault];

  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder(opts.trace_capacity > 0 ? opts.trace_capacity : 1);
  fault::StackInvariantChecker checker;
  std::optional<obs::ScopedMetrics> scoped_metrics;
  std::optional<obs::ScopedRecorder> scoped_recorder;
  std::optional<obs::ScopedListener> scoped_listener;
  if (opts.collect_metrics) scoped_metrics.emplace(registry);
  if (opts.trace_capacity > 0) scoped_recorder.emplace(recorder);
  if (opts.check_invariants) scoped_listener.emplace(checker);

  workload::PageLoadResult loaded = [&] {
    obs::ProfSpan span("page_load");
    return workload::run_page_load(grid.sites[spec.site], rng, page);
  }();

  JobResult result;
  result.spec = spec;
  result.trace = std::move(loaded.trace);
  result.page_load_time = loaded.page_load_time;
  result.response_bytes = loaded.response_bytes;
  result.objects_fetched = loaded.objects_fetched;
  result.completed = loaded.completed;
  result.sim_events = loaded.sim_events;
  if (!grid.defenses.empty()) {
    const DefenseAxis& axis = grid.defenses[spec.defense];
    if (axis.defense != nullptr) {
      obs::ProfSpan span("defense");
      result.trace = defenses::run_policy(*axis.defense, result.trace, rng);
    }
  }
  if (opts.collect_metrics) result.metrics = registry.snapshot();
  if (opts.trace_capacity > 0) result.events = recorder.events();
  if (opts.check_invariants) {
    result.invariant_checks = checker.checks();
    result.invariant_violations = checker.violations();
    result.first_violation = checker.first_report();
  }
  return result;
}

std::string run_config_salt(const RunOptions& opts) {
  const workload::PageLoadOptions& p = opts.page;
  std::string out = "config:v1";
  const auto add = [&out](const std::string& key, const std::string& value) {
    out += '|';
    out += key;
    out += '=';
    out += value;
  };
  const auto conn = [&](const std::string& side, const tcp::TcpConnection::Config& c) {
    add(side + ".send_buffer", std::to_string(c.send_buffer.count()));
    add(side + ".recv_buffer", std::to_string(c.recv_buffer.count()));
    add(side + ".mss", std::to_string(c.mss));
    add(side + ".tso", c.tso_enabled ? "1" : "0");
    add(side + ".tso_max", std::to_string(c.tso_max.count()));
    add(side + ".pacing", c.pacing_enabled ? "1" : "0");
    add(side + ".nagle", c.nagle ? "1" : "0");
    add(side + ".cca", c.cca);
    add(side + ".initial_cwnd", std::to_string(c.initial_cwnd_segments));
    add(side + ".delack_segments", std::to_string(c.delack_segments));
    add(side + ".delack_timeout", std::to_string(c.delack_timeout.ns()));
    add(side + ".quickack", std::to_string(c.quickack_segments));
    add(side + ".min_rto", std::to_string(c.rtt.min_rto.ns()));
    add(side + ".max_rto", std::to_string(c.rtt.max_rto.ns()));
    add(side + ".initial_rto", std::to_string(c.rtt.initial_rto.ns()));
    add(side + ".tsq_limit", std::to_string(c.tsq_limit.count()));
    add(side + ".policy", c.policy != nullptr ? c.policy->config() : "stock");
    add(side + ".auto_consume", c.auto_consume ? "1" : "0");
  };
  conn("client", p.client_conn);
  conn("server", p.server_conn);
  add("rate_sigma", core::config_bits(p.rate_sigma));
  add("delay_jitter", core::config_bits(p.delay_jitter));
  add("tls_records", p.tls_records ? "1" : "0");
  add("tls.max_record", std::to_string(p.tls.max_record));
  add("tls.overhead", std::to_string(p.tls.overhead));
  add("tls.pad_to", std::to_string(p.tls.pad_to));
  add("path_faults", p.path_faults.name);
  add("timeout", std::to_string(p.timeout.ns()));
  if (const char* env = std::getenv("STOB_CACHE_SALT")) add("env_salt", env);
  return out;
}

std::string cell_digest(const ExperimentGrid& grid, std::size_t index, const RunOptions& opts) {
  const JobSpec spec = grid.job(index);
  // Keys go in sorted order, as a RunManifest config keeps them; the
  // digests are pinned by tests/test_proc.cpp.
  obs::CellSpecHash h("cell", spec.seed);
  char digits[24];
  const auto number = [&digits](std::uint64_t v) {
    const char* end = std::to_chars(digits, digits + sizeof digits, v).ptr;
    return std::string_view(digits, static_cast<std::size_t>(end - digits));
  };
  const auto name_or = [](const auto& axis, std::size_t i, std::string_view fallback) {
    return axis.empty() ? fallback : std::string_view(axis[i].name);
  };
  h.add("cca", grid.ccas.empty() ? std::string_view("default")
                                 : std::string_view(grid.ccas[spec.cca]));
  // Everything that shapes the payload bytes beyond the coordinates: the
  // requested sinks and the codec rev the payload is encoded with.
  h.add("check_invariants", opts.check_invariants ? "1" : "0");
  h.add("codec", number(kWorkerPayloadVersion));
  h.add("collect_metrics", opts.collect_metrics ? "1" : "0");
  h.add("defense", name_or(grid.defenses, spec.defense, "none"));
  h.add("fault", name_or(grid.faults, spec.fault, "none"));
  h.add("sample", number(spec.sample));
  h.add("site", grid.sites.empty() ? number(spec.site)
                                   : std::string_view(grid.sites[spec.site].name));
  h.add("trace_capacity", number(opts.trace_capacity));
  return h.hex_digest();
}

namespace {

/// Human-readable grid coordinates for error messages and crash reports.
std::string describe_cell(const ExperimentGrid& grid, const JobSpec& spec) {
  std::string out =
      "site=" + (grid.sites.empty() ? std::to_string(spec.site) : grid.sites[spec.site].name);
  out += " sample=" + std::to_string(spec.sample);
  out +=
      " defense=" + (grid.defenses.empty() ? std::string("none") : grid.defenses[spec.defense].name);
  out += " cca=" + (grid.ccas.empty() ? std::string("default") : grid.ccas[spec.cca]);
  out += " fault=" + (grid.faults.empty() ? std::string("none") : grid.faults[spec.fault].name);
  out += " seed=" + std::to_string(spec.seed);
  return out;
}

/// Rethrow a pool failure with the failing cell's grid coordinates.
[[noreturn]] void throw_with_cell(const ExperimentGrid& grid, const JobError& e) {
  const std::size_t i = e.job_index();
  throw JobError(i, std::string(e.what()) + " [cell " + describe_cell(grid, grid.job(i)) + "]");
}

/// Run one cell and encode the worker payload, capturing per-job profiler
/// records exactly the way run_ordered_profiled does (a "job" span wrapping
/// the cell, span-id domain derived from the job index) so the supervisor's
/// splice reproduces the in-process span structure byte for byte.
std::string run_cell_payload(const ExperimentGrid& grid, std::size_t index,
                             const RunOptions& opts, bool capture_prof,
                             std::uint64_t prof_domain) {
  WorkerPayload payload;
  if (capture_prof) {
    obs::Profiler job_prof(obs::sub_domain(prof_domain, index));
    {
      obs::ScopedProfiler guard(job_prof);
      obs::ProfSpan span("job");
      payload.result = run_job(grid, grid.job(index), opts);
    }
    payload.prof_records = job_prof.take_records();
  } else {
    payload.result = run_job(grid, grid.job(index), opts);
  }
  return encode_worker_payload(payload);
}

/// Worker-process entry: run the one assigned cell, ship the result frame,
/// and _exit without ever returning into the driver's reporting code.
[[noreturn]] void run_worker_and_exit(const ExperimentGrid& grid, const RunOptions& opts) {
  const std::size_t index = *opts.proc.worker_job;
  // The deterministic self-fault hook fires before any real work so a
  // "crash" can never have half-written observable state.
  execute_worker_fault(opts.proc.worker_fault);
  if (index >= grid.job_count()) {
    std::fprintf(stderr, "worker: job index %zu out of range (grid has %zu cells)\n", index,
                 grid.job_count());
    ::_exit(2);
  }
  int code = 0;
  try {
    const std::string payload = run_cell_payload(grid, index, opts, opts.proc.worker_profile,
                                                 opts.proc.worker_prof_domain);
    if (!util::write_frame(util::kResultFd, payload)) code = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: job %zu threw: %s\n", index, e.what());
    code = 1;
  }
  std::fflush(nullptr);
  ::_exit(code);
}

/// Uninstall the calling thread's profiler for a scope. The pipeline
/// captures per-job spans explicitly (run_cell_payload, true grid index),
/// so the worker pool must take its unprofiled path — the profiled pool
/// would wrap each cell in a second "job" span, and hits would gain spans
/// their cold run never recorded, breaking cold-vs-warm span identity.
class ProfilerSuppression {
 public:
  ProfilerSuppression() : saved_(obs::profiler()) { obs::install_profiler(nullptr); }
  ~ProfilerSuppression() { obs::install_profiler(saved_); }
  ProfilerSuppression(const ProfilerSuppression&) = delete;
  ProfilerSuppression& operator=(const ProfilerSuppression&) = delete;

 private:
  obs::Profiler* saved_;
};

/// The commit stage of the cached pipeline: a pool thread prepares its
/// miss's entry (ResultCache::prepare: the encoding, SHA-256 included) and
/// goes on to the next cell, while commit threads run ResultCache::commit —
/// the write, fsync and rename — in FIFO order.
///
/// Nothing is allocated and no thread starts before the first push, so a
/// fully warm grid pays nothing for the stage. The stage has 2 x `threads`
/// slots, queued or being committed; push blocks while none is free, so
/// memory stays bounded. A commit thread neither allocates nor frees on
/// its success path: the push that reuses a slot frees its old buffers,
/// and the destructor frees the rest. (Under glibc a thread that calls
/// malloc or free binds a malloc arena of its own, and memory parked in
/// extra arenas raised the peak RSS.) A commit that fails or throws warns
/// and drops its entry, like a failed store. drain() commits whatever is
/// queued and joins the threads; the destructor drains too, so an
/// unwinding caller keeps every finished cell. push is safe from any
/// thread; drain and the destructor must not race a push.
class CommitStage {
 public:
  CommitStage(ResultCache& cache, std::size_t threads)
      : cache_(cache), threads_(std::max<std::size_t>(threads, 1)) {}
  ~CommitStage() { drain(); }
  CommitStage(const CommitStage&) = delete;
  CommitStage& operator=(const CommitStage&) = delete;

  /// Queue `entry` for commit, starting the commit threads on the first
  /// call.
  void push(ResultCache::Pending entry) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_) {
      started_ = true;
      const std::size_t slots = 2 * threads_;
      slots_.resize(slots);
      fifo_.resize(slots);
      free_.reserve(slots);
      for (std::size_t i = slots; i-- > 0;) free_.push_back(i);
      workers_.reserve(threads_);
      for (std::size_t t = 0; t < threads_; ++t) {
        try {
          workers_.emplace_back([this] { serve(); });
        } catch (const std::system_error&) {
          break;  // commit with the threads that did start
        }
      }
    }
    if (workers_.empty()) {
      // No commit thread could start, or the stage is drained: commit here.
      lock.unlock();
      commit(entry);
      return;
    }
    freed_.wait(lock, [this] { return !free_.empty(); });
    const std::size_t slot = free_.back();
    free_.pop_back();
    // `entry` takes the slot's last, committed buffers and frees them on
    // this thread once the lock is released.
    std::swap(slots_[slot], entry);
    fifo_[(head_ + queued_) % fifo_.size()] = slot;
    ++queued_;
    queued_or_closed_.notify_one();
  }

  /// Commit every queued entry and join the commit threads. Idempotent.
  void drain() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    queued_or_closed_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
  }

 private:
  void serve() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      queued_or_closed_.wait(lock, [this] { return queued_ > 0 || closed_; });
      if (queued_ == 0) return;  // closed, and nothing left to commit
      const std::size_t slot = fifo_[head_];
      head_ = (head_ + 1) % fifo_.size();
      --queued_;
      lock.unlock();
      commit(slots_[slot]);  // no push touches a slot until it is free again
      lock.lock();
      free_.push_back(slot);  // within the reserved capacity
      freed_.notify_one();
    }
  }

  void commit(const ResultCache::Pending& entry) {
    // ResultCache::commit already warns and drops the entry on an I/O
    // failure; anything it throws is reported the same way, never left to
    // escape a commit thread (which would terminate the process).
    try {
      try {
        cache_.commit(entry);
      } catch (const std::exception& e) {
        STOB_WARN("cache") << "cannot commit " << entry.dest << ": " << e.what()
                           << "; entry dropped";
      } catch (...) {
        STOB_WARN("cache") << "cannot commit " << entry.dest
                           << ": unknown exception; entry dropped";
      }
    } catch (...) {
      // Not even the warning could be written (out of memory): the entry
      // is dropped all the same.
    }
  }

  ResultCache& cache_;
  std::size_t threads_;
  std::mutex mu_;
  std::condition_variable queued_or_closed_;
  std::condition_variable freed_;
  std::vector<ResultCache::Pending> slots_;
  std::vector<std::size_t> free_;  ///< free slot indices
  std::vector<std::size_t> fifo_;  ///< queued slot indices, a ring from head_
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  bool started_ = false;
  bool closed_ = false;
  std::vector<std::thread> workers_;
};

/// One cell of the pipeline pass: its decoded payload, the decoder's
/// complaint when the bytes did not decode, or the crash record of a cell
/// the proc executor quarantined.
struct PipelineCell {
  WorkerPayload payload;
  std::optional<std::string> decode_error;
  bool hit = false;
  bool ran_in_worker = false;
  std::size_t retries = 0;
  std::size_t injected_faults = 0;
  std::optional<CrashRecord> crash;
};

/// The cached and out-of-process paths of run_grid: one run_ordered pass in
/// job order. Each job derives its key, loads (the entry is SHA-256
/// verified there), runs the cell on a miss, hands its encoded entry to the
/// commit stage and decodes the payload. Only "run the miss" depends on the
/// mode: in process it calls run_cell_payload; with proc.workers > 0 each
/// pool thread runs its misses through the ProcExecutor's attempt loop,
/// which keeps at most that many worker processes alive at once.
/// The commit stage is drained before the reduction, and on the JobError
/// path too, so every finished cell is committed when run_grid returns or
/// throws.
/// Results, span captures and crash records are then reduced in job order,
/// so the reduction, the spliced span structure and therefore
/// stdout/CSV/manifests cannot depend on which cells were cached, on
/// --jobs or on the worker count. Quarantined cells get a placeholder
/// result (completed = false) so downstream reductions keep their shape.
std::vector<JobResult> run_pipeline(const ExperimentGrid& grid, const RunOptions& opts,
                                    ProcReport& report) {
  obs::Profiler* prof = obs::profiler();
  const bool capture_prof = prof != nullptr;
  const std::uint64_t prof_domain = capture_prof ? prof->id_domain() : 0;
  std::size_t threads = opts.jobs == 0 ? default_jobs() : opts.jobs;
  std::optional<ProcExecutor> executor;
  if (opts.proc.workers > 0) {
    ProcOptions proc = opts.proc;
    proc.worker_profile = capture_prof;
    proc.worker_prof_domain = prof_domain;
    executor.emplace(proc);
    // Hits stay on the --jobs pool; at most proc.workers misses run at once.
    threads = std::max(threads, opts.proc.workers);
  }
  ResultCache* cache = opts.cache;
  const std::string salt =
      cache != nullptr ? ResultCache::salt_hash(run_config_salt(opts)) : std::string();

  std::vector<PipelineCell> cells;
  {
    ProfilerSuppression quiet;
    // One commit thread per pool thread; none starts before the first miss.
    // Leaving this scope, by return or by throw, drains the stage.
    std::optional<CommitStage> commits;
    if (cache != nullptr) commits.emplace(*cache, std::min(threads, grid.job_count()));
    try {
      cells = run_ordered<PipelineCell>(grid.job_count(), threads, [&](std::size_t i) {
        PipelineCell cell;
        std::string key;
        std::optional<std::string> bytes;
        if (cache != nullptr) {
          key = ResultCache::entry_key_hashed(cell_digest(grid, i, opts), capture_prof, salt);
          bytes = cache->load(key);
          cell.hit = bytes.has_value();
        }
        if (!bytes.has_value()) {
          if (executor.has_value()) {
            CellRun run = executor->run(i);
            cell.retries = run.retries;
            cell.injected_faults = run.injected_faults;
            if (!run.payload.has_value()) {
              run.crash.digest = cell_digest(grid, i, opts);
              cell.crash = std::move(run.crash);
              return cell;  // quarantined: never committed
            }
            cell.ran_in_worker = true;
            bytes = std::move(run.payload);
          } else {
            bytes = run_cell_payload(grid, i, opts, capture_prof, prof_domain);
          }
          // Commit per cell, not per sweep: a killed run keeps every
          // committed cell, which is what makes crashed sweeps incremental.
          // The entry is encoded here; the commit stage writes, fsyncs and
          // renames it while this thread runs the next cell.
          if (commits.has_value()) commits->push(cache->prepare(key, *bytes));
        }
        try {
          cell.payload = decode_worker_payload(*bytes);
        } catch (const std::exception& e) {
          cell.decode_error = e.what();
        }
        return cell;
      });
    } catch (const JobError& e) {
      throw_with_cell(grid, e);
    }
  }

  report = ProcReport{};
  report.cells = cells.size();
  std::vector<JobResult> results(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    PipelineCell& cell = cells[i];
    report.retries += cell.retries;
    report.injected_faults += cell.injected_faults;
    if (cell.ran_in_worker) report.ran += 1;
    if (cell.crash.has_value()) {
      results[i].spec = grid.job(i);  // quarantined placeholder
      report.failures.push_back(std::move(*cell.crash));
      report.quarantined += 1;
      continue;
    }
    if (cell.decode_error.has_value()) {
      throw std::runtime_error(std::string("exp: undecodable ") +
                               (cell.hit ? "cached" : "worker") + " payload for job " +
                               std::to_string(i) + " [cell " + describe_cell(grid, grid.job(i)) +
                               "]: " + *cell.decode_error);
    }
    if (prof != nullptr) prof->splice(std::move(cell.payload.prof_records), 0, 0);
    results[i] = std::move(cell.payload.result);
  }
  return results;
}

}  // namespace

std::vector<JobResult> run_grid(const ExperimentGrid& grid, const RunOptions& opts) {
  // Worker mode first: the worker's argv still carries the supervisor's
  // --proc-workers flag, so checking workers > 0 before this would fork
  // grandchildren forever.
  if (opts.proc.worker_job.has_value()) run_worker_and_exit(grid, opts);

  auto run_with = [&](std::size_t threads) {
    try {
      return run_ordered<JobResult>(
          grid.job_count(), threads,
          [&](std::size_t i) { return run_job(grid, grid.job(i), opts); });
    } catch (const JobError& e) {
      throw_with_cell(grid, e);
    }
  };
  ProcReport report;
  std::vector<JobResult> results = [&] {
    obs::ProfSpan span("grid.run");
    // Uncached in-process cells skip the payload codec entirely.
    if (opts.proc.workers == 0 && opts.cache == nullptr) return run_with(opts.jobs);
    return run_pipeline(grid, opts, report);
  }();
  if (opts.proc.workers > 0 && opts.proc_report != nullptr) *opts.proc_report = report;
  if (opts.check_determinism) {
    // The reference run is serial *and in-process*, so in proc mode this
    // directly asserts out-of-process == in-process, byte for byte.
    obs::ProfSpan span("grid.verify");
    std::set<std::size_t> quarantined;
    for (const CrashRecord& f : report.failures) {
      quarantined.insert(static_cast<std::size_t>(f.job));
    }
    const std::vector<JobResult> serial = run_with(1);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (quarantined.count(i) != 0) continue;  // placeholder, nothing to compare
      if (!results_identical(results[i], serial[i])) {
        throw std::runtime_error("experiment engine determinism violation at job " +
                                 std::to_string(i));
      }
    }
  }
  return results;
}

bool results_identical(const JobResult& a, const JobResult& b) {
  return a.spec.index == b.spec.index && a.spec.seed == b.spec.seed && a.trace == b.trace &&
         a.page_load_time == b.page_load_time && a.response_bytes == b.response_bytes &&
         a.objects_fetched == b.objects_fetched && a.completed == b.completed &&
         a.sim_events == b.sim_events &&
         a.metrics == b.metrics && a.events == b.events &&
         a.invariant_checks == b.invariant_checks &&
         a.invariant_violations == b.invariant_violations &&
         a.first_violation == b.first_violation;
}

wf::Dataset to_dataset(const std::vector<JobResult>& results) {
  wf::Dataset data;
  for (const JobResult& r : results) {
    data.add(r.trace, static_cast<int>(r.spec.site));
  }
  return data;
}

namespace {

double parse_seconds(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size() || v < 0.0) throw std::invalid_argument("bad");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("exp: " + flag + " expects a non-negative number of seconds, got '" +
                                value + "'");
  }
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  const bool all_digits =
      !value.empty() && value.find_first_not_of("0123456789") == std::string::npos;
  if (!all_digits) {
    throw std::invalid_argument("exp: " + flag + " expects a non-negative integer, got '" +
                                value + "'");
  }
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    throw std::invalid_argument("exp: " + flag + " value '" + value + "' out of range");
  }
}

/// Byte budget with an optional K/M/G suffix (powers of 1024): "512M".
std::uint64_t parse_byte_size(const std::string& flag, const std::string& value) {
  std::string digits = value;
  std::uint64_t mult = 1;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'K': case 'k': mult = 1ull << 10; digits.pop_back(); break;
      case 'M': case 'm': mult = 1ull << 20; digits.pop_back(); break;
      case 'G': case 'g': mult = 1ull << 30; digits.pop_back(); break;
      default: break;
    }
  }
  const bool all_digits =
      !digits.empty() && digits.find_first_not_of("0123456789") == std::string::npos;
  if (!all_digits) {
    throw std::invalid_argument("exp: " + flag + " expects BYTES with optional K/M/G suffix, got '" +
                                value + "'");
  }
  std::uint64_t n = 0;
  try {
    n = std::stoull(digits);
  } catch (const std::exception&) {
    throw std::invalid_argument("exp: " + flag + " value '" + value + "' out of range");
  }
  if (mult != 1 && n > std::numeric_limits<std::uint64_t>::max() / mult) {
    throw std::invalid_argument("exp: " + flag + " value '" + value + "' out of range");
  }
  return n * mult;
}

std::size_t parse_jobs(const std::string& flag, const std::string& value) {
  // Digits only: stoull would silently accept (and wrap) "-2", and "4x"
  // must not parse as 4.
  const bool all_digits =
      !value.empty() && value.find_first_not_of("0123456789") == std::string::npos;
  unsigned long long n = 0;
  if (all_digits) {
    try {
      n = std::stoull(value);
    } catch (const std::exception&) {
      throw std::invalid_argument("exp: " + flag + " value '" + value + "' out of range");
    }
  } else {
    throw std::invalid_argument("exp: " + flag + " expects a non-negative integer, got '" +
                                value + "'");
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

Cli parse_cli(int argc, char** argv, const std::vector<FlagSpec>& extra_flags) {
  Cli cli;
  if (const char* env = std::getenv("STOB_JOBS")) {
    cli.jobs = parse_jobs("STOB_JOBS", env);
  }
  // Environment default for the cache directory; --cache overrides it and
  // --no-cache clears it (a CI job must be able to force a cold run).
  if (const char* env = std::getenv("STOB_CACHE")) cli.cache_dir = env;
  bool no_cache = false;

  cli.argv.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) cli.argv.emplace_back(argv[i]);

  // Shared flags first, then the harness-specific ones. The --worker-*
  // flags are appended by the proc supervisor when it re-execs the driver;
  // users never pass them directly.
  std::vector<FlagSpec> known = {{"--jobs", true},
                                 {"--check-determinism", false},
                                 {"--manifest", true},
                                 {"--trace-events", true},
                                 {"--cache", true},
                                 {"--no-cache", false},
                                 {"--cache-stats", false},
                                 {"--cache-gc", true},
                                 {"--proc-workers", true},
                                 {"--job-timeout", true},
                                 {"--retries", true},
                                 {"--inject-worker-fault", true},
                                 {"--worker-job", true},
                                 {"--worker-fault", true},
                                 {"--worker-prof-domain", true}};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());

  std::map<std::string, int> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Split "--flag=value" spellings; "--flag value" takes the next argv.
    std::string name = arg;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos && arg.rfind("--", 0) == 0) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }

    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : known) {
      if (f.name == name) {
        spec = &f;
        break;
      }
    }
    if (spec == nullptr) {
      std::string listing;
      for (const FlagSpec& f : known) {
        if (f.name.rfind("--worker-", 0) == 0) continue;  // supervisor-internal
        listing += listing.empty() ? f.name : ", " + f.name;
      }
      throw std::invalid_argument("exp: unknown flag '" + arg +
                                  "' (use --flag or --flag=value; known flags: " + listing + ")");
    }
    if (spec->takes_value && !value.has_value()) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("exp: flag '" + name + "' expects a value");
      }
      value = argv[++i];
    }
    if (!spec->takes_value && value.has_value()) {
      throw std::invalid_argument("exp: flag '" + name + "' does not take a value");
    }
    if (++seen[name] > 1) {
      // Unconditionally on stderr: stdout is under the byte-identity
      // contract the drivers' diff checks rely on, and the log threshold
      // must not be able to swallow a user-facing CLI diagnostic.
      std::fprintf(stderr, "exp: flag %s given more than once; last value wins\n", name.c_str());
    }

    if (name == "--jobs") {
      cli.jobs = parse_jobs(name, *value);
    } else if (name == "--check-determinism") {
      cli.check_determinism = true;
    } else if (name == "--manifest") {
      cli.manifest_path = *value;
    } else if (name == "--trace-events") {
      cli.trace_events_path = *value;
    } else if (name == "--cache") {
      cli.cache_dir = *value;
    } else if (name == "--no-cache") {
      no_cache = true;
    } else if (name == "--cache-stats") {
      cli.cache_stats = true;
    } else if (name == "--cache-gc") {
      cli.cache_gc = true;
      cli.cache_gc_limit = parse_byte_size(name, *value);
    } else if (name == "--proc-workers") {
      cli.proc_workers = parse_jobs(name, *value);
    } else if (name == "--job-timeout") {
      cli.job_timeout_s = parse_seconds(name, *value);
    } else if (name == "--retries") {
      cli.retries = static_cast<std::size_t>(parse_u64(name, *value));
    } else if (name == "--inject-worker-fault") {
      WorkerFaultPlan::parse(*value);  // reject malformed specs at the CLI
      cli.inject_worker_fault = *value;
    } else if (name == "--worker-job") {
      cli.worker_mode = true;
      cli.worker_job = static_cast<std::size_t>(parse_u64(name, *value));
    } else if (name == "--worker-fault") {
      cli.worker_fault = *value;
    } else if (name == "--worker-prof-domain") {
      cli.worker_profile = true;
      cli.worker_prof_domain = parse_u64(name, *value);
    } else {
      cli.extra[name] = spec->takes_value ? *value : "1";
    }
  }
  if (no_cache) cli.cache_dir.clear();
  if (cli.cache_dir.empty() && (cli.cache_stats || cli.cache_gc)) {
    throw std::invalid_argument(
        "exp: --cache-stats/--cache-gc need a cache (--cache DIR or STOB_CACHE, and not "
        "--no-cache)");
  }
  return cli;
}

ProcOptions proc_options_from_cli(const Cli& cli) {
  ProcOptions proc;
  proc.workers = cli.proc_workers;
  proc.job_timeout = Duration::seconds_f(cli.job_timeout_s);
  proc.retries = cli.retries;
  proc.fault_spec = cli.inject_worker_fault;
  if (cli.proc_workers > 0) {
    // The driver re-execs itself. Resolve the binary now: argv[0] may be a
    // bare name found on PATH (execv does not search it) or relative to a
    // cwd that could change, and /proc/self/exe survives a rename.
    proc.worker_argv = cli.argv;
    proc.worker_argv[0] = util::self_exe_path(cli.argv[0]);
  }
  if (cli.worker_mode) proc.worker_job = cli.worker_job;
  proc.worker_fault = cli.worker_fault;
  proc.worker_profile = cli.worker_profile;
  proc.worker_prof_domain = cli.worker_prof_domain;
  return proc;
}

CacheSession CacheSession::from_cli(const Cli& cli) {
  CacheSession session;
  // Workers inherit the supervisor's argv (cache flags included) on
  // re-exec, but must never open the cache themselves: they publish result
  // frames and the supervisor commits them.
  if (cli.cache_dir.empty() || cli.worker_mode) return session;
  session.cache_ = std::make_shared<ResultCache>(cli.cache_dir, kWorkerPayloadVersion);
  session.stats_ = cli.cache_stats;
  session.gc_ = cli.cache_gc;
  session.gc_limit_ = cli.cache_gc_limit;
  return session;
}

void CacheSession::finish(const char* tool) const {
  if (cache_ == nullptr) return;
  if (stats_) std::fprintf(stderr, "%s: %s\n", tool, cache_->stats_line().c_str());
  if (gc_) {
    const ResultCache::GcReport r = cache_->gc(gc_limit_);
    std::fprintf(stderr,
                 "%s: cache gc: kept %zu entries (%llu bytes), evicted %zu entries "
                 "(%llu bytes), removed %zu junk files\n",
                 tool, r.entries_kept, static_cast<unsigned long long>(r.bytes_kept),
                 r.entries_evicted, static_cast<unsigned long long>(r.bytes_evicted),
                 r.junk_removed);
  }
}

}  // namespace stob::exp
