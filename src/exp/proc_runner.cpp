#include "exp/proc_runner.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "util/subprocess.hpp"

namespace stob::exp {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::size_t kStderrTailBytes = 4096;

}  // namespace

// ------------------------------------------------------- WorkerFaultPlan

WorkerFaultPlan WorkerFaultPlan::parse(const std::string& spec) {
  WorkerFaultPlan plan;
  if (spec.empty()) return plan;
  std::string kind = spec;
  std::string rate_str;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    kind = spec.substr(0, colon);
    rate_str = spec.substr(colon + 1);
  }
  if (kind == "crash") {
    plan.kind = Kind::Crash;
  } else if (kind == "hang") {
    plan.kind = Kind::Hang;
  } else if (kind == "exit") {
    plan.kind = Kind::Exit;
  } else {
    throw std::invalid_argument("exp: bad worker fault '" + spec +
                                "' (expected crash|hang|exit[:rate])");
  }
  plan.rate = 1.0;
  if (!rate_str.empty()) {
    try {
      std::size_t used = 0;
      plan.rate = std::stod(rate_str, &used);
      if (used != rate_str.size()) throw std::invalid_argument("trailing junk");
    } catch (const std::exception&) {
      throw std::invalid_argument("exp: bad worker fault rate in '" + spec + "'");
    }
    if (plan.rate < 0.0 || plan.rate > 1.0) {
      throw std::invalid_argument("exp: worker fault rate must be in [0, 1], got '" + spec +
                                  "'");
    }
  }
  return plan;
}

bool WorkerFaultPlan::should_inject(std::size_t job, std::size_t attempt,
                                    std::size_t max_attempts) const {
  if (!enabled()) return false;
  if (rate >= 1.0) return true;  // "always": quarantine-path testing
  // A cell's final attempt is exempt so a faulted sweep always converges to
  // the fault-free output — the byte-identity CI gate depends on this.
  if (attempt + 1 >= max_attempts) return false;
  const std::uint64_t coin = mix64(mix64(0xFA417ull ^ job) ^ attempt);
  return static_cast<double>(coin >> 11) * 0x1.0p-53 < rate;
}

const char* WorkerFaultPlan::kind_name() const {
  switch (kind) {
    case Kind::Crash: return "crash";
    case Kind::Hang: return "hang";
    case Kind::Exit: return "exit";
    case Kind::None: break;
  }
  return "";
}

// --------------------------------------------------------- fault execution

void execute_worker_fault(std::string_view kind) {
  if (kind == "crash") {
    // SIGKILL rather than SIGSEGV: it cannot be intercepted, so the hook
    // reports as a signal death identically under ASan/TSan builds (whose
    // handlers turn a raised SIGSEGV into a clean nonzero exit).
    ::raise(SIGKILL);
    ::_exit(99);  // unreachable
  }
  if (kind == "hang") {
    for (;;) ::pause();  // wedge until the watchdog SIGKILLs us
  }
  if (kind == "exit") ::_exit(3);
}

// --------------------------------------------------------------- supervisor

namespace {

struct Attempt {
  std::size_t job = 0;
  std::size_t attempt = 0;  // 0-based
};

struct Delayed {
  Clock::time_point ready;
  Attempt item;
};

struct Active {
  util::Subprocess proc;
  Attempt item;
  Clock::time_point deadline;
  std::string result_buf;
  std::string err_tail;
  bool result_eof = false;
  bool err_eof = false;

  bool drained() const { return result_eof && err_eof; }
};

/// Drain whatever is readable from `fd` into `buf`; returns true on EOF.
bool drain_fd(int fd, std::string* buf) {
  char tmp[4096];
  for (;;) {
    const ssize_t n = util::read_some(fd, tmp, sizeof(tmp));
    if (n == 0) return true;
    if (n < 0) return false;  // EAGAIN: no more for now
    buf->append(tmp, static_cast<std::size_t>(n));
  }
}

void trim_tail(std::string* s) {
  if (s->size() > kStderrTailBytes) s->erase(0, s->size() - kStderrTailBytes);
}

struct Outcome {
  bool success = false;
  std::string payload;
  std::string kind;  // "signal" / "exit" / "timeout" / "frame"
  int signal_no = 0;
  int exit_code = 0;
};

Outcome classify(Active& a, bool timed_out) {
  Outcome out;
  if (timed_out) {
    out.kind = "timeout";
    out.signal_no = SIGKILL;
    return out;
  }
  const util::ExitStatus st = a.proc.wait();
  if (st.signaled) {
    out.kind = "signal";
    out.signal_no = st.term_signal;
    return out;
  }
  if (!st.clean()) {
    out.kind = "exit";
    out.exit_code = st.exit_code;
    return out;
  }
  std::optional<std::string> payload = util::parse_frame(a.result_buf);
  if (!payload.has_value()) {
    out.kind = "frame";  // exited 0 but the result frame is missing/torn
    return out;
  }
  out.success = true;
  out.payload = std::move(*payload);
  return out;
}

}  // namespace

std::vector<std::optional<std::string>> run_cells(
    std::size_t count, const ProcOptions& opts,
    const std::function<std::string(std::size_t)>& digest,
    const std::function<std::string(std::size_t)>& run_cell, ProcReport* report,
    const CellCache* cache) {
  if (opts.workers == 0) throw std::runtime_error("proc: run_cells needs workers > 0");
  const WorkerFaultPlan fault = WorkerFaultPlan::parse(opts.fault_spec);
  const std::size_t max_attempts = opts.retries + 1;
  const bool exec_mode = !opts.worker_argv.empty();

  ProcReport local;
  ProcReport& rep = report != nullptr ? *report : local;
  rep = ProcReport{};
  rep.cells = count;

  // Cells the cache already holds never reach a worker.
  std::vector<std::optional<std::string>> payloads(count);
  std::deque<Attempt> pending;
  for (std::size_t i = 0; i < count; ++i) {
    if (cache != nullptr && cache->probe) payloads[i] = cache->probe(i);
    if (payloads[i].has_value()) {
      rep.cache_hits += 1;
    } else {
      pending.push_back({i, 0});
    }
  }

  // Resolve the worker binary once: argv[0] may be relative to a cwd that
  // could change, and /proc/self/exe survives deletion/rename of the path.
  std::vector<std::string> base_argv = opts.worker_argv;
  if (exec_mode) base_argv[0] = util::self_exe_path(base_argv[0]);

  std::vector<Active> active;
  std::vector<Delayed> delayed;
  active.reserve(opts.workers);

  const auto spawn = [&](const Attempt& item) {
    const bool inject = fault.should_inject(item.job, item.attempt, max_attempts);
    if (inject) rep.injected_faults += 1;

    util::Subprocess::Options sub;
    sub.result_fd = opts.worker_fd >= 0 ? opts.worker_fd : 3;
    if (exec_mode) {
      sub.argv = base_argv;
      sub.argv.push_back("--worker-job");
      sub.argv.push_back(std::to_string(item.job));
      sub.argv.push_back("--worker-fd");
      sub.argv.push_back(std::to_string(sub.result_fd));
      if (inject) {
        sub.argv.push_back("--worker-fault");
        sub.argv.push_back(fault.kind_name());
      }
      if (opts.worker_profile) {
        sub.argv.push_back("--worker-prof-domain");
        sub.argv.push_back(std::to_string(opts.worker_prof_domain));
      }
    } else {
      const std::size_t job = item.job;
      const std::string fault_kind = inject ? fault.kind_name() : "";
      sub.child_fn = [job, fault_kind, &run_cell](int result_fd) {
        execute_worker_fault(fault_kind);
        const std::string payload = run_cell(job);
        return util::write_frame(result_fd, payload) ? 0 : 1;
      };
    }

    Active a;
    a.proc = util::Subprocess::spawn(sub);
    a.item = item;
    a.deadline = Clock::now() + std::chrono::nanoseconds(opts.job_timeout.ns());
    active.push_back(std::move(a));
  };

  const auto backoff = [&](std::size_t attempt) {
    Duration d = opts.backoff_base;
    for (std::size_t k = 0; k < attempt && d < opts.backoff_cap; ++k) d = d * 2;
    return std::min(d, opts.backoff_cap);
  };

  const auto finalize = [&](Active& a, bool timed_out) {
    Outcome out = classify(a, timed_out);
    const std::size_t job = a.item.job;
    const std::size_t attempts = a.item.attempt + 1;
    if (out.success) {
      if (cache != nullptr && cache->commit) {
        cache->commit(job, out.payload);
        rep.cache_stores += 1;
      }
      payloads[job] = std::move(out.payload);
      rep.ran += 1;
      return;
    }
    if (attempts < max_attempts) {
      rep.retries += 1;
      delayed.push_back({Clock::now() + std::chrono::nanoseconds(backoff(a.item.attempt).ns()),
                         {job, a.item.attempt + 1}});
      return;
    }
    trim_tail(&a.err_tail);
    CrashRecord crash;
    crash.job = job;
    crash.digest = digest(job);
    crash.attempts = static_cast<std::uint32_t>(attempts);
    crash.outcome = out.kind;
    crash.signal_no = out.signal_no;
    crash.exit_code = out.exit_code;
    crash.stderr_tail = a.err_tail;
    rep.failures.push_back(std::move(crash));
    rep.quarantined += 1;
  };

  while (!pending.empty() || !delayed.empty() || !active.empty()) {
    const Clock::time_point now = Clock::now();

    // Promote retry attempts whose backoff has elapsed.
    for (std::size_t i = 0; i < delayed.size();) {
      if (delayed[i].ready <= now) {
        pending.push_back(delayed[i].item);
        delayed.erase(delayed.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    while (active.size() < opts.workers && !pending.empty()) {
      spawn(pending.front());
      pending.pop_front();
    }
    if (active.empty()) {
      if (delayed.empty()) break;  // pending handled above; nothing left
      Clock::time_point earliest = delayed.front().ready;
      for (const Delayed& d : delayed) earliest = std::min(earliest, d.ready);
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(earliest - now);
      ::poll(nullptr, 0, static_cast<int>(std::max<std::int64_t>(1, ms.count() + 1)));
      continue;
    }

    // Poll every live descriptor, bounded by the nearest watchdog deadline
    // (or retry-ready time), so hangs are detected without busy-waiting.
    Clock::time_point wake = active.front().deadline;
    for (const Active& a : active) wake = std::min(wake, a.deadline);
    for (const Delayed& d : delayed) wake = std::min(wake, d.ready);
    for (const Active& a : active) {
      // Both pipes at EOF means the worker is mid-exit: its zombie may not
      // be waitable for another scheduler tick (the parent can win the
      // waitpid race outright on a single-core machine), and a dead child
      // contributes no descriptors to wake poll. Re-check shortly instead
      // of sleeping to the watchdog deadline.
      if (a.drained()) {
        wake = std::min(wake, now + std::chrono::milliseconds(2));
        break;
      }
    }
    std::vector<pollfd> fds;
    std::vector<std::pair<std::size_t, bool>> owner;  // (active idx, is_result)
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (!active[i].result_eof && active[i].proc.result_fd() >= 0) {
        fds.push_back({active[i].proc.result_fd(), POLLIN, 0});
        owner.emplace_back(i, true);
      }
      if (!active[i].err_eof && active[i].proc.stderr_fd() >= 0) {
        fds.push_back({active[i].proc.stderr_fd(), POLLIN, 0});
        owner.emplace_back(i, false);
      }
    }
    const auto timeout_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        wake - Clock::now());
    const int timeout =
        static_cast<int>(std::clamp<std::int64_t>(timeout_ms.count() + 1, 0, 60'000));
    int rc;
    do {
      rc = ::poll(fds.data(), fds.size(), timeout);
    } while (rc < 0 && errno == EINTR);

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      Active& a = active[owner[k].first];
      if (owner[k].second) {
        a.result_eof = drain_fd(fds[k].fd, &a.result_buf);
      } else {
        a.err_eof = drain_fd(fds[k].fd, &a.err_tail);
        trim_tail(&a.err_tail);
      }
    }

    // Reap finished and expired workers. Iterate by index and compact at
    // the end so finalize() (which can push retries) never invalidates the
    // loop.
    const Clock::time_point after = Clock::now();
    for (std::size_t i = 0; i < active.size();) {
      Active& a = active[i];
      bool done = false;
      if (a.drained()) {
        if (a.proc.try_wait().has_value()) {
          finalize(a, /*timed_out=*/false);
          done = true;
        }
      }
      if (!done && after >= a.deadline) {
        a.proc.kill(SIGKILL);
        a.proc.wait();
        // The kill closed the child's pipe ends; collect any last bytes.
        if (!a.result_eof && a.proc.result_fd() >= 0) drain_fd(a.proc.result_fd(), &a.result_buf);
        if (!a.err_eof && a.proc.stderr_fd() >= 0) {
          drain_fd(a.proc.stderr_fd(), &a.err_tail);
          trim_tail(&a.err_tail);
        }
        finalize(a, /*timed_out=*/true);
        done = true;
      }
      if (done) {
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  return payloads;
}

void print_proc_summary(const char* tool, const ProcReport& report) {
  std::fprintf(stderr,
               "%s: proc supervisor: %zu cells, %zu ran, %zu cache hits, %zu cache stores, "
               "%zu retries, %zu injected faults, %zu quarantined\n",
               tool, report.cells, report.ran, report.cache_hits, report.cache_stores,
               report.retries, report.injected_faults, report.quarantined);
  for (const CrashRecord& f : report.failures) {
    std::fprintf(stderr,
                 "%s: quarantined cell %llu (digest %.12s…) after %u attempts: %s "
                 "(signal=%d exit=%d) stderr=\"%s\"\n",
                 tool, static_cast<unsigned long long>(f.job), f.digest.c_str(), f.attempts,
                 f.outcome.c_str(), f.signal_no, f.exit_code,
                 obs::json_escape(f.stderr_tail).c_str());
  }
}

}  // namespace stob::exp
