#include "exp/proc_runner.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
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

// ----------------------------------------------------------------- executor

namespace {

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
  std::string err_tail;
};

/// One worker process, start to reap: collect both pipes until EOF or the
/// watchdog deadline, then classify how the attempt ended.
Outcome run_attempt(const std::vector<std::string>& argv, Duration timeout) {
  util::Subprocess proc = util::Subprocess::spawn(argv);
  const Clock::time_point deadline = Clock::now() + std::chrono::nanoseconds(timeout.ns());
  std::string result;
  Outcome out;
  bool result_eof = false;
  bool err_eof = false;
  bool timed_out = false;
  while (!(result_eof && err_eof)) {
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd fds[2] = {};
    nfds_t n = 0;
    if (!result_eof) fds[n++] = {proc.result_fd(), POLLIN, 0};
    if (!err_eof) fds[n++] = {proc.stderr_fd(), POLLIN, 0};
    if (::poll(fds, n, static_cast<int>(std::min<std::int64_t>(left, 60'000))) < 0) continue;
    for (nfds_t k = 0; k < n; ++k) {
      if (fds[k].revents == 0) continue;
      if (fds[k].fd == proc.result_fd()) {
        result_eof = drain_fd(fds[k].fd, &result);
      } else {
        err_eof = drain_fd(fds[k].fd, &out.err_tail);
        trim_tail(&out.err_tail);
      }
    }
  }
  if (timed_out) proc.kill(SIGKILL);
  // Both pipes at EOF means the worker is exiting: block until it has.
  const util::ExitStatus st = proc.wait();
  if (timed_out) {
    // The kill closed the worker's pipe ends; keep its last words.
    drain_fd(proc.stderr_fd(), &out.err_tail);
    trim_tail(&out.err_tail);
    out.kind = "timeout";
    out.signal_no = SIGKILL;
  } else if (st.signaled) {
    out.kind = "signal";
    out.signal_no = st.term_signal;
  } else if (!st.clean()) {
    out.kind = "exit";
    out.exit_code = st.exit_code;
  } else if (std::optional<std::string> payload = util::parse_frame(result)) {
    out.success = true;
    out.payload = std::move(*payload);
  } else {
    out.kind = "frame";  // exited 0 but the result frame is missing/torn
  }
  return out;
}

}  // namespace

ProcExecutor::ProcExecutor(const ProcOptions& opts)
    : opts_(opts),
      fault_(WorkerFaultPlan::parse(opts.fault_spec)),
      slots_(static_cast<std::ptrdiff_t>(opts.workers)) {
  if (opts_.worker_argv.empty()) {
    throw std::invalid_argument(
        "exp: ProcOptions::worker_argv is empty; proc mode (workers > 0) needs a worker "
        "command");
  }
  if (opts_.worker_profile) {
    opts_.worker_argv.push_back("--worker-prof-domain");
    opts_.worker_argv.push_back(std::to_string(opts_.worker_prof_domain));
  }
}

CellRun ProcExecutor::run(std::size_t job) {
  const std::size_t max_attempts = opts_.retries + 1;
  CellRun cell;
  for (std::size_t attempt = 0;; ++attempt) {
    std::vector<std::string> argv = opts_.worker_argv;
    argv.push_back("--worker-job");
    argv.push_back(std::to_string(job));
    if (fault_.should_inject(job, attempt, max_attempts)) {
      cell.injected_faults += 1;
      argv.push_back("--worker-fault");
      argv.push_back(fault_.kind_name());
    }
    Outcome out = [&] {
      slots_.acquire();
      struct Release {
        std::counting_semaphore<>& slots;
        ~Release() { slots.release(); }
      } release{slots_};
      return run_attempt(argv, opts_.job_timeout);
    }();
    if (out.success) {
      cell.payload = std::move(out.payload);
      return cell;
    }
    if (attempt + 1 >= max_attempts) {
      cell.crash.job = job;
      cell.crash.attempts = static_cast<std::uint32_t>(attempt + 1);
      cell.crash.outcome = std::move(out.kind);
      cell.crash.signal_no = out.signal_no;
      cell.crash.exit_code = out.exit_code;
      cell.crash.stderr_tail = std::move(out.err_tail);
      return cell;
    }
    cell.retries += 1;
    Duration backoff = opts_.backoff_base;
    for (std::size_t k = 0; k < attempt && backoff < opts_.backoff_cap; ++k) backoff = backoff * 2;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min(backoff, opts_.backoff_cap).ns()));
  }
}

void print_proc_summary(const char* tool, const ProcReport& report) {
  std::fprintf(stderr,
               "%s: proc supervisor: %zu cells, %zu ran, %zu retries, %zu injected faults, "
               "%zu quarantined\n",
               tool, report.cells, report.ran, report.retries, report.injected_faults,
               report.quarantined);
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
