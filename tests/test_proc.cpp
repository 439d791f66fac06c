// Tests for the crash-isolated out-of-process experiment runner:
// util::Subprocess plumbing, the length-prefixed result frame, the worker
// payload codec, the JSON escaper behind crash lines, the cell_spec_digest
// cell key, the deterministic self-fault hook, and the proc executor behind
// run_grid — retries, watchdog, quarantine, crash reporting, and the
// headline guarantee that out-of-process sweeps are byte-identical to
// in-process ones. Workers are the grid_worker helper
// (tests/helpers/grid_worker.cpp), exec'd exactly as a bench driver
// re-execs itself. Resuming a killed sweep through the result cache is
// covered in test_cache.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/job_codec.hpp"
#include "exp/proc_runner.hpp"
#include "helpers/tiny_grids.hpp"
#include "obs/json.hpp"
#include "util/subprocess.hpp"

namespace stob::exp {
namespace {

using tiny::make_grid;
using tiny::tiny_sites;
using tiny::worker_opts;

/// Read a (nonblocking) parent-side pipe to EOF after the child exited.
std::string drain_to_eof(int fd) {
  std::string out;
  char tmp[512];
  for (;;) {
    const ssize_t n = util::read_some(fd, tmp, sizeof(tmp));
    if (n > 0) {
      out.append(tmp, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;           // EOF
    if (errno != EAGAIN) break;  // real error
  }
  return out;
}

// -------------------------------------------------------------- subprocess

TEST(Subprocess, ExecModeShipsResultFrame) {
  // The child writes a frame (magic, LE length 16, payload) to fd 3.
  util::Subprocess child = util::Subprocess::spawn(
      {"/bin/sh", "-c", "printf 'SF01\\020\\000\\000\\000hello from child' >&3"});
  const util::ExitStatus st = child.wait();  // child exit closes the pipe
  EXPECT_TRUE(st.clean());
  const auto payload = util::parse_frame(drain_to_eof(child.result_fd()));
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello from child");
}

TEST(Subprocess, ExecModeReportsExitStatus) {
  EXPECT_TRUE(util::Subprocess::spawn({"/bin/true"}).wait().clean());

  const util::ExitStatus st = util::Subprocess::spawn({"/bin/false"}).wait();
  EXPECT_TRUE(st.exited);
  EXPECT_NE(st.exit_code, 0);
}

TEST(Subprocess, ExecFailureIs127WithStderrMessage) {
  util::Subprocess child = util::Subprocess::spawn({"/no/such/binary/anywhere"});
  const util::ExitStatus st = child.wait();
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.exit_code, 127);
  EXPECT_NE(drain_to_eof(child.stderr_fd()).find("execv"), std::string::npos);
}

TEST(Subprocess, SignalDeathIsDecoded) {
  const util::ExitStatus st = util::Subprocess::spawn({"/bin/sh", "-c", "kill -9 $$"}).wait();
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.term_signal, SIGKILL);
  EXPECT_FALSE(st.clean());
}

/// Nonblocking: drain what the pipe `fd` holds and report whether every
/// holder of its write end has closed it.
bool at_eof(int fd) {
  char tmp[256];
  for (;;) {
    const ssize_t n = util::read_some(fd, tmp, sizeof(tmp));
    if (n == 0) return true;
    if (n < 0) return false;  // EAGAIN: a writer is still open
  }
}

TEST(Subprocess, ConcurrentSpawnsNeverHoldBackASiblingsEof) {
  // Two threads spawn in lockstep rounds: in each, one thread spawns a
  // `sleep 1` child and then a fast child, the other the reverse, so every
  // fast child's pipes exist while the other thread forks a sleep. Had
  // that fork carried the fast child's pipe write ends across exec (pipes
  // created without O_CLOEXEC), the sleep would hold the fast child's EOF
  // back until it exits. So each fast child's pipes must reach EOF while
  // its slow sibling from the other thread still runs.
  constexpr int kRounds = 50;
  std::vector<util::Subprocess> slow(2 * kRounds);  // all live to the end
  std::atomic<int> arrived{0};
  std::atomic<int> late{0};
  const auto sync = [&arrived](int phase) {
    arrived.fetch_add(1);
    while (arrived.load() < 2 * phase) std::this_thread::yield();
  };
  const auto spawner = [&](int t) {
    for (int k = 0; k < kRounds; ++k) {
      sync(2 * k + 1);
      util::Subprocess fast;
      if (t == 0) {
        slow[2 * k] = util::Subprocess::spawn({"/bin/sleep", "1"});
        fast = util::Subprocess::spawn({"/bin/true"});
      } else {
        fast = util::Subprocess::spawn({"/bin/true"});
        slow[2 * k + 1] = util::Subprocess::spawn({"/bin/sleep", "1"});
      }
      pollfd fds[2] = {{fast.result_fd(), POLLIN, 0}, {fast.stderr_fd(), POLLIN, 0}};
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
      while (!(at_eof(fds[0].fd) && at_eof(fds[1].fd)) &&
             std::chrono::steady_clock::now() < deadline) {
        ::poll(fds, 2, 10);
      }
      fast.wait();
      sync(2 * k + 2);  // the sibling has been spawned by now
      if (at_eof(slow[2 * k + 1 - t].stderr_fd())) late += 1;  // it exited first
    }
  };  // ~Subprocess SIGKILLs and reaps the sleeps
  std::thread a(spawner, 0);
  std::thread b(spawner, 1);
  a.join();
  b.join();
  EXPECT_EQ(late.load(), 0);
}

TEST(ResultFrame, RoundTripAndTornDetection) {
  // Binary-hostile payload: embedded NUL and a high byte.
  std::string payload = "payload ";
  payload.push_back('\0');
  payload.push_back('\x01');
  payload += " bytes";
  payload.push_back('\xff');

  std::string buf;
  util::append_frame(buf, payload);
  const auto full = util::parse_frame(buf);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, payload);

  // Every strict prefix is torn: no frame, never garbage.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_FALSE(util::parse_frame(std::string_view(buf).substr(0, cut)).has_value());
  }
  std::string bad_magic = buf;
  bad_magic[0] = 'X';
  EXPECT_FALSE(util::parse_frame(bad_magic).has_value());
}

// ------------------------------------------------------------ JSON dialect

TEST(JsonEscape, HostileStringsEscapeToOnePrintableLine) {
  std::string hostile = "quote\" slash\\ nl\n cr\r tab\t";
  hostile.push_back('\0');
  hostile += "high\xc3\xa9";
  std::string escaped;
  obs::json_escape(escaped, hostile);
  // One printable 7-bit line: that is what keeps a quarantined cell's crash
  // line single whatever its worker wrote to stderr.
  for (char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    EXPECT_LT(static_cast<unsigned char>(c), 0x7f);
  }
  EXPECT_EQ(escaped,
            "quote\\\" slash\\\\ nl\\n cr\\r tab\\t\\u0000high\\u00c3\\u00a9");
}

// ------------------------------------------------------------------ codec

TEST(JobCodec, RoundTripIsResultsIdentical) {
  ExperimentGrid grid;
  grid.sites = tiny_sites(1);
  grid.samples = 1;
  grid.base_seed = 99;
  RunOptions opts;
  opts.collect_metrics = true;
  opts.trace_capacity = 4096;
  opts.check_invariants = true;

  WorkerPayload payload;
  payload.result = run_job(grid, grid.job(0), opts);
  obs::ProfRecord rec;
  rec.id = 0x1234;
  rec.parent = 0x5678;
  rec.depth = 2;
  rec.worker = 1;
  rec.name = "page_load";
  rec.start_ns = 10;
  rec.wall_ns = 20;
  rec.cpu_ns = 15;
  rec.pool_hits = 3;
  rec.pool_misses = 1;
  payload.prof_records.push_back(rec);

  const std::string bytes = encode_worker_payload(payload);
  const WorkerPayload decoded = decode_worker_payload(bytes);
  EXPECT_TRUE(results_identical(payload.result, decoded.result));
  EXPECT_EQ(decoded.result.spec.seed, payload.result.spec.seed);
  ASSERT_EQ(decoded.prof_records.size(), 1u);
  EXPECT_EQ(decoded.prof_records[0].name, "page_load");
  EXPECT_EQ(decoded.prof_records[0].id, 0x1234u);
  EXPECT_EQ(decoded.prof_records[0].wall_ns, 20);
}

TEST(JobCodec, RejectsTruncationVersionSkewAndTrailingBytes) {
  WorkerPayload payload;
  payload.result.spec.index = 3;
  payload.result.metrics = "m";
  const std::string bytes = encode_worker_payload(payload);
  for (std::size_t cut : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(decode_worker_payload(std::string_view(bytes).substr(0, cut)),
                 std::runtime_error)
        << "cut=" << cut;
  }
  std::string skewed = bytes;
  skewed[0] = static_cast<char>(kWorkerPayloadVersion + 1);
  EXPECT_THROW(decode_worker_payload(skewed), std::runtime_error);
  EXPECT_THROW(decode_worker_payload(bytes + "x"), std::runtime_error);
}

// ------------------------------------------------------------- fault plan

TEST(WorkerFaultPlan, ParsesSpecsAndRejectsGarbage) {
  EXPECT_FALSE(WorkerFaultPlan::parse("").enabled());
  const WorkerFaultPlan crash = WorkerFaultPlan::parse("crash");
  EXPECT_EQ(crash.kind, WorkerFaultPlan::Kind::Crash);
  EXPECT_DOUBLE_EQ(crash.rate, 1.0);
  const WorkerFaultPlan hang = WorkerFaultPlan::parse("hang:0.25");
  EXPECT_EQ(hang.kind, WorkerFaultPlan::Kind::Hang);
  EXPECT_DOUBLE_EQ(hang.rate, 0.25);
  EXPECT_STREQ(WorkerFaultPlan::parse("exit:0.5").kind_name(), "exit");
  EXPECT_FALSE(WorkerFaultPlan::parse("crash:0").enabled());

  EXPECT_THROW(WorkerFaultPlan::parse("segv"), std::invalid_argument);
  EXPECT_THROW(WorkerFaultPlan::parse("crash:nope"), std::invalid_argument);
  EXPECT_THROW(WorkerFaultPlan::parse("crash:0.5x"), std::invalid_argument);
  EXPECT_THROW(WorkerFaultPlan::parse("crash:1.5"), std::invalid_argument);
  EXPECT_THROW(WorkerFaultPlan::parse("crash:-0.1"), std::invalid_argument);
}

TEST(WorkerFaultPlan, CoinIsDeterministicAndSparesFinalAttempt) {
  const WorkerFaultPlan plan = WorkerFaultPlan::parse("crash:0.5");
  std::size_t hits = 0;
  for (std::size_t job = 0; job < 200; ++job) {
    const bool first = plan.should_inject(job, 0, 3);
    EXPECT_EQ(first, plan.should_inject(job, 0, 3));  // pure function
    if (first) ++hits;
    // The final attempt is exempt below rate 1, so every cell eventually
    // converges to a fault-free result — the CI byte-identity gate.
    EXPECT_FALSE(plan.should_inject(job, 2, 3));
  }
  EXPECT_GT(hits, 50u);  // the coin actually lands both ways
  EXPECT_LT(hits, 150u);

  const WorkerFaultPlan always = WorkerFaultPlan::parse("exit:1");
  EXPECT_TRUE(always.should_inject(0, 2, 3));  // rate >= 1 hits final attempts
}

// --------------------------------------------------- cell digest (cache key)

ExperimentGrid digest_grid() {
  ExperimentGrid grid;
  grid.sites = tiny_sites(2);
  grid.samples = 2;
  grid.defenses = {{"none", nullptr}, {"front", nullptr}};
  grid.ccas = {"cubic", "bbr"};
  grid.base_seed = 42;
  return grid;
}

TEST(CellDigest, GoldenStableAndDistinct) {
  const ExperimentGrid grid = digest_grid();
  RunOptions opts;

  // Golden: the key is an on-disk format — a digest change silently
  // invalidates every existing cache entry, so it must fail loudly here first.
  EXPECT_EQ(cell_digest(grid, 0, opts),
            "610c1c1c238ed4909294e2ee487e1ae4f8e108b09f4d3c5cdf38e7ea64639ad3");
  EXPECT_EQ(cell_digest(grid, 5, opts),
            "5a05ce7716a12cd169124a3c618b43022fa6dec786c89099cf2f5027040de6e4");

  // Stability: pure function of the cell, independent of execution knobs.
  RunOptions other = opts;
  other.jobs = 7;
  other.proc.workers = 3;
  other.proc.retries = 9;
  EXPECT_EQ(cell_digest(grid, 0, opts), cell_digest(grid, 0, other));

  // Every cell's key is distinct.
  std::set<std::string> keys;
  for (std::size_t i = 0; i < grid.job_count(); ++i) keys.insert(cell_digest(grid, i, opts));
  EXPECT_EQ(keys.size(), grid.job_count());
}

TEST(CellDigest, ChangesWithAnyCellShapingInput) {
  const ExperimentGrid grid = digest_grid();
  RunOptions opts;
  // Job 3 decomposes to site 0, sample 0, defense 1, cca 1 (cca fastest).
  ASSERT_EQ(grid.job(3).site, 0u);
  ASSERT_EQ(grid.job(3).defense, 1u);
  ASSERT_EQ(grid.job(3).cca, 1u);
  const std::string base = cell_digest(grid, 3, opts);

  ExperimentGrid g2 = digest_grid();
  g2.base_seed = 43;
  EXPECT_NE(cell_digest(g2, 3, opts), base);

  g2 = digest_grid();
  g2.sites[0].name = "renamed";
  EXPECT_NE(cell_digest(g2, 3, opts), base);

  // Renaming a site the cell does not use leaves its key alone: a rerun
  // reuses exactly the cells whose own coordinates are unchanged.
  g2 = digest_grid();
  g2.sites[1].name = "renamed";
  EXPECT_EQ(cell_digest(g2, 3, opts), base);

  g2 = digest_grid();
  g2.defenses[1].name = "tamaraw";
  EXPECT_NE(cell_digest(g2, 3, opts), base);

  g2 = digest_grid();
  g2.ccas[1] = "reno";
  EXPECT_NE(cell_digest(g2, 3, opts), base);

  // RunOptions fields that shape the payload bytes are part of the key.
  RunOptions o2 = opts;
  o2.collect_metrics = true;
  EXPECT_NE(cell_digest(grid, 3, o2), base);
  o2 = opts;
  o2.trace_capacity = 128;
  EXPECT_NE(cell_digest(grid, 3, o2), base);
  o2 = opts;
  o2.check_invariants = true;
  EXPECT_NE(cell_digest(grid, 3, o2), base);
}

// ------------------------------------------- proc executor via run_grid

TEST(ProcRunner, PayloadsArriveInIndexOrder) {
  tiny::TinyGrid t = make_grid("cache");
  const std::vector<JobResult> in_process = run_grid(t.grid, t.opts);
  RunOptions run = t.opts;
  run.proc = worker_opts(3, "cache");
  ProcReport report;
  run.proc_report = &report;
  const std::vector<JobResult> results = run_grid(t.grid, run);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(results[i].spec.index, i);
    EXPECT_TRUE(results_identical(in_process[i], results[i])) << "job " << i;
  }
  EXPECT_EQ(report.cells, 8u);
  EXPECT_EQ(report.ran, 8u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ProcRunner, InjectedCrashesAreRetriedToConvergence) {
  tiny::TinyGrid t = make_grid("cache");
  const std::vector<JobResult> in_process = run_grid(t.grid, t.opts);
  RunOptions run = t.opts;
  run.proc = worker_opts(2, "cache");
  run.proc.fault_spec = "crash:0.5";
  run.proc.retries = 3;
  ProcReport report;
  run.proc_report = &report;
  const std::vector<JobResult> results = run_grid(t.grid, run);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results_identical(in_process[i], results[i])) << "job " << i;
  }
  EXPECT_GT(report.injected_faults, 0u);
  EXPECT_EQ(report.retries, report.injected_faults);  // every fault recovered
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ProcRunner, CellFailingAllAttemptsIsQuarantined) {
  tiny::TinyGrid t = make_grid("resume");
  RunOptions run = t.opts;
  run.proc = worker_opts(2, "resume");
  run.proc.fault_spec = "exit:1";  // rate 1: final attempts fault too
  run.proc.retries = 1;
  ProcReport report;
  run.proc_report = &report;
  run_grid(t.grid, run);
  EXPECT_EQ(report.quarantined, 4u);
  EXPECT_EQ(report.ran, 0u);
  ASSERT_EQ(report.failures.size(), 4u);
  for (const CrashRecord& f : report.failures) {
    EXPECT_EQ(f.outcome, "exit");
    EXPECT_EQ(f.exit_code, 3);  // execute_worker_fault's exit code
    EXPECT_EQ(f.attempts, 2u);
    EXPECT_EQ(f.digest, cell_digest(t.grid, f.job, t.opts));
  }
}

TEST(ProcRunner, CrashesAreReportedInJobOrder) {
  // Three threads finish their cells in a timing-dependent order; the
  // report (and so print_proc_summary) lists them by job index anyway.
  tiny::TinyGrid t = make_grid("five");
  RunOptions run = t.opts;
  run.proc = worker_opts(3, "five");
  run.proc.fault_spec = "exit:1";
  run.proc.retries = 0;
  ProcReport report;
  run.proc_report = &report;
  run_grid(t.grid, run);
  ASSERT_EQ(report.failures.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(report.failures[i].job, i);
}

TEST(ProcRunner, SignalDeathIsReportedAsSignal) {
  tiny::TinyGrid t = make_grid("seed3");
  RunOptions run = t.opts;
  run.proc = worker_opts(1, "seed3");
  run.proc.fault_spec = "crash:1";
  run.proc.retries = 0;
  ProcReport report;
  run.proc_report = &report;
  run_grid(t.grid, run);
  ASSERT_EQ(report.failures.size(), 2u);
  for (const CrashRecord& f : report.failures) {
    EXPECT_EQ(f.outcome, "signal");
    EXPECT_EQ(f.signal_no, SIGKILL);
  }
}

TEST(ProcRunner, WatchdogKillsHangs) {
  tiny::TinyGrid t = make_grid("seed3");
  RunOptions run = t.opts;
  run.proc = worker_opts(2, "seed3");
  run.proc.fault_spec = "hang:1";
  run.proc.retries = 0;
  run.proc.job_timeout = Duration::millis(200);
  ProcReport report;
  run.proc_report = &report;
  const std::vector<JobResult> results = run_grid(t.grid, run);
  EXPECT_FALSE(results[0].completed);
  ASSERT_EQ(report.failures.size(), 2u);
  for (const CrashRecord& f : report.failures) {
    EXPECT_EQ(f.outcome, "timeout");
    EXPECT_EQ(f.signal_no, SIGKILL);
  }
}

TEST(ProcRunner, WorkerStderrTailLandsInCrashReport) {
  // The split cells (1 and 3) throw in the worker, which reports the job on
  // stderr and exits 1.
  tiny::TinyGrid t = make_grid("resume");
  RunOptions run = t.opts;
  run.proc = worker_opts(1, "resume", {"--fail-split"});
  run.proc.retries = 0;
  ProcReport report;
  run.proc_report = &report;
  run_grid(t.grid, run);
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].job, 1u);
  EXPECT_EQ(report.failures[0].outcome, "exit");
  EXPECT_EQ(report.failures[0].exit_code, 1);
  EXPECT_NE(report.failures[0].stderr_tail.find("worker: job 1 threw: transient failure"),
            std::string::npos);

  // The tail reaches the user on the cell's crash line, escaped so the
  // worker's newline cannot split it: one summary line plus one crash line
  // per quarantined cell.
  testing::internal::CaptureStderr();
  print_proc_summary("tool", report);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("quarantined cell 1"), std::string::npos);
  EXPECT_NE(err.find("job 3 threw: transient failure\\n"), std::string::npos);
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 3);
}

// ----------------------------------------- run_grid: proc == in-process

TEST(RunGridProc, ByteIdenticalToInProcessAtAnyWorkerCount) {
  tiny::TinyGrid t = make_grid("split");
  const std::vector<JobResult> in_process = run_grid(t.grid, t.opts);

  for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    RunOptions proc_opts = t.opts;
    proc_opts.proc = worker_opts(workers, "split");
    ProcReport report;
    proc_opts.proc_report = &report;
    const std::vector<JobResult> out_of_process = run_grid(t.grid, proc_opts);
    ASSERT_EQ(out_of_process.size(), in_process.size());
    for (std::size_t i = 0; i < in_process.size(); ++i) {
      EXPECT_TRUE(results_identical(in_process[i], out_of_process[i]))
          << "job " << i << " differs at workers=" << workers;
      // The seed a worker process derived equals the in-process one: seeds
      // are keyed by job index, never by worker or process identity.
      EXPECT_EQ(out_of_process[i].spec.seed, job_seed(t.grid.base_seed, i));
    }
    EXPECT_EQ(report.ran, t.grid.job_count());
    EXPECT_EQ(report.quarantined, 0u);
  }
}

TEST(RunGridProc, InjectedFaultsDoNotChangeResults) {
  tiny::TinyGrid t = make_grid("seed7");
  const std::vector<JobResult> in_process = run_grid(t.grid, t.opts);

  RunOptions faulted = t.opts;
  faulted.proc = worker_opts(2, "seed7");
  faulted.proc.fault_spec = "crash:0.5";
  faulted.proc.retries = 3;
  ProcReport report;
  faulted.proc_report = &report;
  const std::vector<JobResult> out = run_grid(t.grid, faulted);
  for (std::size_t i = 0; i < in_process.size(); ++i) {
    EXPECT_TRUE(results_identical(in_process[i], out[i])) << "job " << i;
  }
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(RunGridProc, CheckDeterminismPassesInProcMode) {
  tiny::TinyGrid t = make_grid("seed3");
  RunOptions run = t.opts;
  run.check_determinism = true;  // compares against a serial in-process run
  run.proc = worker_opts(2, "seed3");
  EXPECT_NO_THROW(run_grid(t.grid, run));
}

TEST(RunGridProc, QuarantinedCellsYieldPlaceholders) {
  tiny::TinyGrid t = make_grid("seed3");
  RunOptions run = t.opts;
  run.proc = worker_opts(2, "seed3");
  run.proc.fault_spec = "exit:1";
  run.proc.retries = 0;
  ProcReport report;
  run.proc_report = &report;
  const std::vector<JobResult> results = run_grid(t.grid, run);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(report.quarantined, 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].completed);
    EXPECT_EQ(results[i].spec.index, i);  // placeholder still carries coords
  }
}

TEST(RunGridProc, RejectsProcModeWithoutWorkerCommand) {
  tiny::TinyGrid t = make_grid("seed3");
  RunOptions run = t.opts;
  run.proc.workers = 2;  // worker_argv left empty
  try {
    run_grid(t.grid, run);
    FAIL() << "proc mode without a worker command must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("worker_argv"), std::string::npos) << e.what();
  }
}

// --------------------------------------------------- CLI flag round trips

TEST(ProcCli, FlagsMapOntoProcOptions) {
  const char* argv[] = {"tool",      "--proc-workers", "4", "--job-timeout",         "2.5",
                        "--retries", "5",              "--inject-worker-fault", "crash:0.25"};
  const Cli cli = parse_cli(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const ProcOptions proc = proc_options_from_cli(cli);
  EXPECT_EQ(proc.workers, 4u);
  EXPECT_EQ(proc.job_timeout.ns(), Duration::millis(2500).ns());
  EXPECT_EQ(proc.retries, 5u);
  EXPECT_EQ(proc.fault_spec, "crash:0.25");
  // The re-exec base is argv with argv[0] resolved to this executable.
  ASSERT_EQ(proc.worker_argv.size(), std::size(argv));
  EXPECT_EQ(proc.worker_argv[0], util::self_exe_path("tool"));
  EXPECT_NE(proc.worker_argv[0], "tool");
  for (std::size_t i = 1; i < std::size(argv); ++i) EXPECT_EQ(proc.worker_argv[i], argv[i]);
  EXPECT_FALSE(proc.worker_job.has_value());
}

TEST(ProcCli, WorkerFlagsSelectWorkerMode) {
  const char* argv[] = {"tool",         "--proc-workers", "2",
                        "--worker-job", "17",             "--worker-fault",
                        "hang",         "--worker-prof-domain", "987654321"};
  const Cli cli = parse_cli(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const ProcOptions proc = proc_options_from_cli(cli);
  ASSERT_TRUE(proc.worker_job.has_value());
  EXPECT_EQ(*proc.worker_job, 17u);
  EXPECT_EQ(proc.worker_fault, "hang");
  EXPECT_TRUE(proc.worker_profile);
  EXPECT_EQ(proc.worker_prof_domain, 987654321u);

  // The worker always writes its frame to util::kResultFd: no flag for it.
  const char* old_flag[] = {"tool", "--worker-fd", "3"};
  EXPECT_THROW(parse_cli(3, const_cast<char**>(old_flag)), std::invalid_argument);
}

TEST(ProcCli, UnknownFlagExitsWithUsageError) {
  // A bench program's main() goes through parse_cli_or_exit: an unknown
  // flag is a usage error (exit 2, "<tool>: <message>" on stderr), not an
  // escaped exception that aborts the process.
  util::Subprocess child =
      util::Subprocess::spawn({STOB_GRID_WORKER, "--grid", "split", "--corpus", "x"});
  const util::ExitStatus st = child.wait();
  EXPECT_FALSE(st.signaled) << "signal " << st.term_signal;
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.exit_code, 2);
  const std::string err = drain_to_eof(child.stderr_fd());
  EXPECT_EQ(err.rfind("grid_worker: ", 0), 0u) << err;
  EXPECT_NE(err.find("--corpus"), std::string::npos) << err;
}

TEST(ProcCli, MalformedFaultSpecIsHardError) {
  const char* argv[] = {"tool", "--inject-worker-fault", "explode:often"};
  EXPECT_THROW(parse_cli(3, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(ProcCli, MalformedTimeoutOrRetriesIsHardError) {
  const char* bad_timeout[] = {"tool", "--job-timeout", "soon"};
  EXPECT_THROW(parse_cli(3, const_cast<char**>(bad_timeout)), std::invalid_argument);
  const char* bad_retries[] = {"tool", "--retries", "-1"};
  EXPECT_THROW(parse_cli(3, const_cast<char**>(bad_retries)), std::invalid_argument);
}

}  // namespace
}  // namespace stob::exp
