// RAII child-process primitive for the out-of-process experiment runner.
//
// A Subprocess is one fork()'d and exec()'d worker with three plumbed file
// descriptors:
//
//   * stdin and stdout are pointed at /dev/null: workers re-run a bench
//     driver's main() up to the job dispatch point, and anything they print
//     must not interleave with the supervisor's (determinism-checked)
//     stdout;
//   * stderr is captured through a pipe so the supervisor can keep a tail
//     for crash reports;
//   * descriptor kResultFd (3) carries the job's output back as a
//     length-prefixed frame (see write_frame / parse_frame) — results never
//     share a stream with logging.
//
// The exec gives every worker a fresh address space, so heap corruption in
// one cell cannot leak into its siblings or the supervisor — the
// crash-isolation property the proc runner is built on.
//
// spawn() is safe to call from several threads at once: both pipes are
// created O_CLOEXEC (the child's dup2 onto stderr / fd 3 clears the flag on
// the copies it keeps), so a sibling forked in the window between pipe
// creation and the parent's close cannot carry another worker's write end
// across exec and hold back that worker's EOF. The child's argv is built
// before fork(), so the child allocates nothing before execv.
//
// All pipe I/O helpers retry EINTR; parent-side descriptors are nonblocking
// so the caller can poll() a child's two pipes against a deadline. The
// destructor SIGKILLs and reaps a still-running child: a Subprocess can
// never outlive its owner as a zombie or an orphan.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stob::util {

/// Child-side descriptor number the result pipe is dup2()'d onto.
inline constexpr int kResultFd = 3;

// ------------------------------------------------------- EINTR-safe I/O

/// write(2) the whole buffer, retrying EINTR and short writes. Returns
/// false on any other error (EPIPE included) — callers on the child side
/// are about to _exit and just give up.
bool write_all(int fd, const void* data, std::size_t len);

/// read(2) retrying EINTR. Returns bytes read (0 = EOF), or -1 with errno
/// set (EAGAIN means "no data right now" on nonblocking descriptors).
ssize_t read_some(int fd, void* buf, std::size_t len);

// ------------------------------------------------------------ result frame

/// Length-prefixed result frame: 4-byte magic "SF01", 4-byte little-endian
/// payload length, payload bytes. A crashed worker leaves a missing or
/// truncated frame, which parse_frame reports as "no frame" rather than
/// garbage data.
void append_frame(std::string& out, std::string_view payload);
bool write_frame(int fd, std::string_view payload);

/// Parse a complete frame from `bytes` (the full pipe capture). Returns
/// nullopt when the magic is wrong or the frame is truncated.
std::optional<std::string> parse_frame(std::string_view bytes);

// -------------------------------------------------------------- Subprocess

/// Decoded wait(2) status.
struct ExitStatus {
  bool exited = false;
  int exit_code = 0;
  bool signaled = false;
  int term_signal = 0;

  bool clean() const { return exited && exit_code == 0; }
};

class Subprocess {
 public:
  /// Fork and execv `argv` (argv[0] is the executable path). Throws
  /// std::runtime_error when argv is empty or fork / the pipe plumbing
  /// fails; exec failure surfaces as exit code 127 with a message on the
  /// captured stderr.
  static Subprocess spawn(const std::vector<std::string>& argv);

  Subprocess() = default;
  Subprocess(Subprocess&& o) noexcept { *this = std::move(o); }
  Subprocess& operator=(Subprocess&& o) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();  ///< SIGKILL + reap if still running; closes descriptors

  bool running() const { return pid_ > 0 && !reaped_; }

  /// Parent ends of the result / stderr pipes (nonblocking).
  int result_fd() const { return result_fd_; }
  int stderr_fd() const { return stderr_fd_; }

  /// Send `sig` (no-op once reaped).
  void kill(int sig);

  /// Blocking, EINTR-safe waitpid. Idempotent: the first call reaps, later
  /// calls return the cached status.
  ExitStatus wait();

 private:
  pid_t pid_ = -1;
  int result_fd_ = -1;
  int stderr_fd_ = -1;
  bool reaped_ = false;
  ExitStatus status_;
};

/// Absolute path of the running executable (/proc/self/exe), or `fallback`
/// when it cannot be resolved. The proc runner re-execs this binary for
/// its workers.
std::string self_exe_path(const std::string& fallback);

}  // namespace stob::util
