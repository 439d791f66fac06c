#include "util/subprocess.hpp"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>

namespace stob::util {

bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

ssize_t read_some(int fd, void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, len);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

namespace {

constexpr char kFrameMagic[4] = {'S', 'F', '0', '1'};

void set_nonblock(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK); }

void close_quietly(int& fd) {
  if (fd >= 0) {
    int rc;
    do {
      rc = ::close(fd);
    } while (rc < 0 && errno == EINTR);
    fd = -1;
  }
}

ExitStatus decode_status(int raw) {
  ExitStatus st;
  if (WIFEXITED(raw)) {
    st.exited = true;
    st.exit_code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    st.signaled = true;
    st.term_signal = WTERMSIG(raw);
  }
  return st;
}

/// Move `fd` onto `target` in the child, clearing FD_CLOEXEC (dup2 does,
/// except for the fd==target case which keeps the old flags).
void child_dup_onto(int fd, int target) {
  if (fd == target) {
    ::fcntl(fd, F_SETFD, 0);
    return;
  }
  ::dup2(fd, target);
  ::close(fd);
}

}  // namespace

void append_frame(std::string& out, std::string_view payload) {
  out.append(kFrameMagic, sizeof(kFrameMagic));
  const auto len = static_cast<std::uint32_t>(payload.size());
  char lenbuf[4] = {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 24) & 0xff)};
  out.append(lenbuf, sizeof(lenbuf));
  out.append(payload);
}

bool write_frame(int fd, std::string_view payload) {
  std::string framed;
  framed.reserve(payload.size() + 8);
  append_frame(framed, payload);
  return write_all(fd, framed.data(), framed.size());
}

std::optional<std::string> parse_frame(std::string_view bytes) {
  if (bytes.size() < 8) return std::nullopt;
  if (::memcmp(bytes.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) return std::nullopt;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[4 + i]));
  };
  const std::uint32_t len = b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
  if (bytes.size() < 8 + static_cast<std::size_t>(len)) return std::nullopt;
  return std::string(bytes.substr(8, len));
}

Subprocess Subprocess::spawn(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("Subprocess::spawn: empty argv");
  // Built before fork(): the child of a multi-threaded parent must not
  // allocate (another thread may hold the allocator's lock) before execv.
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  int result_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  const auto close_pipes = [&] {
    for (int* fd : {&result_pipe[0], &result_pipe[1], &err_pipe[0], &err_pipe[1]}) {
      close_quietly(*fd);
    }
  };
  if (::pipe2(result_pipe, O_CLOEXEC) != 0 || ::pipe2(err_pipe, O_CLOEXEC) != 0) {
    close_pipes();
    throw std::runtime_error("Subprocess::spawn: pipe2() failed");
  }

  // Keep pending stdio out of the child: a fork()'d copy of a partially
  // filled stdout buffer would otherwise be flushed twice.
  ::fflush(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    close_pipes();
    throw std::runtime_error("Subprocess::spawn: fork() failed");
  }

  if (pid == 0) {
    // ---- child: the read ends are O_CLOEXEC and vanish at execv ----
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
      if (devnull > STDERR_FILENO) ::close(devnull);
    }
    child_dup_onto(err_pipe[1], STDERR_FILENO);
    child_dup_onto(result_pipe[1], kResultFd);
    ::execv(argv[0], argv.data());
    // exec failed: report on the captured stderr and die with the
    // conventional shell "command not found" code.
    ::dprintf(STDERR_FILENO, "Subprocess: execv(%s) failed: %s\n", argv[0], ::strerror(errno));
    ::_exit(127);
  }

  // ---- parent ----
  Subprocess p;
  p.pid_ = pid;
  close_quietly(result_pipe[1]);
  close_quietly(err_pipe[1]);
  p.result_fd_ = result_pipe[0];
  p.stderr_fd_ = err_pipe[0];
  set_nonblock(p.result_fd_);
  set_nonblock(p.stderr_fd_);
  return p;
}

Subprocess& Subprocess::operator=(Subprocess&& o) noexcept {
  if (this != &o) {
    if (running()) {
      kill(SIGKILL);
      wait();
    }
    close_quietly(result_fd_);
    close_quietly(stderr_fd_);
    pid_ = o.pid_;
    result_fd_ = o.result_fd_;
    stderr_fd_ = o.stderr_fd_;
    reaped_ = o.reaped_;
    status_ = o.status_;
    o.pid_ = -1;
    o.result_fd_ = -1;
    o.stderr_fd_ = -1;
    o.reaped_ = false;
  }
  return *this;
}

Subprocess::~Subprocess() {
  if (running()) {
    kill(SIGKILL);
    wait();
  }
  close_quietly(result_fd_);
  close_quietly(stderr_fd_);
}

void Subprocess::kill(int sig) {
  if (running()) ::kill(pid_, sig);
}

ExitStatus Subprocess::wait() {
  if (reaped_ || pid_ <= 0) return status_;
  int raw = 0;
  pid_t rc;
  do {
    rc = ::waitpid(pid_, &raw, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc == pid_) status_ = decode_status(raw);
  reaped_ = true;
  return status_;
}

std::string self_exe_path(const std::string& fallback) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return fallback;
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace stob::util
